// Package live implements a mutable, always-queryable LSH Ensemble layered
// on the immutable core.Index — the serving-system counterpart of the
// paper's build-once index (Section 6.2 sketches the dynamic-data story;
// this package gives it a production shape).
//
// # Model
//
// A live Index is an atomically-swapped *snapshot* of two parts:
//
//   - sealed segments: each a frozen core.Index over a slice of the corpus,
//     plus the mutation sequence number of every entry;
//   - an unsealed buffer: recent Adds, not yet worth an LSH build, answered
//     as one extra partition (upper bound = largest buffered size) with the
//     same (b, r) banding test the forest would apply.
//
// Every entry also has a "cleared-at" slot: the sequence number of the
// Delete (or replacing Add) that cleared it, 0 while it is current. The
// snapshot records the last sequence number it publishes, and an entry is
// alive in it iff the slot is 0 or greater than that number — so a later
// clear never changes what an earlier snapshot answers (see buffer.go).
//
// Readers load the snapshot pointer once and never take a lock a writer
// holds: Add, Delete and the compactor publish by building a NEW snapshot
// and swapping the pointer. Readers in flight keep the old snapshot — every
// query sees a consistent point-in-time view of the corpus.
//
// Writers (Add/Delete) serialize on a mutex. Add appends to a buffer arena
// whose published prefix is never rewritten; Delete and a replacing Add
// store one slot, found by binary search of the ascending sequence numbers.
//
// A background compactor seals the buffer into a new segment once it
// crosses Options.SealThreshold, and merges the two smallest segments
// whenever more than Options.MaxSegments have accumulated — dead entries
// are dropped during both. Each result is published with a single pointer
// swap. Compact runs the whole pipeline to one segment and is
// equivalence-preserving: the result answers queries exactly like a fresh
// core.Build over the surviving records (asserted by the package tests).
//
// # Query planning
//
// Every sealed segment carries planner metadata built at seal/merge time
// (segMeta): its domain-size range, its largest partition upper bound, a
// Bloom filter over its keys, and a Bloom filter over the leading
// signature values of every forest tree. A query consults the metadata
// before probing:
//
//   - range pruning: when even the segment's largest partition upper bound
//     u fails the containment bound u/|Q| ≥ t*, every partition is ruled
//     out and the segment is skipped without touching its forest;
//   - Bloom pruning: a forest probe at depth ≥ 1 can only match when the
//     query's per-tree leading signature value occurs in that segment, so
//     a miss in the leading-value Bloom skips the segment with zero false
//     negatives;
//   - top-k ordering: QueryTopK visits segments largest-bound-first and
//     stops once the worst kept score provably beats any segment still
//     unvisited (the containment upper bound from its partition bounds).
//
// Pruning is conservative by construction — a segment is skipped only
// when it provably contributes nothing — so planned results are
// byte-identical to a full scan (asserted by the package tests).
//
// # Caches and generation coherence
//
// Snapshots carry one monotone generation counter, gen, which bumps on
// every publish (Add, Delete, seal, merge, compact). It keys one cache: a
// bounded set-associative result cache that memoizes full query answers; a
// hit appends the cached keys and allocates nothing. The tuned (b, r) of
// each partition is memoized below it, by the segment's own tune.Optimizer.
//
// Readers validate the generation against the snapshot they loaded — no
// locks on the query path, and a cached result can never outlive the
// snapshot it was computed against.
//
// The unsealed buffer is indexed too: per forest tree, an append-only chain
// from leading signature value to buffer position. A query walks only the
// chains of the bands it uses, so it verifies just the buffered entries that
// share a band's leading value with it — the buffer's analogue of a forest
// probe, in the same ascending order a linear scan would report.
//
// # Out-of-core segments
//
// With Options.DataDir set, every sealed segment is spilled to its own
// segment file (see segio.go for the layout): seal and merge write the file
// with an atomic temp+fsync+rename before publishing the segment, and Save
// writes a manifest that references the files instead of embedding the
// segment bytes. With Options.Mmap additionally set, segments are served
// from read-only memory-mapped views of those files: a boot from a manifest
// eagerly reads only each file's header and META section (the record catalog
// and planner metadata) while the signature stores and tree columns stay on
// disk until a probe faults them in — the corpus no longer needs to fit in
// RAM, and cold boot cost is proportional to metadata, not data.
//
// Mapped memory makes object lifetime a correctness matter (touching an
// unmapped page faults), so snapshots and segments are reference counted:
// queries pin the snapshot they read, and a retired segment unmaps only
// after the last reader drops the last snapshot referencing it. Segment
// files are garbage collected against the manifest: files never referenced
// by a manifest are deleted the moment their segment is retired, files a
// manifest references outlive retirement until CollectGarbage runs after
// the next manifest is durable, and boot sweeps files the loaded manifest
// does not reference. Every crash ordering therefore leaves a loadable
// manifest whose files all exist.
//
// Snapshot persistence is versioned: the current format (v3) references
// spilled segment files from a checksummed manifest (inlining any segment
// without a file); v2 carried the planner metadata inline and v1 predates
// the planner — both still load (see save.go).
package live

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lshensemble/internal/core"
	"lshensemble/internal/minhash"
	"lshensemble/internal/par"
	"lshensemble/internal/segfile"
	"lshensemble/internal/tune"
)

// Options configures a live index. The embedded core.Options (zero values =
// the paper's defaults) shape every sealed segment's build.
type Options struct {
	core.Options

	// SealThreshold is the buffer length that triggers a background seal.
	// Default 4096. Until sealed, buffered entries are answered through the
	// buffer's chained index and scored linearly by top-k, so the threshold
	// bounds that cost per query.
	SealThreshold int

	// MaxSegments is the sealed-segment count above which the compactor
	// merges the two smallest segments. Default 8.
	MaxSegments int

	// ManualCompaction disables the background compactor; sealing and
	// merging then happen only through explicit Flush/Compact calls.
	// Tests and single-shot tools use this to control timing.
	ManualCompaction bool

	// ResultCacheSize bounds the exact-result cache in entries: 0 selects
	// the default (1024), a negative value disables the cache. Cached
	// results are only served against the exact snapshot generation they
	// were computed on, so any Add/Delete/seal/merge invalidates them all.
	ResultCacheSize int

	// DataDir, when non-empty, enables out-of-core sealed segments: every
	// seal and merge spills its segment to a file in this directory
	// (crash-safely: temp + fsync + atomic rename) and Save writes a
	// manifest referencing the files instead of embedding segment bytes.
	// The directory is created if missing and belongs to this index —
	// unreferenced segment files in it are garbage collected.
	DataDir string

	// Mmap serves sealed segments from read-only memory-mapped views of
	// their segment files instead of heap copies: queries run zero-copy over
	// the mapped bytes and a boot from a manifest reads only each file's
	// metadata eagerly. Requires DataDir. On platforms without mmap support
	// the flag is honored with a heap read (identical results, no laziness).
	Mmap bool
}

func (o Options) withDefaults() Options {
	o.Options = o.Options.WithDefaults()
	if o.SealThreshold == 0 {
		o.SealThreshold = 4096
	}
	if o.MaxSegments == 0 {
		o.MaxSegments = 8
	}
	if o.ResultCacheSize == 0 {
		o.ResultCacheSize = defaultResultCacheSize
	}
	return o
}

// newTuner builds the (b, r) optimizer every buffer query shares; its grid
// matches the one the sealed segments' forests use.
func newTuner(opts Options) *tune.Optimizer {
	return tune.NewOptimizer(opts.NumHash/opts.RMax, opts.RMax)
}

// entry is one buffered Add: the record and its mutation sequence number.
type entry struct {
	rec core.Record
	seq uint64
}

// segment is one sealed, immutable slice of the corpus: a frozen core.Index
// plus the per-entry sequence numbers (aligned with the core ids, which
// core.Build assigns in record order) and the planner metadata derived from
// the index (see planner.go). Entries are in ascending seq order.
type segment struct {
	idx  *core.Index
	seqs []uint64
	meta *segMeta

	// refs counts the snapshots listing this segment. The last release
	// closes back (munmap under mmap) and disposes of the file — see
	// segio.go for the lifetime rules.
	refs atomic.Int64

	// back is the segment-file byte region the idx views are built over
	// (nil for heap-built segments).
	back *segfile.Backing

	// finfo is the on-disk identity once spilled (nil until then); set once,
	// read lock-free by Save and Stats.
	finfo atomic.Pointer[segFileInfo]

	// inManifest marks that an encoded manifest references the file, which
	// defers deletion at retirement to CollectGarbage.
	inManifest atomic.Bool

	// resident estimates the heap-resident bytes (for mapped segments, only
	// the eagerly decoded metadata).
	resident int64

	// clear holds the entries' cleared-at slots (see buffer.go).
	clear clearSlots
}

func (s *segment) minSeq() uint64 { return s.seqs[0] }

// snapshot is one published, immutable state of the index. Everything
// reachable from a snapshot is frozen: writers and the compactor publish
// changes as new snapshots.
type snapshot struct {
	segs  []*segment // ordered by minSeq
	buf   []entry    // unsealed adds, ascending seq; a written prefix of arena.ents
	arena *bufArena  // the buffer's backing array, slots and index; nil when never used

	// seq is the last mutation sequence number this snapshot publishes: an
	// entry is alive in it iff its cleared-at slot is 0 or > seq.
	seq uint64
	// cleared counts the entries in segs and buf cleared at or before seq —
	// the pending deletes and replacements not yet compacted away.
	cleared int

	// bufMax is the largest size among buffered entries — the buffer's
	// partition upper bound for threshold conversion. It may exceed the
	// largest *live* buffered size when the max entry is cleared; a too
	// large bound is merely conservative (Eq. 7 never loses candidates).
	bufMax int

	// gen increments on EVERY publish (Add, Delete, seal, merge): it keys
	// the result cache, so a cached result is served only against the exact
	// state it was computed on.
	gen uint64

	// topkOrder holds segment indices sorted by meta.maxBound descending —
	// the visit order QueryTopK uses for early termination. Recomputed only
	// when the segment set changes; Add/Delete publishes share the previous
	// slice.
	topkOrder []int

	// refs and dead manage the snapshot's lifetime (segio.go): the current
	// pointer holds one reference, each in-flight reader one more, and the
	// exactly-once teardown releases the segments.
	refs atomic.Int64
	dead atomic.Bool
}

// successor stamps next as the publication following cur: the generation
// advances and the top-k visit order is recomputed when the segment set
// changed, inherited otherwise. Callers must hold x.mu so generations are
// strictly monotonic.
func successor(next, cur *snapshot, segsChanged bool) *snapshot {
	next.gen = cur.gen + 1
	if segsChanged {
		next.topkOrder = topkSegOrder(next.segs)
	} else {
		next.topkOrder = cur.topkOrder
	}
	return next
}

// Index is a mutable, always-queryable LSH Ensemble. Queries are lock-free
// against writers and the compactor; Add/Delete are safe for concurrent use
// with each other and with queries. See the package comment for the model.
type Index struct {
	opts  Options
	tuner *tune.Optimizer // shared with buffer queries; safe for concurrent use

	snap atomic.Pointer[snapshot]

	// mu serializes writers: Add, Delete, and every snapshot publish.
	// Readers never take it.
	mu     sync.Mutex
	seq    uint64            // last assigned mutation sequence number
	keySeq map[string]uint64 // live key → seq of its current entry

	// compactMu serializes compaction work (the background goroutine, Flush,
	// Compact): at most one segment build is in flight at a time.
	compactMu sync.Mutex

	// publishHook, when set by a test, runs in seal and mergeSegments
	// between the off-lock build and the publish, so writes can race a
	// compaction deterministically.
	publishHook func()

	domains atomic.Int64  // live domain count (= len(keySeq), readable lock-free)
	seals   atomic.Uint64 // completed seal operations
	merges  atomic.Uint64 // completed merge operations

	// Out-of-core state (segio.go). saveMu serializes Save's spill+encode
	// pass; retMu guards retired, the manifest-referenced files awaiting
	// CollectGarbage; nextSegID names spilled files; spillErrors counts
	// spills that failed (the segment then stays heap-resident).
	saveMu      sync.Mutex
	retMu       sync.Mutex
	retired     []string
	nextSegID   atomic.Uint64
	spillErrors atomic.Uint64

	// Result cache (planner.go): set-associative exact-result slots, nil
	// when disabled. rcMask selects the set; rcClock stamps approximate LRU.
	rc      []atomic.Pointer[resultEntry]
	rcMask  uint64
	rcClock atomic.Uint64

	// Planner observability, surfaced through Stats.
	segProbed      atomic.Uint64 // segments actually probed by queries
	segRangePruned atomic.Uint64 // segments skipped: every partition ruled out by size
	segBloomPruned atomic.Uint64 // segments skipped: no leading value can collide
	resHits        atomic.Uint64
	resMisses      atomic.Uint64
	topkEarlyExits atomic.Uint64 // QueryTopK calls that stopped before the last segment
	bufScans       atomic.Uint64 // buffer index walks actually performed

	scratch sync.Pool // *queryScratch

	// observer holds an observerBox with the installed latency Observer
	// (SetObserver); loaded lock-free once per query.
	observer atomic.Value

	nudge     chan struct{}
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// queryScratch is the pooled per-query working memory of the live fan-out:
// reusable buffers for the per-segment candidate ids, the buffer hit
// positions and the kept top-k results.
type queryScratch struct {
	ids  []uint32
	hits []uint32
	top  []core.TopKResult
}

// QueryKind discriminates the query entry points for Observer callbacks.
type QueryKind uint8

const (
	// KindQuery is a single containment query (Query and friends).
	KindQuery QueryKind = iota
	// KindTopK is a ranked query (QueryTopK and friends).
	KindTopK
	// KindBatch is one whole batch dispatch (QueryBatch and friends); the
	// observed duration covers the entire batch, not one row.
	KindBatch
)

// String names the kind for metric labels.
func (k QueryKind) String() string {
	switch k {
	case KindQuery:
		return "query"
	case KindTopK:
		return "topk"
	default:
		return "batch"
	}
}

// Observer receives one callback per query with its measured wall-clock
// latency. Implementations must be safe for concurrent use and should be
// allocation-free (the callback sits on the index's allocation-free query
// path); internal/obs histograms qualify. Result-cache hits are observed
// too — fast answers are part of the latency distribution.
type Observer interface {
	ObserveQuery(kind QueryKind, d time.Duration)
}

// SetObserver installs (or with nil, removes) the latency observer. Safe
// to call at any time, including while queries are in flight.
func (x *Index) SetObserver(o Observer) {
	x.observer.Store(observerBox{o})
}

// observerBox wraps the interface so atomic.Value always stores one
// concrete type (a nil interface cannot be stored directly).
type observerBox struct{ o Observer }

func (x *Index) getObserver() Observer {
	if v := x.observer.Load(); v != nil {
		return v.(observerBox).o
	}
	return nil
}

// QueryTrace, when attached to a query's context via WithQueryTrace,
// records what the planner did for that one query — the per-request view
// of the aggregate Stats.Planner counters. The serving layer uses it to
// dump a planner breakdown into the slow-query log.
//
// Every context-taking query records the snapshot shape (Segments,
// Buffered); only the threshold path (QueryContext/QueryAppendContext)
// records the planner decisions. Top-k has no per-segment plan, and the
// rows of a batch run concurrently, so they would race on one trace.
type QueryTrace struct {
	// ResultCacheHit reports the query was answered from the result cache
	// without touching a segment.
	ResultCacheHit bool
	// Segments and Buffered describe the snapshot the query ran against.
	Segments int
	Buffered int
	// SegmentsProbed / SegmentsRangePruned / SegmentsBloomPruned partition
	// the per-segment planner decisions for this query.
	SegmentsProbed      int
	SegmentsRangePruned int
	SegmentsBloomPruned int
	// BufferScanned reports whether the unsealed buffer's index was walked
	// (it is skipped when empty or ruled out by size); BufferCandidates is
	// how many buffered entries the walk verified with the band test.
	BufferScanned    bool
	BufferCandidates int
}

// traceCtxKey carries a *QueryTrace in a context.
type traceCtxKey struct{}

// WithQueryTrace returns ctx carrying t; the next query run under the
// returned context fills it in (see QueryTrace for what each shape records).
func WithQueryTrace(ctx context.Context, t *QueryTrace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, t)
}

func queryTraceFrom(ctx context.Context) *QueryTrace {
	t, _ := ctx.Value(traceCtxKey{}).(*QueryTrace)
	return t
}

// New constructs an empty live index and, unless opts.ManualCompaction is
// set, starts its background compactor. Close releases the compactor.
func New(opts Options) (*Index, error) {
	return Build(nil, opts)
}

// Build constructs a live index whose initial corpus is the given records,
// sealed into a single segment (records sharing a key collapse to the last
// occurrence, matching Add-upsert semantics). Unless opts.ManualCompaction
// is set the background compactor is started; Close releases it.
func Build(records []core.Record, opts Options) (*Index, error) {
	opts = opts.withDefaults()
	if err := opts.Options.Validate(); err != nil {
		return nil, err
	}
	if opts.Mmap && opts.DataDir == "" {
		return nil, fmt.Errorf("live: Options.Mmap requires Options.DataDir")
	}
	x := &Index{
		opts:   opts,
		tuner:  newTuner(opts),
		keySeq: make(map[string]uint64, len(records)),
		nudge:  make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if opts.ResultCacheSize > 0 {
		x.rc, x.rcMask = newResultCache(opts.ResultCacheSize)
	}
	if opts.DataDir != "" {
		if err := x.initDataDir(); err != nil {
			return nil, err
		}
	}
	sn := &snapshot{}
	if len(records) > 0 {
		for _, r := range records {
			if err := x.validateRecord(r); err != nil {
				return nil, err
			}
		}
		// Upsert semantics: the last record of each key wins, earlier ones
		// are dropped before the build (nothing to clear — they never
		// become visible).
		last := make(map[string]int, len(records))
		for i, r := range records {
			last[r.Key] = i
		}
		recs := make([]core.Record, 0, len(last))
		seqs := make([]uint64, 0, len(last))
		for i, r := range records {
			if last[r.Key] != i {
				continue
			}
			seq := uint64(i + 1)
			recs = append(recs, r)
			seqs = append(seqs, seq)
			x.keySeq[r.Key] = seq
		}
		idx, err := core.Build(recs, opts.Options)
		if err != nil {
			return nil, err
		}
		seg := &segment{idx: idx, seqs: seqs, meta: buildSegMeta(idx)}
		seg.resident = heapSegmentResident(idx, seg.meta)
		sn.segs = []*segment{x.persistSegment(seg)}
		x.seq = uint64(len(records))
		sn.seq = x.seq
		x.domains.Store(int64(len(recs)))
	}
	x.publishInitial(sn)
	if !opts.ManualCompaction {
		go x.compactor()
	} else {
		close(x.done)
	}
	return x, nil
}

func (x *Index) validateRecord(r core.Record) error {
	if r.Size <= 0 {
		return fmt.Errorf("live: record %q has non-positive size %d", r.Key, r.Size)
	}
	if len(r.Sig) < x.opts.NumHash {
		return fmt.Errorf("live: record %q signature length %d < NumHash %d",
			r.Key, len(r.Sig), x.opts.NumHash)
	}
	return nil
}

// Options returns the effective options.
func (x *Index) Options() Options { return x.opts }

// Len returns the number of live domains (cleared entries excluded).
func (x *Index) Len() int { return int(x.domains.Load()) }

// Add inserts or replaces a domain. A record whose key is already indexed
// supersedes the old entry (upsert): readers see either the old or the new
// version, never both. The signature is copied, so the caller keeps
// ownership of r.Sig. Add never blocks queries; concurrent Adds serialize
// on an internal mutex. It reports whether an existing entry was replaced.
func (x *Index) Add(r core.Record) (replaced bool, err error) {
	if err := x.validateRecord(r); err != nil {
		return false, err
	}
	// Decouple from the caller's backing array (and clamp to NumHash, the
	// prefix every probe uses): buffered signatures are read lock-free by
	// queries, so later caller mutation must not be observable.
	r.Sig = append(minhash.Signature(nil), r.Sig[:x.opts.NumHash]...)

	x.mu.Lock()
	x.seq++
	seq := x.seq
	cur := x.snap.Load()
	next := &snapshot{segs: cur.segs, cleared: cur.cleared, bufMax: max(cur.bufMax, r.Size)}
	var old uint64
	if old, replaced = x.keySeq[r.Key]; replaced {
		// The replacing Add clears the older entry before the append below,
		// which may move the buffer to a new arena carrying the slot along.
		next.cleared += x.clearLocked(cur, r.Key, old)
	} else {
		x.domains.Add(1)
	}
	x.keySeq[r.Key] = seq
	next.arena, next.buf = x.appendBuf(cur, entry{rec: r, seq: seq})
	prev := x.publishLocked(next, cur, false)
	full := len(next.buf) >= x.opts.SealThreshold
	x.mu.Unlock()
	x.releaseSnap(prev)

	if full {
		x.kick()
	}
	return replaced, nil
}

// Delete removes a domain by key. It reports whether the key was indexed.
// The entry is cleared immediately (readers loading later snapshots no
// longer see it) and physically dropped by the next compaction that touches
// its segment.
func (x *Index) Delete(key string) bool {
	x.mu.Lock()
	seq, ok := x.keySeq[key]
	if !ok {
		x.mu.Unlock()
		return false
	}
	x.seq++
	delete(x.keySeq, key)
	x.domains.Add(-1)
	cur := x.snap.Load()
	next := &snapshot{segs: cur.segs, buf: cur.buf, arena: cur.arena, cleared: cur.cleared + x.clearLocked(cur, key, seq), bufMax: cur.bufMax}
	old := x.publishLocked(next, cur, false)
	x.mu.Unlock()
	x.releaseSnap(old)
	return true
}

// clearLocked stores x.seq in the cleared-at slot of key's entry with
// sequence number seq, wherever sn holds it, and reports how many entries it
// cleared (0 only when a loaded snapshot broke the seq order). The
// caller holds x.mu.
func (x *Index) clearLocked(sn *snapshot, key string, seq uint64) int {
	if i, ok := slices.BinarySearchFunc(sn.buf, seq, func(e entry, s uint64) int { return cmp.Compare(e.seq, s) }); ok && sn.buf[i].rec.Key == key {
		sn.arena.clear.set(i, x.seq, len(sn.arena.ents))
		return 1
	}
	for _, seg := range sn.segs {
		if i, ok := slices.BinarySearch(seg.seqs, seq); ok && seg.idx.Key(uint32(i)) == key {
			seg.clear.set(i, x.seq, len(seg.seqs))
			return 1
		}
	}
	return 0
}

func (x *Index) acquireScratch() *queryScratch {
	s, _ := x.scratch.Get().(*queryScratch)
	if s == nil {
		s = &queryScratch{}
	}
	return s
}

func (x *Index) releaseScratch(s *queryScratch) { x.scratch.Put(s) }

// pinned is what the shared entry stage hands a query body: the snapshot
// it pinned, the context's trace and the Observer clock.
type pinned struct {
	sn    *snapshot
	tr    *QueryTrace
	o     Observer
	start time.Time
}

// begin is the entry stage every query shape shares: it starts the Observer
// clock, pins the current snapshot (a concurrent seal or merge may retire —
// and under mmap, unmap — segments the query is still probing) and records
// the snapshot's shape in the context's trace. end releases the pin and
// reports the latency under kind.
func (x *Index) begin(ctx context.Context) pinned {
	p := pinned{o: x.getObserver()}
	if p.o != nil {
		p.start = time.Now()
	}
	p.sn = x.acquireSnap()
	if p.tr = queryTraceFrom(ctx); p.tr != nil {
		p.tr.Segments = len(p.sn.segs)
		p.tr.Buffered = len(p.sn.buf)
	}
	return p
}

func (x *Index) end(p pinned, kind QueryKind) {
	x.releaseSnap(p.sn)
	if p.o != nil {
		p.o.ObserveQuery(kind, time.Since(p.start))
	}
}

// checkSig rejects a query signature shorter than NumHash, the prefix every
// probe and every stored signature uses, with core.ErrShortSignature.
func (x *Index) checkSig(sig minhash.Signature) error {
	if len(sig) < x.opts.NumHash {
		return core.ErrShortSignature
	}
	return nil
}

// clampSig trims a query signature to NumHash, the prefix every probe and
// every stored signature uses.
func (x *Index) clampSig(sig minhash.Signature) minhash.Signature {
	if len(sig) > x.opts.NumHash {
		return sig[:x.opts.NumHash]
	}
	return sig
}

// Query returns the keys of all candidate domains for the query signature
// at containment threshold tStar (see core.Index.QueryIDs for parameter
// semantics). It is lock-free against Add, Delete and the compactor, and
// answers from a consistent point-in-time snapshot. Each live key appears
// at most once.
func (x *Index) Query(sig minhash.Signature, querySize int, tStar float64) []string {
	return x.QueryAppend(nil, sig, querySize, tStar)
}

// QueryAppend is Query appending into dst (which may be nil). A serving
// loop reusing dst runs allocation-free in steady state, matching the
// immutable index's QueryIDsAppend path: both the result-cache hit path and
// the planned fan-out (once the tuners have seen the query's shape) append
// without allocating.
func (x *Index) QueryAppend(dst []string, sig minhash.Signature, querySize int, tStar float64) []string {
	dst, _ = x.QueryAppendContext(context.Background(), dst, sig, querySize, tStar)
	return dst
}

// QueryContext is Query under a context: the fan-out checks ctx between
// segments (and before and periodically inside the buffer walk), so a canceled request
// stops probing instead of running the query to completion. On cancellation
// it returns (nil, ctx.Err()); the partially collected candidates are
// discarded, never cached. A signature shorter than NumHash returns
// core.ErrShortSignature.
func (x *Index) QueryContext(ctx context.Context, sig minhash.Signature, querySize int, tStar float64) ([]string, error) {
	return x.QueryAppendContext(ctx, nil, sig, querySize, tStar)
}

// QueryAppendContext is QueryAppend under a context — see QueryContext for
// the cancellation semantics. On cancellation dst is returned grown by an
// unspecified prefix of the answer alongside ctx.Err().
func (x *Index) QueryAppendContext(ctx context.Context, dst []string, sig minhash.Signature, querySize int, tStar float64) ([]string, error) {
	if err := x.checkSig(sig); err != nil {
		return dst, err
	}
	p := x.begin(ctx)
	s := x.acquireScratch()
	dst, err := x.queryPinned(ctx, dst, s, p.sn, sig, querySize, tStar, p.tr)
	x.releaseScratch(s)
	x.end(p, KindQuery)
	return dst, err
}

// queryPinned is the one threshold-query body, shared by the single and
// batch shapes: it normalizes the query, answers from the result cache when
// that holds this exact query against sn, and otherwise runs the planned
// fan-out and caches its complete answer. s is the caller's scratch; tr,
// when non-nil, receives the per-query planner breakdown.
func (x *Index) queryPinned(ctx context.Context, dst []string, s *queryScratch, sn *snapshot, sig minhash.Signature, querySize int, tStar float64, tr *QueryTrace) ([]string, error) {
	if querySize <= 0 {
		return dst, nil
	}
	sig = x.clampSig(sig)
	tStar = clampThreshold(tStar)
	var h uint64
	tBits := math.Float64bits(tStar)
	if x.rc != nil {
		h = queryHash(sig, querySize, tBits)
		if e := x.lookupResult(sn, sig, querySize, tBits, h); e != nil {
			x.resHits.Add(1)
			if tr != nil {
				tr.ResultCacheHit = true
			}
			return append(dst, e.keys...), nil
		}
		x.resMisses.Add(1)
	}
	base := len(dst)
	dst, err := x.querySnapshot(ctx, dst, s, sn, sig, querySize, tStar, tr)
	// A canceled fan-out collected only a prefix of the answer; caching it
	// would serve the truncation to later, uncanceled queries.
	if err == nil && x.rc != nil {
		x.storeResult(sn, sig, querySize, tBits, h, dst[base:])
	}
	return dst, err
}

func clampThreshold(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

// querySnapshot runs the planned fan-out over one snapshot: probe, through
// core's own query path, only the segments the range and Bloom pre-tests
// cannot rule out, then walk the buffer. sig and tStar must already be
// clamped. ctx is checked once per segment and periodically inside the
// buffer walk; on cancellation dst is returned as collected so far
// alongside ctx.Err(). tr, when non-nil, receives the per-query planner
// breakdown (mirroring the aggregate counters).
func (x *Index) querySnapshot(ctx context.Context, dst []string, s *queryScratch, sn *snapshot, sig minhash.Signature, querySize int, tStar float64, tr *QueryTrace) ([]string, error) {
	q := float64(querySize)
	for _, seg := range sn.segs {
		if err := ctx.Err(); err != nil {
			return dst, err
		}
		// Every partition is skipped (core's u/q < t* test) exactly when the
		// largest non-empty partition bound is.
		if tStar > 0 && float64(seg.meta.maxBound)/q < tStar {
			x.segRangePruned.Add(1)
			if tr != nil {
				tr.SegmentsRangePruned++
			}
			continue
		}
		if !seg.meta.mayCollide(sig, x.opts.RMax, x.opts.Sketch.Mask()) {
			x.segBloomPruned.Add(1)
			if tr != nil {
				tr.SegmentsBloomPruned++
			}
			continue
		}
		x.segProbed.Add(1)
		if tr != nil {
			tr.SegmentsProbed++
		}
		// sig was length-checked at entry, so the error path is unreachable.
		s.ids, _ = seg.idx.QueryIDsAppend(s.ids[:0], sig, querySize, tStar)
		dst = appendLiveKeys(dst, sn, seg, s.ids)
	}
	return x.appendBufferMatches(ctx, dst, s, sn, sig, querySize, tStar, tr)
}

// appendLiveKeys appends the keys of the candidate ids that are alive in
// the snapshot.
func appendLiveKeys(dst []string, sn *snapshot, seg *segment, ids []uint32) []string {
	sl := sn.liveSlots(&seg.clear)
	for _, id := range ids {
		if !sn.hides(sl, int(id)) {
			dst = append(dst, seg.idx.Key(id))
		}
	}
	return dst
}

// appendBufferMatches answers the unsealed buffer as one more partition
// whose upper size bound is the largest buffered size: the containment
// threshold converts to a Jaccard threshold exactly as a sealed partition
// would convert it (Eq. 7, conservative), the tuner picks one (b, r) for the
// whole buffer, and an entry matches if any of the b bands of r hash values
// collide — the LSH forest's collision condition, found through the
// buffer's chained index instead of a forest. Matches are appended in
// buffer order. tStar must already be clamped.
func (x *Index) appendBufferMatches(ctx context.Context, dst []string, s *queryScratch, sn *snapshot, sig minhash.Signature, querySize int, tStar float64, tr *QueryTrace) ([]string, error) {
	if len(sn.buf) == 0 {
		return dst, nil
	}
	q := float64(querySize)
	u := float64(sn.bufMax)
	// Mirrors the partition skip in core: containment ≤ x/q ≤ u/q.
	if tStar > 0 && u/q < tStar {
		return dst, nil
	}
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	x.bufScans.Add(1)
	params := x.tuner.Optimize(u, q, tStar)
	hits, verified, err := x.appendBufferHits(ctx, s.hits[:0], sn, sig, params.B, params.R)
	s.hits = hits
	if tr != nil {
		tr.BufferScanned = true
		tr.BufferCandidates = verified
	}
	if err != nil {
		return dst, err
	}
	slices.Sort(hits)
	sl := sn.liveSlots(&sn.arena.clear)
	for _, p := range hits {
		if !sn.hides(sl, int(p)) {
			dst = append(dst, sn.buf[p].rec.Key)
		}
	}
	return dst, nil
}

// bandsCollide reports whether any of the first b bands (each rMax wide,
// compared at depth r) of the two signatures agree — the LSH forest's
// collision condition for one entry. Values are compared under the sketch
// backend's truncation mask, so a buffered entry collides exactly when the
// sealed forest would have (the buffer holds full-width signatures, the
// sealed store truncated ones).
func bandsCollide(a, b minhash.Signature, bands, r, rMax int, mask uint64) bool {
	for t := 0; t < bands; t++ {
		off := t * rMax
		match := true
		for k := off; k < off+r; k++ {
			if a[k]&mask != b[k]&mask {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// sketchContainment scores a full-width buffered signature against the query
// the way the sealed store would: slot agreement is counted under the
// backend's truncation mask and converted through its bias-corrected
// estimator. Under Minwise64 the result is float-identical to
// a.Containment(b, q, x), so buffer and segment scores merge consistently
// for every backend.
func sketchContainment(sb core.SketchBackend, a, b minhash.Signature, q, x float64) float64 {
	mask := sb.Mask()
	eq := 0
	for k := range a {
		if a[k]&mask == b[k]&mask {
			eq++
		}
	}
	return sb.ContainmentFromMatch(eq, len(a), q, x)
}

// QueryBatch answers every query of the batch (the daemon's high-throughput
// path): row i is exactly what Query would answer for queries[i], all rows
// against one snapshot. Rows are in query order. Like Query it is lock-free
// against writers and the compactor.
func (x *Index) QueryBatch(queries []core.BatchQuery, workers int) [][]string {
	rows, _ := x.QueryBatchContext(context.Background(), queries, workers)
	return rows
}

// QueryBatchContext is QueryBatch under a context. The rows fan out over
// min(workers, GOMAXPROCS) goroutines (0 or a negative value selects
// GOMAXPROCS), each row running the single-query body against one pinned
// snapshot — so result-cache hits, pruning and the buffer walk behave per
// row exactly as in QueryAppendContext. ctx is checked before every row and
// inside it, so a disconnected client or expired deadline stops the batch
// instead of burning CPU to completion. On cancellation it returns
// (nil, ctx.Err()); a canceled row is never cached. Every row's signature
// is checked before any row runs: a short one fails the whole batch with
// core.ErrShortSignature. One KindBatch observation covers the whole batch.
func (x *Index) QueryBatchContext(ctx context.Context, queries []core.BatchQuery, workers int) ([][]string, error) {
	for i := range queries {
		if err := x.checkSig(queries[i].Sig); err != nil {
			return nil, fmt.Errorf("live: batch query %d: %w", i, err)
		}
	}
	p := x.begin(ctx)
	defer x.end(p, KindBatch)
	rows := make([][]string, len(queries))
	scratch := make([]*queryScratch, par.Clamp(batchWorkers(workers), len(queries)))
	par.Drain(len(queries), len(scratch), func(w, i int) {
		if ctx.Err() != nil {
			return
		}
		if scratch[w] == nil {
			scratch[w] = x.acquireScratch()
		}
		q := &queries[i]
		// Each row gets a nil trace: rows run concurrently, so one shared
		// trace would race.
		rows[i], _ = x.queryPinned(ctx, nil, scratch[w], p.sn, q.Sig, q.Size, q.Threshold, nil)
	})
	for _, s := range scratch {
		if s != nil {
			x.releaseScratch(s)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rows, nil
}

// batchWorkers bounds a batch's fan-out. The worker count can arrive off
// the wire (serve.BatchRequest.Workers), so it is capped at GOMAXPROCS —
// goroutines beyond the procs add scheduling, not throughput — and 0 or a
// negative value selects GOMAXPROCS.
func batchWorkers(workers int) int {
	if procs := runtime.GOMAXPROCS(0); workers <= 0 || workers > procs {
		return procs
	}
	return workers
}

// QueryTopK returns (up to) k live domains ranked by estimated containment
// of the query, merged across every sealed segment and the buffer (see
// core.Index.QueryTopK for the estimation semantics). Segments are visited
// in descending order of their largest partition bound: once k collected
// results all score strictly above the containment cap of every remaining
// segment, those segments are skipped — they provably cannot alter the
// top k. Like Query it is lock-free against writers and the compactor.
func (x *Index) QueryTopK(sig minhash.Signature, querySize, k int) []core.TopKResult {
	results, _ := x.QueryTopKContext(context.Background(), sig, querySize, k)
	return results
}

// QueryTopKContext is QueryTopK under a context: ctx is checked before each
// segment visit, before the buffer pass and periodically inside it, so a
// canceled request stops ranking instead of walking the rest of the
// snapshot. On cancellation it returns (nil, ctx.Err()). A
// signature shorter than NumHash returns core.ErrShortSignature.
func (x *Index) QueryTopKContext(ctx context.Context, sig minhash.Signature, querySize, k int) ([]core.TopKResult, error) {
	if err := x.checkSig(sig); err != nil {
		return nil, err
	}
	p := x.begin(ctx)
	defer x.end(p, KindTopK)
	if k <= 0 || querySize <= 0 {
		return nil, nil
	}
	sn := p.sn
	sig = x.clampSig(sig)
	q := float64(querySize)
	// Cleared candidates are filtered after collection, so ask each segment
	// for enough ids to survive the worst-case filtering.
	need := k + sn.cleared
	s := x.acquireScratch()
	defer x.releaseScratch(s)
	best := s.top[:0]
	defer func() { s.top = best }()
	// full reports whether k results are kept and the worst of them beats
	// every estimate an entry of size ≤ xMax can reach. Strict >: an entry
	// whose cap ties the k-th score could still win its tie-break.
	full := func(xMax int) bool {
		return len(best) == k && best[k-1].EstContainment > containmentBound(xMax, q)
	}
	terminated := false
	for _, si := range sn.topkOrder {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seg := sn.segs[si]
		if full(seg.meta.maxBound) {
			terminated = true
			break
		}
		// sig was length-checked at entry, so the error path is unreachable.
		s.ids, _ = seg.idx.QueryTopKIDs(s.ids[:0], sig, querySize, need)
		sl := sn.liveSlots(&seg.clear)
		for _, id := range s.ids {
			if !sn.hides(sl, int(id)) {
				best = keepBest(best, k, core.TopKResult{Key: seg.idx.Key(id), EstContainment: seg.idx.EstContainment(id, sig, querySize)})
			}
		}
	}
	if len(sn.buf) > 0 {
		if full(sn.bufMax) {
			terminated = true
		} else {
			sl := sn.liveSlots(&sn.arena.clear)
			for i := range sn.buf {
				// Same stride as the threshold walk; i = 0 checks before the
				// pass, which is all an index with no sealed segment checks.
				if i&1023 == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				if sn.hides(sl, i) {
					continue
				}
				e := &sn.buf[i]
				est := sketchContainment(x.opts.Sketch, sig, e.rec.Sig, q, float64(e.rec.Size))
				best = keepBest(best, k, core.TopKResult{Key: e.rec.Key, EstContainment: est})
			}
		}
	}
	if terminated {
		x.topkEarlyExits.Add(1)
	}
	return append([]core.TopKResult(nil), best...), nil
}

// keepBest inserts r into best — at most k results, sorted best-first under
// core.CompareTopK — dropping the worst when full. Keys are unique within a
// snapshot, so the order is total and the kept set is exactly the top k.
func keepBest(best []core.TopKResult, k int, r core.TopKResult) []core.TopKResult {
	if len(best) == k && core.CompareTopK(r, best[k-1]) > 0 {
		return best
	}
	i, _ := slices.BinarySearchFunc(best, r, core.CompareTopK)
	if len(best) < k {
		best = append(best, r)
	}
	copy(best[i+1:], best[i:len(best)-1])
	best[i] = r
	return best
}

// Stats is a point-in-time summary of the index's shape.
type Stats struct {
	// Domains is the number of live domains (cleared entries excluded).
	Domains int `json:"domains"`
	// Segments holds the entry count of every sealed segment (including
	// entries already cleared but not yet compacted away).
	Segments []int `json:"segments"`
	// Buffered is the unsealed buffer length (including cleared entries).
	Buffered int `json:"buffered"`
	// Tombstones is the number of cleared entries still held (deletes and
	// replacements not yet compacted away).
	Tombstones int `json:"tombstones"`
	// Seq is the highest mutation sequence number visible to readers.
	Seq uint64 `json:"seq"`
	// Seals and Merges count completed compactor operations.
	Seals  uint64 `json:"seals"`
	Merges uint64 `json:"merges"`
	// Sketch names the signature backend sealed segments store with
	// (core.SketchBackend): "minwise64" unless configured otherwise.
	Sketch string `json:"sketch"`
	// SignatureBytes is the total stored signature footprint: the sealed
	// segments' truncated stores plus the unsealed buffer's full-width
	// signatures. The compact sketch backends shrink the sealed share.
	SignatureBytes int64 `json:"signature_bytes"`
	// SpillErrors counts segment spills that failed; the affected segments
	// keep serving from the heap.
	SpillErrors uint64 `json:"spill_errors,omitempty"`
	// SegmentDetail describes every sealed segment's planner metadata, in
	// the same order as Segments.
	SegmentDetail []SegmentStats `json:"segment_detail,omitempty"`
	// Planner aggregates the query planner's pruning and cache counters
	// since the index was created.
	Planner PlannerStats `json:"planner"`
}

// SegmentStats describes one sealed segment.
type SegmentStats struct {
	// Entries is the physical entry count (cleared entries included).
	Entries int `json:"entries"`
	// MinSize and MaxSize are the smallest and largest domain cardinality.
	MinSize int `json:"min_size"`
	MaxSize int `json:"max_size"`
	// MaxBound is the largest partition upper bound — the size the planner
	// prunes and orders by.
	MaxBound int `json:"max_bound"`
	// BloomBytes is the footprint of the segment's planner Bloom filters.
	BloomBytes int `json:"bloom_bytes"`
	// SignatureBytes is the byte size of the segment's signature store at
	// the sketch backend's width (entries × NumHash × width).
	SignatureBytes int `json:"signature_bytes"`
	// Backing reports where the segment's probe data lives: "heap" or
	// "mmap" (a memory-mapped segment file).
	Backing string `json:"backing"`
	// FileBytes is the segment's on-disk file size; 0 until spilled.
	FileBytes int64 `json:"file_bytes"`
	// ResidentBytes estimates the heap-resident footprint. For mapped
	// segments only the eagerly decoded metadata counts — the signature
	// store and tree columns page in and out on demand.
	ResidentBytes int64 `json:"resident_bytes"`
}

// PlannerStats aggregates the planner's lifetime counters. Segment
// decisions count once per (query, segment) pair.
type PlannerStats struct {
	// SegmentsProbed / SegmentsRangePruned / SegmentsBloomPruned partition
	// the planner's per-segment decisions: probed, skipped because every
	// partition was ruled out by size, or skipped by the collision Bloom
	// pre-test.
	SegmentsProbed      uint64 `json:"segments_probed"`
	SegmentsRangePruned uint64 `json:"segments_range_pruned"`
	SegmentsBloomPruned uint64 `json:"segments_bloom_pruned"`
	// Deprecated: always zero; the plan cache was removed.
	PlanHits uint64 `json:"plan_hits,omitempty"`
	// Deprecated: always zero; the plan cache was removed.
	PlanMisses uint64 `json:"plan_misses,omitempty"`
	// ResultHits / ResultMisses count result-cache lookups (zero when the
	// cache is disabled).
	ResultHits   uint64 `json:"result_hits"`
	ResultMisses uint64 `json:"result_misses"`
	// TopKEarlyExits counts QueryTopK calls that stopped before visiting
	// every segment.
	TopKEarlyExits uint64 `json:"topk_early_exits"`
	// BufferScans counts walks of the unsealed buffer's index (queries whose
	// buffer was empty or ruled out by size skip it).
	BufferScans uint64 `json:"buffer_scans"`
}

// Stats returns a consistent snapshot summary without blocking writers.
func (x *Index) Stats() Stats {
	sn := x.acquireSnap()
	defer x.releaseSnap(sn)
	st := Stats{
		Domains:     x.Len(),
		Segments:    make([]int, len(sn.segs)),
		Buffered:    len(sn.buf),
		Tombstones:  sn.cleared,
		Seq:         sn.seq,
		Seals:       x.seals.Load(),
		Merges:      x.merges.Load(),
		Sketch:      x.opts.Sketch.String(),
		SpillErrors: x.spillErrors.Load(),
		Planner: PlannerStats{
			SegmentsProbed:      x.segProbed.Load(),
			SegmentsRangePruned: x.segRangePruned.Load(),
			SegmentsBloomPruned: x.segBloomPruned.Load(),
			ResultHits:          x.resHits.Load(),
			ResultMisses:        x.resMisses.Load(),
			TopKEarlyExits:      x.topkEarlyExits.Load(),
			BufferScans:         x.bufScans.Load(),
		},
	}
	if len(sn.segs) > 0 {
		st.SegmentDetail = make([]SegmentStats, len(sn.segs))
	}
	for i, seg := range sn.segs {
		st.Segments[i] = seg.idx.Len()
		backing := "heap"
		if seg.back != nil && seg.back.Mapped() {
			backing = "mmap"
		}
		var fileBytes int64
		if fi := seg.finfo.Load(); fi != nil {
			fileBytes = fi.size
		}
		sigBytes := seg.idx.SignatureBytes()
		st.SignatureBytes += int64(sigBytes)
		st.SegmentDetail[i] = SegmentStats{
			Entries:        seg.idx.Len(),
			MinSize:        seg.meta.minSize,
			MaxSize:        seg.meta.maxSize,
			MaxBound:       seg.meta.maxBound,
			BloomBytes:     seg.meta.bloomBytes(),
			SignatureBytes: sigBytes,
			Backing:        backing,
			FileBytes:      fileBytes,
			ResidentBytes:  seg.resident,
		}
	}
	// Buffered entries always hold full-width signatures; they truncate at
	// seal time.
	st.SignatureBytes += int64(len(sn.buf)) * int64(x.opts.NumHash) * 8
	return st
}
