package live

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"lshensemble/internal/core"
	"lshensemble/internal/minhash"
	"lshensemble/internal/partition"
	"lshensemble/internal/xrand"
)

// plannerOpts is liveOpts with the planner fully enabled (the default) and
// a result cache large enough that the equivalence tests' repeat rounds
// actually hit it (smaller caches are exercised by the eviction tests).
func plannerOpts() Options {
	o := liveOpts()
	o.ResultCacheSize = 2048
	return o
}

// refQuery is the equivalence tests' independent reference over x's
// current snapshot: every sealed segment probed by core's unplanned
// QueryIDsAppend, the liveness filter, and a linear buffer scan instead of
// the buffer index — no pruning, no result cache.
func refQuery(x *Index, sig minhash.Signature, querySize int, tStar float64) []string {
	if querySize <= 0 {
		return nil
	}
	sig, tStar = x.clampSig(sig), clampThreshold(tStar)
	sn := x.acquireSnap()
	defer x.releaseSnap(sn)
	var out []string
	for _, seg := range sn.segs {
		ids, _ := seg.idx.QueryIDsAppend(nil, sig, querySize, tStar)
		out = appendLiveKeys(out, sn, seg, ids)
	}
	q, u := float64(querySize), float64(sn.bufMax)
	if len(sn.buf) == 0 || tStar > 0 && u/q < tStar {
		return out
	}
	p := x.tuner.Optimize(u, q, tStar)
	sl := sn.liveSlots(&sn.arena.clear)
	for i, e := range sn.buf {
		if !sn.hides(sl, i) && bandsCollide(sig, e.rec.Sig, p.B, p.R, x.opts.RMax, x.opts.Sketch.Mask()) {
			out = append(out, e.rec.Key)
		}
	}
	return out
}

// refTopK is refQuery's top-k counterpart: every segment's ladder
// candidates and every buffered entry are scored and ranked together — no
// visit order, no early exit.
func refTopK(x *Index, sig minhash.Signature, querySize, k int) []core.TopKResult {
	if k <= 0 || querySize <= 0 {
		return nil
	}
	sig = x.clampSig(sig)
	sn := x.acquireSnap()
	defer x.releaseSnap(sn)
	var out []core.TopKResult
	for _, seg := range sn.segs {
		ids, _ := seg.idx.QueryTopKIDs(nil, sig, querySize, k+sn.cleared)
		for _, id := range ids {
			if key := seg.idx.Key(id); !sn.hides(sn.liveSlots(&seg.clear), int(id)) {
				out = append(out, core.TopKResult{Key: key, EstContainment: seg.idx.EstContainment(id, sig, querySize)})
			}
		}
	}
	for i, e := range sn.buf {
		if !sn.hides(sn.liveSlots(&sn.arena.clear), i) {
			est := sketchContainment(x.opts.Sketch, sig, e.rec.Sig, float64(querySize), float64(e.rec.Size))
			out = append(out, core.TopKResult{Key: e.rec.Key, EstContainment: est})
		}
	}
	slices.SortFunc(out, core.CompareTopK)
	return out[:min(k, len(out))]
}

// churn applies the same randomized add/delete/seal/merge schedule to every
// given index so their logical contents stay identical.
func churn(t *testing.T, recs []core.Record, idxs ...*Index) {
	t.Helper()
	apply := func(f func(x *Index)) {
		for _, x := range idxs {
			f(x)
		}
	}
	// Seed a first segment, buffer more, delete a spread, seal, re-add some
	// deleted keys (exercising replace tombstones), and merge.
	apply(func(x *Index) {
		for _, r := range recs[:150] {
			if _, err := x.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		x.Flush()
		for _, r := range recs[150:260] {
			if _, err := x.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		for i := 5; i < 250; i += 11 {
			x.Delete(recs[i].Key)
		}
		x.Flush()
		for _, r := range recs[260:300] {
			if _, err := x.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		for i := 5; i < 120; i += 22 {
			if _, err := x.Add(recs[i]); err != nil { // resurrect some deleted keys
				t.Fatal(err)
			}
		}
		x.Flush()
		for x.mergeIfCrowded() {
		}
	})
}

// TestPlannedEquivalentToUnprunedUnderChurn is the tentpole equivalence
// guarantee: with pruning and the result cache at work, every query returns
// byte-identical results (same keys, same order) to the unplanned
// reference, across a randomized churn schedule, for repeated queries
// (cache hits) included.
func TestPlannedEquivalentToUnprunedUnderChurn(t *testing.T) {
	recs := fixture(t, 300, 7)
	planned, err := New(plannerOpts())
	if err != nil {
		t.Fatal(err)
	}
	churn(t, recs, planned)

	thresholds := []float64{0.0, 0.25, 0.5, 0.75, 0.9, 1.0}
	check := func(round int) {
		for qi := 0; qi < len(recs); qi += 3 {
			r := recs[qi]
			for _, tStar := range thresholds {
				want := refQuery(planned, r.Sig, r.Size, tStar)
				got := planned.Query(r.Sig, r.Size, tStar)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("round %d query %d t*=%.2f: planned %v != unpruned %v",
						round, qi, tStar, got, want)
				}
			}
		}
	}
	check(0)
	check(1) // every repeat is a result-cache hit on the planned index
	st := planned.Stats()
	if st.Planner.ResultHits == 0 {
		t.Fatal("second query round produced no result-cache hits")
	}

	// Compaction invalidates the result cache; equivalence must survive it.
	planned.Compact()
	check(2)
	check(3)
}

// TestBatchPlannedEquivalentToUnpruned runs the same equivalence through
// the batch fan-out, including repeated batches (result-cache hits).
func TestBatchPlannedEquivalentToUnpruned(t *testing.T) {
	recs := fixture(t, 300, 8)
	planned, err := New(plannerOpts())
	if err != nil {
		t.Fatal(err)
	}
	churn(t, recs, planned)

	queries := make([]core.BatchQuery, 0, 120)
	for qi := 0; qi < 340; qi += 3 {
		r := recs[qi%len(recs)]
		queries = append(queries, core.BatchQuery{Sig: r.Sig, Size: r.Size, Threshold: float64(qi%5) * 0.2})
	}
	queries = append(queries, core.BatchQuery{Sig: recs[0].Sig, Size: 0, Threshold: 0.5}) // invalid → nil row
	want := make([][]string, len(queries))
	for i, q := range queries {
		want[i] = refQuery(planned, q.Sig, q.Size, q.Threshold)
	}
	for round := 0; round < 3; round++ {
		got := planned.QueryBatch(queries, 4)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d: batch rows diverge", round)
		}
	}
}

// TestPruningActuallyFires ensures the equivalence above is not vacuous:
// with segments built from disjoint value pools, the Bloom pre-test must
// rule most of them out.
func TestPruningActuallyFires(t *testing.T) {
	opts := plannerOpts()
	opts.ResultCacheSize = -1 // count real fan-outs, not cache hits
	x, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Four segments over disjoint hash-value pools: self-queries from one
	// pool cannot collide in the other three.
	var probes [][]core.Record
	for seg := 0; seg < 4; seg++ {
		recs := synthRecords(60, uint64(seg+1), fmt.Sprintf("p%d", seg), 50, 500)
		for _, r := range recs {
			if _, err := x.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		x.Flush()
		probes = append(probes, recs)
	}
	if n := len(x.Stats().Segments); n != 4 {
		t.Fatalf("expected 4 segments, got %d", n)
	}
	for _, recs := range probes {
		for _, r := range recs[:20] {
			x.Query(r.Sig, r.Size, 0.5)
		}
	}
	st := x.Stats().Planner
	pruned := st.SegmentsBloomPruned + st.SegmentsRangePruned
	if total := pruned + st.SegmentsProbed; total == 0 || pruned*2 < total {
		t.Fatalf("pruning barely fires: probed %d, range-pruned %d, bloom-pruned %d",
			st.SegmentsProbed, st.SegmentsRangePruned, st.SegmentsBloomPruned)
	}
}

// TestRangePruneMatchesPartitionSkips pins the segment range prune to core's
// per-partition skip (u/q < t*): a segment is range-pruned exactly when every
// non-empty partition is skipped, ties t* = u/q included. The partitioner
// leaves headroom above the largest size, as core's boundary stretching on
// Add does, so the prune must read the partition bound, not the largest
// entry size.
func TestRangePruneMatchesPartitionSkips(t *testing.T) {
	const headroom = 37
	opts := plannerOpts()
	opts.Partitioner = func(sizes []int, n int) []partition.Partition {
		parts := partition.EquiDepth(sizes, n)
		parts[len(parts)-1].Upper += headroom
		return parts
	}
	recs := fixture(t, 300, 17)
	x, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	churn(t, recs, x)
	sn := x.acquireSnap()
	defer x.releaseSnap(sn)
	if len(sn.segs) < 2 {
		t.Fatalf("churned fixture left %d segments, want several", len(sn.segs))
	}
	sig := x.clampSig(recs[0].Sig)
	s := x.acquireScratch()
	defer x.releaseScratch(s)
	var pruned, kept int
	for si, seg := range sn.segs {
		if seg.meta.maxBound == seg.meta.maxSize {
			t.Fatalf("segment %d has no headroom above its largest size %d", si, seg.meta.maxSize)
		}
		bounds := seg.idx.PartitionBounds()
		one := &snapshot{segs: []*segment{seg}}
		for _, q := range []int{1, seg.meta.maxBound / 2, seg.meta.maxBound, seg.meta.maxBound + 1, 3 * seg.meta.maxBound} {
			q = max(q, 1)
			ts := []float64{0, 0.5, 1}
			for _, p := range bounds {
				tie := float64(p.Upper) / float64(q)
				ts = append(ts, tie, math.Nextafter(tie, 0), math.Nextafter(tie, 2))
			}
			for _, tStar := range ts {
				if tStar < 0 || tStar > 1 {
					continue
				}
				want := true // every non-empty partition skipped
				for _, p := range bounds {
					if p.Count > 0 && !(float64(p.Upper)/float64(q) < tStar) {
						want = false
					}
				}
				var tr QueryTrace
				if _, err := x.querySnapshot(context.Background(), nil, s, one, sig, q, tStar, &tr); err != nil {
					t.Fatal(err)
				}
				if got := tr.SegmentsRangePruned == 1; got != want {
					t.Fatalf("segment %d (max bound %d, max size %d) q=%d t*=%v: range-pruned %v, want %v",
						si, seg.meta.maxBound, seg.meta.maxSize, q, tStar, got, want)
				}
				if want {
					pruned++
				} else {
					kept++
				}
			}
		}
	}
	if pruned == 0 || kept == 0 {
		t.Fatalf("grid is one-sided: %d pruned, %d kept", pruned, kept)
	}
}

// TestTopKPlannedEquivalentToUnpruned: top-k with early termination must
// match the exhaustive visit, across thresholds of k and churn.
func TestTopKPlannedEquivalentToUnpruned(t *testing.T) {
	recs := fixture(t, 300, 9)
	planned, err := New(plannerOpts())
	if err != nil {
		t.Fatal(err)
	}
	churn(t, recs, planned)
	for qi := 0; qi < len(recs); qi += 7 {
		r := recs[qi]
		for _, k := range []int{1, 3, 10, 50} {
			want := refTopK(planned, r.Sig, r.Size, k)
			got := planned.QueryTopK(r.Sig, r.Size, k)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("query %d k=%d: planned %v != unpruned %v", qi, k, got, want)
			}
		}
	}
}

// TestTopKEarlyTermination ensures the size-descending visit order actually
// short-circuits when segment size ranges are far apart.
func TestTopKEarlyTermination(t *testing.T) {
	opts := plannerOpts()
	x, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	big := synthRecords(80, 7, "big", 2000, 4000)
	small := synthRecords(80, 8, "small", 4, 16)
	for _, r := range big {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	x.Flush()
	for _, r := range small {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	x.Flush()
	// A big self-query scores 1.0 in the big segment (j = 1, x = q); the
	// small segment's cap ((16/2000+1)/2 ≈ 0.5) cannot displace it, so the
	// visit stops after the big segment. Synthetic signatures only collide
	// with themselves, so k = 1 is the largest k the corpus can fill.
	res := x.QueryTopK(big[0].Sig, big[0].Size, 1)
	if len(res) != 1 || res[0].Key != big[0].Key {
		t.Fatalf("self top-k query: %v", res)
	}
	if got := x.Stats().Planner.TopKEarlyExits; got == 0 {
		t.Fatal("top-k did not terminate early despite disjoint size ranges")
	}
}

// TestTopKEarlyExitStillRanksBuffer: an early exit over the sealed segments
// says nothing about the buffer, whose bound is its own largest size. The
// query's exact copy sits in the buffer and must outrank the half-matching
// segment entry that ended the segment visit.
func TestTopKEarlyExitStillRanksBuffer(t *testing.T) {
	x, err := New(plannerOpts())
	if err != nil {
		t.Fatal(err)
	}
	q := synthRecords(1, 9, "q", 3000, 3000)[0]
	half := core.Record{Key: "half", Size: 3000, Sig: slices.Clone(q.Sig)}
	copy(half.Sig[64:], synthRecords(1, 10, "r", 1, 1)[0].Sig[64:])
	for _, batch := range [][]core.Record{{half}, synthRecords(40, 8, "small", 4, 16)} {
		for _, r := range batch {
			if _, err := x.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		x.Flush()
	}
	if _, err := x.Add(q); err != nil {
		t.Fatal(err)
	}
	want := refTopK(x, q.Sig, q.Size, 1)
	got := x.QueryTopK(q.Sig, q.Size, 1)
	if len(want) != 1 || want[0].Key != q.Key || !reflect.DeepEqual(got, want) {
		t.Fatalf("top-1 = %v, want %v (the buffered exact copy)", got, want)
	}
	if x.Stats().Planner.TopKEarlyExits == 0 {
		t.Fatal("segment visit did not exit early; the fixture no longer tests the buffer after an exit")
	}
}

// TestTombstonesDropOnIncrementalMerge (satellite): the exact per-key GC
// now runs on incremental merges, so tombstones whose entries are merged
// away disappear without a full Compact — even when older segments pin the
// global minimum sequence number (the old heuristic's blind spot).
func TestTombstonesDropOnIncrementalMerge(t *testing.T) {
	opts := plannerOpts()
	x, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := fixture(t, 160, 10)
	// Segment 1: old entries that stay alive (they hold the minimum seq).
	for _, r := range recs[:40] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	x.Flush()
	// Segments 2..4: newer entries, many of which we then delete.
	for seg := 0; seg < 3; seg++ {
		for _, r := range recs[40+40*seg : 80+40*seg] {
			if _, err := x.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		x.Flush()
	}
	for _, r := range recs[40:160] {
		x.Delete(r.Key)
	}
	before := x.Stats().Tombstones
	if before == 0 {
		t.Fatal("fixture produced no tombstones")
	}
	// Incremental merges only — no full Compact. The deleted entries live
	// in the merged segments, so their tombstones stop shadowing anything.
	for x.mergeIfCrowded() {
	}
	if x.Stats().Merges == 0 {
		t.Fatal("no merge ran; raise the segment count")
	}
	after := x.Stats().Tombstones
	if after >= before {
		t.Fatalf("tombstones did not drop on incremental merge: %d -> %d", before, after)
	}
}

// TestLoadV1SnapshotRebuildsMetadata (satellite): a version-1 snapshot (no
// planner metadata on the wire) still loads, and the rebuilt metadata
// answers queries identically to the v2 round-trip.
func TestLoadV1SnapshotRebuildsMetadata(t *testing.T) {
	recs := fixture(t, 300, 11)
	x, err := New(plannerOpts())
	if err != nil {
		t.Fatal(err)
	}
	churn(t, recs, x)

	v2 := x.AppendBinary(nil)
	v1 := appendBinaryV1(x)

	fromV2, err := Load(bytes.NewReader(v2), plannerOpts())
	if err != nil {
		t.Fatal(err)
	}
	fromV1, err := Load(bytes.NewReader(v1), plannerOpts())
	if err != nil {
		t.Fatalf("v1 snapshot rejected: %v", err)
	}
	// The rebuilt metadata must be identical to the serialized one: same
	// bounds, same filters. Tombstone map serialization order is not
	// deterministic, so compact both (emptying the tombstones) before the
	// byte comparison — the merged segments and their metadata must agree
	// exactly.
	if len(fromV1.AppendBinary(nil)) != len(fromV2.AppendBinary(nil)) {
		t.Fatal("v1 load + re-save length differs from v2 round-trip")
	}
	fromV1.Compact()
	fromV2.Compact()
	if !bytes.Equal(fromV1.AppendBinary(nil), fromV2.AppendBinary(nil)) {
		t.Fatal("compacted v1 load differs byte-for-byte from compacted v2 load")
	}
	for qi := 0; qi < 200; qi += 9 {
		r := recs[qi]
		if !reflect.DeepEqual(fromV1.Query(r.Sig, r.Size, 0.5), fromV2.Query(r.Sig, r.Size, 0.5)) {
			t.Fatalf("query %d: v1 load and v2 load disagree", qi)
		}
	}
	if len(v2) <= len(v1) {
		t.Fatal("v2 encoding should carry extra metadata bytes")
	}
}

// appendBinaryV1 re-encodes an index in the legacy version-1 layout (no
// per-segment metadata), simulating a snapshot written before the planner.
func appendBinaryV1(x *Index) []byte {
	x.mu.Lock()
	sn := x.snap.Load()
	seq := x.seq
	x.mu.Unlock()
	buf := append([]byte(nil), liveMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, liveVersionV1)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(x.opts.NumHash))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(x.opts.RMax))
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sn.segs)))
	for _, seg := range sn.segs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(seg.seqs)))
		for _, s := range seg.seqs {
			buf = binary.LittleEndian.AppendUint64(buf, s)
		}
		buf = seg.idx.AppendBinary(buf)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sn.buf)))
	for i := range sn.buf {
		e := &sn.buf[i]
		buf = binary.LittleEndian.AppendUint64(buf, e.seq)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.rec.Key)))
		buf = append(buf, e.rec.Key...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.rec.Size))
		for _, v := range e.rec.Sig {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	tombs := sn.tombstones()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tombs)))
	for k, s := range tombs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint64(buf, s)
	}
	return buf
}

// TestCorruptMetadataRejected: truncating or corrupting the v2 metadata
// block must fail the load, not silently degrade.
func TestCorruptMetadataRejected(t *testing.T) {
	recs := fixture(t, 60, 12)
	x, err := Build(recs, plannerOpts())
	if err != nil {
		t.Fatal(err)
	}
	enc := x.AppendBinary(nil)
	truncated := enc[:len(enc)-9]
	if _, err := Load(bytes.NewReader(truncated), plannerOpts()); err == nil {
		t.Fatal("truncated metadata accepted")
	}
}

// TestResultCacheCoherence: a cached result must never be served across a
// mutation — the generation check forces a recompute.
func TestResultCacheCoherence(t *testing.T) {
	recs := fixture(t, 120, 13)
	x, err := Build(recs[:100], plannerOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := recs[0]
	before := x.Query(r.Sig, r.Size, 0.3)
	if !containsKey(before, r.Key) {
		t.Fatal("self-query missed its own key")
	}
	x.Query(r.Sig, r.Size, 0.3) // cache hit
	if x.Stats().Planner.ResultHits == 0 {
		t.Fatal("repeat query did not hit the result cache")
	}
	x.Delete(r.Key)
	after := x.Query(r.Sig, r.Size, 0.3)
	if containsKey(after, r.Key) {
		t.Fatal("stale cached result served after Delete")
	}
	if _, err := x.Add(r); err != nil {
		t.Fatal(err)
	}
	again := x.Query(r.Sig, r.Size, 0.3)
	if !containsKey(again, r.Key) {
		t.Fatal("re-added key invisible after cached queries")
	}
}

// synthRecords builds n records whose signature values are drawn from a
// hash-value pool tagged by pool's low byte: records of different pools
// share no values, like corpora whose domains have nothing in common.
// Sizes spread uniformly over [minSize, maxSize].
func synthRecords(n int, pool uint64, prefix string, minSize, maxSize int) []core.Record {
	rng := xrand.New(pool*0x9E3779B9 + 1)
	recs := make([]core.Record, n)
	for i := range recs {
		sig := make(minhash.Signature, 128)
		for j := range sig {
			sig[j] = pool<<56 | rng.Uint64()&((1<<56)-1)
		}
		size := minSize
		if maxSize > minSize {
			size += int(rng.Uint64() % uint64(maxSize-minSize+1))
		}
		recs[i] = core.Record{Key: fmt.Sprintf("%s-%04d", prefix, i), Size: size, Sig: sig}
	}
	return recs
}

func containsKey(keys []string, k string) bool {
	for _, s := range keys {
		if s == k {
			return true
		}
	}
	return false
}

// TestGenerationFlipHammer (satellite, -race): readers hammer the cached
// query path while writers flip the snapshot generation under them with
// adds, deletes, seals and merges. Every read must be internally consistent
// (a currently-contained self-key present unless deleted concurrently) and
// the run must be race-clean.
func TestGenerationFlipHammer(t *testing.T) {
	recs := fixture(t, 260, 14)
	opts := plannerOpts()
	opts.ManualCompaction = false
	opts.SealThreshold = 16
	x, err := Build(recs[:130], opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()

	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	// Stable keys: never touched by the writer, must appear in every
	// self-query no matter which generation the reader lands on.
	stable := recs[:50]
	writer.Add(1)
	go func() { // writer: churn the mutable tail (bounded so it cannot
		// starve the readers; every op flips the snapshot generation)
		defer writer.Done()
		for i := 0; i < 1500; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r := recs[130+i%130]
			if i%3 == 2 {
				x.Delete(r.Key)
			} else if _, err := x.Add(r); err != nil {
				panic(err)
			}
			if i%97 == 96 {
				x.Flush()
			}
		}
	}()
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			var dst []string
			for i := 0; i < 400; i++ {
				r := stable[(i+w*13)%len(stable)]
				dst = x.QueryAppend(dst[:0], r.Sig, r.Size, 0.5)
				if !containsKey(dst, r.Key) {
					panic("self-query lost a stable key: " + r.Key)
				}
				if i%8 == 0 {
					x.QueryTopK(r.Sig, r.Size, 5)
				}
			}
		}(w)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// TestStatsSegmentDetail: the /stats surface carries per-segment planner
// metadata.
func TestStatsSegmentDetail(t *testing.T) {
	recs := fixture(t, 300, 16)
	x, err := New(plannerOpts())
	if err != nil {
		t.Fatal(err)
	}
	churn(t, recs, x)
	st := x.Stats()
	if len(st.SegmentDetail) != len(st.Segments) {
		t.Fatalf("detail rows %d != segments %d", len(st.SegmentDetail), len(st.Segments))
	}
	for i, d := range st.SegmentDetail {
		if d.Entries != st.Segments[i] {
			t.Fatalf("segment %d entries %d != %d", i, d.Entries, st.Segments[i])
		}
		if d.MinSize <= 0 || d.MinSize > d.MaxSize || d.MaxBound < d.MaxSize {
			t.Fatalf("segment %d bounds out of order: %+v", i, d)
		}
		if d.BloomBytes <= 0 {
			t.Fatalf("segment %d reports no bloom footprint", i)
		}
	}
}

// TestResultCacheHitIsExact: two queries that collide in the cache set but
// differ in signature, size or threshold must not share a result.
func TestResultCacheHitIsExact(t *testing.T) {
	recs := fixture(t, 100, 17)
	x, err := Build(recs, plannerOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := recs[0]
	a := x.Query(r.Sig, r.Size, 0.9)
	b := x.Query(r.Sig, r.Size, 0.0) // same sig+size, different threshold
	if len(b) < len(a) {
		t.Fatal("lower threshold returned fewer candidates — cache confused the keys")
	}
	if got := x.Query(r.Sig, r.Size, math.Nextafter(0.9, 1)); len(got) > len(b) {
		t.Fatal("nearby threshold produced impossible result")
	}
}
