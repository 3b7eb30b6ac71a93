package main

import (
	"context"
	"sync"
	"time"

	"lshensemble"
	"lshensemble/internal/core"
	"lshensemble/internal/lshforest"
	"lshensemble/internal/tune"
)

// replayShard is one shard's state for the direct replay: a live index
// mirroring the served one, and a core index of the shard's preload
// records — what a sealed segment holds — with the pieces the core query
// is made of (partition bounds, forests, a (b, r) optimizer).
type replayShard struct {
	live    *lshensemble.LiveIndex
	core    *lshensemble.Index
	opt     *tune.Optimizer
	uppers  []int
	forests []*lshforest.Forest
}

// layerSamples collects the direct replay's per-layer timings and counts.
type layerSamples struct {
	sketchUS, sketchValues []float64
	sketchNS               float64

	optimizeNS   []float64
	tuneCalls    []float64
	probeUS      []float64
	idsPerProbe  []float64
	coreQueryUS  []float64
	coreTopKUS   []float64
	coreBatchUS  []float64
	candidates   []float64
	useful, cand float64

	liveUS [numKinds][]float64

	traced                      float64 // threshold queries with a planner trace (cache misses)
	bufferedSum, bufferNonEmpty float64
	bufferScans, bufferEntries  float64
	segProbed, segPruned        float64
	tombstones                  []float64
}

// replay is the traced run's part 2: one client replays the open loop's op
// sequence by calling the layers directly, in the order a shard handler
// calls them (minhash → live), plus tune, lshforest and core on the
// sealed preload state. Each call is a span parented to the replayed
// request's shard span.
type replay struct {
	sp     spec
	cp     *corpus
	hasher *lshensemble.Hasher
	shards []*replayShard
	owner  map[string]int
	tr     *tracer
	s      layerSamples
}

// newReplay builds each shard's live and core index from its preload
// records, sketched from the same strings the front door ingested.
func newReplay(sp spec, cp *corpus, tr *tracer, clients int) (*replay, error) {
	rp := &replay{sp: sp, cp: cp, hasher: lshensemble.NewHasher(numHash, hashSeed), tr: tr, owner: map[string]int{}}
	recs := make([]lshensemble.DomainRecord, len(cp.keys))
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(recs); i += clients {
				recs[i] = lshensemble.SketchStrings(rp.hasher, cp.keys[i], cp.values[i])
			}
		}(w)
	}
	wg.Wait()
	own := owners(sp.shards, cp.keys)
	perShard := make([][]lshensemble.DomainRecord, sp.shards)
	for i, r := range recs {
		perShard[own[i]] = append(perShard[own[i]], r)
		rp.owner[r.Key] = own[i]
	}
	opts := liveOptions()
	for _, rs := range perShard {
		live, err := lshensemble.BuildLive(rs, opts)
		if err != nil {
			rp.close()
			return nil, err
		}
		sealed, err := lshensemble.Build(rs, opts.Options)
		if err != nil {
			live.Close()
			rp.close()
			return nil, err
		}
		sh := &replayShard{live: live, core: sealed, opt: tune.NewOptimizer(numHash/rMax, rMax)}
		sealed.EachPart(func(_ int, pv core.PartView) {
			sh.uppers = append(sh.uppers, pv.Upper)
			sh.forests = append(sh.forests, pv.Forest)
		})
		rp.shards = append(rp.shards, sh)
	}
	return rp, nil
}

func (rp *replay) close() {
	for _, sh := range rp.shards {
		sh.live.Close()
	}
}

// ownerOf places a key as the router's ring does.
func (rp *replay) ownerOf(key string) int {
	if s, ok := rp.owner[key]; ok {
		return s
	}
	s := owners(rp.sp.shards, []string{key})[0]
	rp.owner[key] = s
	return s
}

// apply performs writes untimed, bringing the replay state to where the
// served state stood when the open loop began.
func (rp *replay) apply(ops []op) error {
	for i := range ops {
		o := &ops[i]
		sh := rp.shards[rp.ownerOf(o.key)]
		if o.kind == opDelete {
			sh.live.Delete(o.key)
			continue
		}
		if _, err := sh.live.Add(lshensemble.SketchStrings(rp.hasher, o.key, rp.cp.values[o.tmpl])); err != nil {
			return err
		}
	}
	return nil
}

// timed runs fn as one span of the replayed request.
func (rp *replay) timed(req, name string, shard int, opName string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	rp.tr.add(span{Req: req, Name: name, Shard: shard, Op: opName, Start: rp.tr.ns(start), End: rp.tr.ns(end)})
	return end.Sub(start)
}

func (rp *replay) sketch(req string, shard int, values []string) lshensemble.DomainRecord {
	var rec lshensemble.DomainRecord
	d := rp.timed(req, "minhash", shard, "sketch", func() { rec = lshensemble.SketchStrings(rp.hasher, "query", values) })
	rp.s.sketchUS = append(rp.s.sketchUS, us(d))
	rp.s.sketchValues = append(rp.s.sketchValues, float64(len(values)))
	rp.s.sketchNS += float64(d.Nanoseconds())
	return rec
}

// run replays the issued ops in schedule order.
func (rp *replay) run(log []issued) error {
	ctx := context.Background()
	for n, it := range log {
		o := &it.o
		if n%50 == 0 {
			tombs := 0
			for _, sh := range rp.shards {
				tombs += sh.live.Stats().Tombstones
			}
			rp.s.tombstones = append(rp.s.tombstones, float64(tombs))
		}
		switch o.kind {
		case opAdd:
			s := rp.ownerOf(o.key)
			rec := rp.sketch(it.id, s, rp.cp.values[o.tmpl])
			rec.Key = o.key
			var err error
			d := rp.timed(it.id, "live", s, "add", func() { _, err = rp.shards[s].live.Add(rec) })
			if err != nil {
				return err
			}
			rp.s.liveUS[opAdd] = append(rp.s.liveUS[opAdd], us(d))
		case opDelete:
			s := rp.ownerOf(o.key)
			d := rp.timed(it.id, "live", s, "delete", func() { rp.shards[s].live.Delete(o.key) })
			rp.s.liveUS[opDelete] = append(rp.s.liveUS[opDelete], us(d))
		case opQuery:
			for s := range rp.shards {
				rp.query(ctx, it.id, s, o.tmpl)
			}
		case opTopK:
			for s, sh := range rp.shards {
				rec := rp.sketch(it.id, s, rp.cp.values[o.tmpl])
				var err error
				d := rp.timed(it.id, "live", s, "topk", func() { _, err = sh.live.QueryTopKContext(ctx, rec.Sig, rec.Size, topK) })
				if err != nil {
					return err
				}
				rp.s.liveUS[opTopK] = append(rp.s.liveUS[opTopK], us(d))
				d = rp.timed(it.id, "core", s, "topk", func() { _, err = sh.core.QueryTopK(rec.Sig, rec.Size, topK) })
				if err != nil {
					return err
				}
				rp.s.coreTopKUS = append(rp.s.coreTopKUS, us(d))
			}
		case opBatch:
			for s, sh := range rp.shards {
				qs := make([]lshensemble.BatchQuery, len(o.batch))
				for i, t := range o.batch {
					rec := rp.sketch(it.id, s, rp.cp.values[t])
					qs[i] = lshensemble.BatchQuery{Sig: rec.Sig, Size: rec.Size, Threshold: threshold}
				}
				var err error
				d := rp.timed(it.id, "live", s, "batch", func() { _, err = sh.live.QueryBatchContext(ctx, qs, 0) })
				if err != nil {
					return err
				}
				rp.s.liveUS[opBatch] = append(rp.s.liveUS[opBatch], us(d))
				d = rp.timed(it.id, "core", s, "batch", func() { _, err = sh.core.QueryBatch(qs, 0) })
				if err != nil {
					return err
				}
				rp.s.coreBatchUS = append(rp.s.coreBatchUS, us(d))
			}
		}
	}
	return nil
}

// query replays one threshold query on one shard: sketch, the live query
// under a planner trace, then the sealed-state layers — tune's (b, r) per
// partition, the forest probes with them, and the core query they make up.
func (rp *replay) query(ctx context.Context, req string, s, tmpl int) {
	sh := rp.shards[s]
	rec := rp.sketch(req, s, rp.cp.values[tmpl])
	var qt lshensemble.LiveQueryTrace
	tctx := lshensemble.WithLiveQueryTrace(ctx, &qt)
	d := rp.timed(req, "live", s, "query", func() { _, _ = sh.live.QueryContext(tctx, rec.Sig, rec.Size, threshold) })
	rp.s.liveUS[opQuery] = append(rp.s.liveUS[opQuery], us(d))
	if !qt.ResultCacheHit {
		rp.s.traced++
		rp.s.bufferedSum += float64(qt.Buffered)
		if qt.Buffered > 0 {
			rp.s.bufferNonEmpty++
		}
		if qt.BufferScanned {
			rp.s.bufferScans++
			rp.s.bufferEntries += float64(qt.Buffered)
		}
		rp.s.segProbed += float64(qt.SegmentsProbed)
		rp.s.segPruned += float64(qt.SegmentsRangePruned + qt.SegmentsBloomPruned)
	}

	q := float64(rec.Size)
	calls := 0
	for pi, u := range sh.uppers {
		f := sh.forests[pi]
		if f.Len() == 0 || float64(u)/q < threshold {
			continue
		}
		calls++
		var p tune.Params
		d := rp.timed(req, "tune", s, "optimize", func() { p = sh.opt.Optimize(float64(u), q, threshold) })
		rp.s.optimizeNS = append(rp.s.optimizeNS, float64(d.Nanoseconds()))
		ids := 0
		d = rp.timed(req, "lshforest", s, "probe", func() {
			f.Query(rec.Sig, p.B, p.R, func(uint32) bool { ids++; return true })
		})
		rp.s.probeUS = append(rp.s.probeUS, us(d))
		rp.s.idsPerProbe = append(rp.s.idsPerProbe, float64(ids))
	}
	rp.s.tuneCalls = append(rp.s.tuneCalls, float64(calls))

	var ids []uint32
	d = rp.timed(req, "core", s, "query", func() { ids, _ = sh.core.QueryIDs(rec.Sig, rec.Size, threshold) })
	rp.s.coreQueryUS = append(rp.s.coreQueryUS, us(d))
	rp.s.candidates = append(rp.s.candidates, float64(len(ids)))
	for _, id := range ids {
		rp.s.cand++
		if sh.core.EstContainment(id, rec.Sig, rec.Size) >= threshold {
			rp.s.useful++
		}
	}
}
