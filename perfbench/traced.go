package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// plannerTotals sums the planner and compactor counters of every shard.
type plannerTotals struct {
	resHits, resMisses, planHits, planMisses, topkExits, seals, merges float64
}

func plannerNow(st *stack) plannerTotals {
	var p plannerTotals
	for _, s := range st.shards {
		ls := s.idx.Stats()
		p.resHits += float64(ls.Planner.ResultHits)
		p.resMisses += float64(ls.Planner.ResultMisses)
		p.planHits += float64(ls.Planner.PlanHits)
		p.planMisses += float64(ls.Planner.PlanMisses)
		p.topkExits += float64(ls.Planner.TopKEarlyExits)
		p.seals += float64(ls.Seals)
		p.merges += float64(ls.Merges)
	}
	return p
}

func (p plannerTotals) minus(q plannerTotals) plannerTotals {
	return plannerTotals{p.resHits - q.resHits, p.resMisses - q.resMisses, p.planHits - q.planHits,
		p.planMisses - q.planMisses, p.topkExits - q.topkExits, p.seals - q.seals, p.merges - q.merges}
}

// traced runs the workload with spans on and reports the per-layer
// metrics. Part 1 repeats the seeded workload over HTTP with spans around
// the client round trip, the router handler and each shard handler;
// part 2 replays the open loop's op sequence directly against the layers.
func (b *bench) traced() (result, error) {
	b.m = newMetrics()
	b.prepare()
	tr := newTracer()
	st, _, err := b.setup(tr.wrap)
	if err != nil {
		return result{}, err
	}
	defer st.close()
	cl := newClient(st.front, b.clients)
	defer cl.close()
	b.warm(cl)
	before := plannerNow(st)
	atOpen := make([]int, len(b.writes))
	for c, ws := range b.writes {
		atOpen[c] = ws.next
	}

	// Part 1: the open loop with spans on, then the closed loop in quarters
	// untraced, traced, traced, untraced — the order cancels a steady drift
	// of the state, such as churn's growing buffer — and the ratio of the
	// traced to the untraced throughput is what the spans cost.
	closed, open := b.phases()
	tr.on.Store(true)
	samples, log, _ := openLoop(cl, b.cp, b.sp, b.seed, b.writes, b.sp.rate, open, &b.t, &b.ids, tr.clientHook)
	tr.on.Store(false)
	openDiff := plannerNow(st).minus(before)
	runtime.GC()
	var thr [2]float64
	for i, traced := range []bool{false, true, true, false} {
		tr.on.Store(traced)
		rate, _ := closedLoop(cl, b.cp, b.sp, b.seed, phaseClosed, b.writes, closed/4, &b.t, &b.ids, tr.clientHook)
		thr[min(i, 3-i)] += rate
	}
	tr.on.Store(false)
	runDiff := plannerNow(st).minus(before)
	_, checkErr := b.finish(st, cl)

	// Part 2: the direct replay, from the state the open loop started on.
	rp, err := newReplay(b.sp, b.cp, tr, b.clients)
	if err != nil {
		return result{}, err
	}
	defer rp.close()
	for c, ws := range b.writes {
		if err := rp.apply(ws.ops[:atOpen[c]]); err != nil {
			return result{}, err
		}
	}
	if err := rp.run(log); err != nil {
		return result{}, err
	}

	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	resolve(spans)
	b.layerMetrics(spans, rp, openDiff, runDiff, samples, log, thr)

	path := filepath.Join(buildDir(b.root), "spans", fmt.Sprintf("spans-%s-seed%d.jsonl.gz", b.sp.name, b.seed))
	if err := writeSpans(path, spans); err != nil {
		return result{}, err
	}
	b.record["spans"] = path
	b.record["span_count"] = len(spans)
	b.logErrors()
	return b.result(), checkErr
}

// layerMetrics derives every per-layer metric from the spans, the replay's
// samples and the served indexes' counter diffs.
func (b *bench) layerMetrics(spans []span, rp *replay, openDiff, runDiff plannerTotals, samples []sample, log []issued, thr [2]float64) {
	m := b.m
	s := &rp.s

	m.set("minhash.sketch_us_p50", "us", median(s.sketchUS))
	m.set("minhash.ns_per_value", "ns", ratio(s.sketchNS, sumOf(s.sketchValues)))
	m.set("minhash.values_per_request", "count", mean(s.sketchValues))

	m.set("tune.optimize_ns_p50", "ns", median(s.optimizeNS))
	m.set("tune.calls_per_query", "count", mean(s.tuneCalls))

	m.set("lshforest.probe_us_p50", "us", median(s.probeUS))
	m.set("lshforest.ids_per_probe", "count", mean(s.idsPerProbe))

	m.set("core.query_us_p50", "us", median(s.coreQueryUS))
	m.set("core.topk_us_p50", "us", median(s.coreTopKUS))
	m.set("core.batch_us_p50", "us", median(s.coreBatchUS))
	m.set("core.candidates_per_query", "count", mean(s.candidates))
	m.set("core.useful_candidate_ratio", "ratio", ratio(s.useful, s.cand))

	liveQueryMean := mean(s.liveUS[opQuery])
	coreQueryMean := mean(s.coreQueryUS)
	m.set("live.query_us_p50", "us", median(s.liveUS[opQuery]))
	m.set("live.query_us_p99", "us", quantile(s.liveUS[opQuery], 0.99))
	m.set("live.topk_us_p50", "us", median(s.liveUS[opTopK]))
	m.set("live.batch_us_p50", "us", median(s.liveUS[opBatch]))
	m.set("live.add_us_p50", "us", median(s.liveUS[opAdd]))
	m.set("live.add_us_p99", "us", quantile(s.liveUS[opAdd], 0.99))
	m.set("live.delete_us_p50", "us", median(s.liveUS[opDelete]))
	m.set("live.delete_us_p99", "us", quantile(s.liveUS[opDelete], 0.99))
	m.set("live.beyond_core_share", "ratio", 1-ratio(coreQueryMean, liveQueryMean))
	m.set("live.buffered_mean", "count", ratio(s.bufferedSum, s.traced))
	m.set("live.buffer_scan_ratio", "ratio", ratio(s.bufferScans, s.bufferNonEmpty))
	m.set("live.buffer_entries_per_query", "count", ratio(s.bufferEntries, s.traced))
	m.set("live.tombstones_mean", "count", mean(s.tombstones))
	m.set("live.segments_probed_per_query", "count", ratio(s.segProbed, s.traced))
	m.set("live.segment_prune_ratio", "ratio", ratio(s.segPruned, s.segPruned+s.segProbed))
	m.set("live.result_cache_hit_ratio", "ratio", ratio(openDiff.resHits, openDiff.resHits+openDiff.resMisses))
	m.set("live.plan_cache_hit_ratio", "ratio", ratio(openDiff.planHits, openDiff.planHits+openDiff.planMisses))
	topks := 0.0
	for _, it := range log {
		if it.o.kind == opTopK {
			topks += float64(b.sp.shards)
		}
	}
	m.set("live.topk_early_exit_ratio", "ratio", ratio(openDiff.topkExits, topks))
	m.set("live.seals", "count", runDiff.seals)
	m.set("live.merges", "count", runDiff.merges)

	// serve and cluster, from the HTTP spans of the open loop; the replay's
	// minhash and live spans stand in for the handler's children.
	replayChild := map[spanKey]int64{}
	children := map[int][]span{}
	for i := range spans {
		sp := &spans[i]
		if sp.Name == "minhash" || sp.Name == "live" {
			replayChild[spanKey{sp.Req, "serve", sp.Shard}] += sp.dur()
		}
		if sp.Parent >= 0 && (sp.Name == "serve" || sp.Name == "cluster") {
			children[sp.Parent] = append(children[sp.Parent], *sp)
		}
	}
	var serveSelf, reqBytes, respBytes, clusterSelf, fanout, gaps []float64
	for i := range spans {
		sp := &spans[i]
		switch sp.Name {
		case "serve":
			reqBytes = append(reqBytes, float64(sp.ReqBytes))
			respBytes = append(respBytes, float64(sp.RespBytes))
			if d, ok := replayChild[spanKey{sp.Req, "serve", sp.Shard}]; ok {
				serveSelf = append(serveSelf, float64(sp.dur()-d)/1e3)
			}
		case "cluster":
			kids := children[sp.ID]
			clusterSelf = append(clusterSelf, float64(selfTime(*sp, kids))/1e3)
			fanout = append(fanout, float64(len(kids)))
			if len(kids) >= 2 {
				lo, hi := kids[0].dur(), kids[0].dur()
				for _, k := range kids[1:] {
					lo, hi = min(lo, k.dur()), max(hi, k.dur())
				}
				gaps = append(gaps, float64(hi-lo)/1e3)
			}
		}
	}
	m.set("serve.self_us_p50", "us", median(serveSelf))
	m.set("serve.request_bytes", "B", mean(reqBytes))
	m.set("serve.response_bytes", "B", mean(respBytes))
	m.set("cluster.self_us_p50", "us", median(clusterSelf))
	m.set("cluster.fanout_per_request", "count", mean(fanout))
	partial := 0.0
	if b.sp.shards > 1 {
		partial = ratio(float64(b.t.partials.Load()), float64(b.t.attempted.Load()))
	}
	m.set("cluster.partial_ratio", "ratio", partial)
	m.set("cluster.shard_gap_us_p99", "us", quantile(gaps, 0.99))

	var late []float64
	for _, sm := range samples {
		late = append(late, ms(sm.late))
	}
	m.set("loadgen.late_ms_p99", "ms", quantile(late, 0.99))
	m.set("trace.overhead", "ratio", ratio(thr[1], thr[0]))
	b.record["loadgen.late_ms_p99"] = quantile(late, 0.99)
	b.record["valid"] = quantile(late, 0.99) <= ms(maxLate)
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// buildDir is where build outputs and trace files go: the driver's
// CARGO_TARGET_DIR convention, .bench_build under the checkout.
func buildDir(root string) string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		if filepath.IsAbs(d) {
			return d
		}
		return filepath.Join(root, d)
	}
	return filepath.Join(root, ".bench_build")
}
