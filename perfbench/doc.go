// Command perfbench is the repository's end-to-end benchmark: one seeded
// command that builds the serving stack from the public constructors,
// drives it through its HTTP front door, checks the answers, and prints
// every metric by name with its unit. BENCHMARK.json at the repository
// root names its workloads and the metrics a change is judged by.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload search|churn|fleet --seed N --seconds S --trace 0|1
//
// run.sh builds the program into $CARGO_TARGET_DIR (default .bench_build)
// with the Go build cache there too, then runs it. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics; the lines before it are the run record (commit or
// source digest, CPU model, nproc, GOMAXPROCS, Go version, seed, workload,
// hypervisor steal share, open-loop lateness and validity) and a table of
// every metric.
//
// # A run
//
// Everything is generated from --seed by internal/datagen's OpenData
// (power-law domain sizes capped at 2000 values, joinable clusters), with
// values rendered as strings; the servers only ever see generated domains
// and queries. One run:
//
//  1. Setup, three times: empty server(s) on fixed loopback addresses
//     (lshensemble.BuildLive → serve.NewWith per shard, cluster.NewRouter
//     in front of two), the preload ingested through the front door's /add
//     by nproc clients, /compact, one query. setup_s is the median.
//  2. Untimed warm-up: the workload's prefill writes (churn only), a
//     second of reads, garbage collection.
//  3. Open loop, two thirds of --seconds: a fixed offered rate well below
//     saturation over at most nproc connections, each op timed from when
//     it was due. Each latency percentile is the first quartile over nine
//     windows of that window's percentile.
//  4. Closed loop, the last third: nproc clients back to back at the
//     workload's mix. Throughput is the third quartile over nine windows;
//     CPU time per op is the process's user plus system time over the
//     completed ops.
//  5. Drain, quiesce, check: every client finishes its fixed write list,
//     /compact, then a seeded sample of queries through the front door is
//     checked against exact containment truth (internal/exact) over the
//     final contents.
//
// The windows and quartiles are there because the machines this runs on
// share their CPUs: hypervisor steal comes in bursts of seconds (the run
// record shows it per window), and a quartile over windows reads the
// windows it spared, where a change to the code still shows in full.
//
// Each client owns a disjoint slice of the key space and sends its writes
// in order from a fixed list that is a function of the seed, and the drain
// applies whatever the timed phases did not; so the final contents, and
// with them recall, precision and resident bytes, depend on the seed alone.
//
// The run record marks a run invalid when the open-loop generator's p99
// lateness (due time to getting a connection) passes 100 ms: the offered
// rate was not met, and the latencies describe a backlog.
//
// # Answer checks
//
// A run reports correct=false when any of these fail: recall or precision
// of the quiesced check below its floor (0.85 and 0.50 at t* = 0.5; the
// floors live here because BENCHMARK.json has a fixed schema); any answer
// at the check naming a key that is not live (deleted before the check, or
// never written); a top-k answer longer than k, with a repeated key or
// with est_containment not descending; a batch answer whose row count
// differs from its query count; a router answer marked partial; an add
// whose replaced flag or a delete whose deleted flag contradicts the
// benchmark's own model of the contents; any failed request.
//
// # Workloads
//
//   - search: one shard, a sealed 16000-domain corpus, a mix of query
//     (55%), top-k (32%) and batch (13%) over distinct queries drawn from
//     the whole corpus, far more than the 1024-entry result cache holds.
//     This is the paper's scenario: minhash, tune, lshforest, core and
//     serve do the work; it issues no writes.
//   - churn: one shard at the default SealThreshold (4096) with the
//     background compactor on, and half writes: adds replacing live keys
//     and creating new ones, deletes leaving tombstones pending. 1024
//     prefill writes start the open loop with the buffer near 700 entries,
//     and a 20-second run carries it to about 3900, around the mean of a
//     steady seal cycle. The live write path, the unsealed-buffer scan and
//     tombstone liveness dominate; the core probe is a small share.
//   - fleet: a router over two shards, read-mostly with a 2% trickle of
//     routed writes, queries Zipf-skewed (s = 1.1, v = 50) over a
//     512-domain hot set that fits the result cache; the hot set takes one
//     domain per size stratum, so a few hot domains' sizes do not decide
//     the run. Router fan-out and merge, the double JSON hop and the
//     result cache do the work; every write invalidates a shard's cache,
//     so a cache change shows here and not in search.
//
// # End-to-end metrics (--trace 0)
//
// The result line carries the metrics BENCHMARK.json bounds:
//
//	setup_s                    s      median of three setups from empty servers
//	throughput_ops_per_s       ops/s  closed loop at the workload's mix
//	cpu_us_per_op              us     process CPU time per op in the closed loop
//	success_rate               ratio  1 − (failed, refused or partial)/attempted
//	recall, precision          ratio  quiesced check at t* = 0.5, per-query averages
//	resident_bytes_per_domain  B      segment resident + buffered signature bytes per live domain
//
// The table also prints the open loop's latencies, in ms, without a bound:
// query_p50_ms, query_p99_ms, topk_p50_ms, topk_p99_ms, batch_p50_ms,
// batch_p99_ms, add_p50_ms, add_p99_ms, delete_p50_ms and delete_p99_ms.
// On a shared 2-vCPU machine whose hypervisor steals 1–30% of the CPU from
// one minute to the next, their spread over ten seeded runs reached the
// largest bound a metric may carry (a quarter of its median) — fleet's
// query_p50_ms spread 0.24 in one set — and their medians moved by more
// than that between sets taken at different steal; search issues no writes
// and fleet too few per run for a steady write median. CPU time per op
// leaves out what the hypervisor steals, and throughput reads the least
// disturbed windows, which keeps both inside their bounds.
//
// success_rate stands in for an error rate: a bound is a share of the
// median, and an error rate's median is 0. cpu_us_per_op counts the load
// generator's CPU too, since it shares the process.
//
// # Per-layer metrics (--trace 1)
//
// The traced run measures each layer from outside, by timing calls into its
// public functions; spans inside the program are a later change. Part 1
// repeats the seeded workload over HTTP with spans around the client round
// trip, the router handler and each shard handler (the closed loop runs
// untraced, traced, traced, untraced quarters; trace.overhead is the
// traced over the untraced throughput). Part 2 replays the open loop's op sequence with one
// client, calling the layers directly in the order a shard handler does
// (minhash → live) plus tune, lshforest and core on a core index of each
// shard's preload records, which is what a sealed segment holds. Replay
// spans are parented to the replayed request's shard span. Spans (name,
// start, end, parent, request id) stay in memory and are written, gzipped
// JSON lines, under $CARGO_TARGET_DIR/spans. A span's self time is its
// duration minus the union of its children, so a router's parallel shard
// calls count once.
//
// Each metric is listed with the end-to-end metric and workload it should
// move (metrics in parentheses are printed without a bound):
//
//	minhash.sketch_us_p50, minhash.ns_per_value, minhash.values_per_request
//	    SketchStrings per request   → cpu_us_per_op (query_p50_ms) on search; cpu_us_per_op (add_p50_ms) on churn
//	tune.optimize_ns_p50, tune.calls_per_query
//	    Optimizer.Optimize per partition a query needs
//	                                → cpu_us_per_op (query_p50_ms) on search
//	lshforest.probe_us_p50, lshforest.ids_per_probe
//	    Forest.Query with tune's (b, r)
//	                                → throughput_ops_per_s (query_p50_ms) on search
//	core.query_us_p50, core.topk_us_p50, core.batch_us_p50,
//	core.candidates_per_query, core.useful_candidate_ratio
//	    Index.QueryIDs/QueryTopK/QueryBatch; useful = estimated containment ≥ t*
//	                                → throughput_ops_per_s (query_p50_ms, topk_p50_ms) on search
//	live.query_us_p50, live.query_us_p99, live.topk_us_p50, live.batch_us_p50,
//	live.add_us_p50, live.add_us_p99, live.delete_us_p50, live.delete_us_p99
//	    LiveIndex calls             → cpu_us_per_op (query_p50_ms, topk_p50_ms) on churn
//	live.buffered_mean, live.buffer_scan_ratio, live.buffer_entries_per_query,
//	live.tombstones_mean, live.segments_probed_per_query, live.segment_prune_ratio,
//	live.seals, live.merges, live.beyond_core_share
//	    LiveQueryTrace and Stats diffs
//	                                → throughput_ops_per_s (query_p50_ms, query_p99_ms,
//	                                  delete_p99_ms) on churn
//	live.result_cache_hit_ratio, live.plan_cache_hit_ratio, live.topk_early_exit_ratio
//	    Stats().Planner diffs       → throughput_ops_per_s (query_p50_ms) on fleet
//	serve.self_us_p50, serve.request_bytes, serve.response_bytes
//	    shard handler span minus the replay's minhash and live time
//	                                → cpu_us_per_op (query_p50_ms) on search, throughput_ops_per_s on fleet
//	cluster.self_us_p50, cluster.fanout_per_request, cluster.partial_ratio,
//	cluster.shard_gap_us_p99
//	    router span minus the union of its shard spans; the gap is the
//	    slowest minus the fastest shard of one scatter
//	                                → throughput_ops_per_s (query_p99_ms) on fleet
//	loadgen.late_ms_p99, trace.overhead
//	    the benchmark itself
//
// live.beyond_core_share is 1 − core.query_us / live.query_us (means over
// the same replayed queries): the share of a live query spent outside the
// sealed-partition probe — buffer scan, liveness filter, planning, caches.
// Layers not on a workload's path report 0 (cluster on one shard).
//
// Two modules are deliberately not measured: segfile (out-of-core mmap) is
// off in the default configuration and BENCH_7 covers it; obs is always
// on, so its cost sits inside the serve and live times.
//
// # Earlier benchmark files
//
// BENCH_6.json, BENCH_7.json, BENCH_9.json and BENCH_10.json, and the awk
// blocks in .github/workflows/ci.yml that build them, are superseded by
// this benchmark for end-to-end and per-layer claims. They are left in
// place: this package changes no CI file.
package main
