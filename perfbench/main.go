package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// setupReps is how many times a run builds the stack from empty; setup_s
// is the median.
const setupReps = 3

// maxLate is how late the open-loop generator may run at its p99 before
// the run record marks the run invalid: past it the offered rate was not
// met, so latencies describe a backlog rather than the rate.
const maxLate = 100 * time.Millisecond

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload: search, churn or fleet")
	seed := fl.Uint64("seed", 1, "seed of every generated input")
	seconds := fl.Int("seconds", 20, "measured seconds: two thirds open loop, then a third closed loop")
	traceFlag := fl.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*workload)
	if !ok || *seconds < 3 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload search|churn|fleet, --seconds ≥ 3, --trace 0|1\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rec := runRecord(root, sp.name, *seed, *traceFlag)
	steal0, total0 := cpuSteal()
	b := &bench{sp: sp, seed: *seed, seconds: *seconds, clients: runtime.NumCPU(), root: root, record: rec, stderr: stderr}
	var res result
	if *traceFlag == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		var w *errWrongAnswer
		if !errors.As(err, &w) {
			return 1
		}
		res.Correct = false
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		rec["cpu_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	line, _ := json.Marshal(map[string]any{"run_record": rec})
	fmt.Fprintln(stdout, string(line))
	if b.m != nil {
		for _, name := range b.m.names {
			m, note := b.m.m[name], ""
			if b.m.printed[name] {
				note = "  (printed only)"
			}
			fmt.Fprintf(stdout, "%-36s %14.6g %s%s\n", name, m.Value, m.Unit, note)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// runRecord describes where and how the run happened.
func runRecord(root, workload string, seed uint64, trace int) map[string]any {
	return map[string]any{
		"commit":     commit(root),
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"seed":       seed,
		"workload":   workload,
		"trace":      trace,
	}
}

// commit names the source the benchmark was built from: the VCS revision
// when the build recorded one, else a digest of the tree's Go sources (a
// checkout without .git carries no revision).
func commit(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuSteal reads the steal and total jiffies of all CPUs: time a
// hypervisor gave this machine's CPUs to someone else is noise the run
// record should show.
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// bench is one run of one workload.
type bench struct {
	sp      spec
	seed    uint64
	seconds int
	clients int
	root    string
	record  map[string]any
	stderr  io.Writer

	cp     *corpus
	models []*model
	writes []*writeStream
	t      tally
	ids    reqIDs
	m      *metrics
}

// phases splits the measured seconds: two thirds open loop, then a third
// closed loop.
func (b *bench) phases() (closed, open time.Duration) {
	total := time.Duration(b.seconds) * time.Second
	return total / 3, total - total/3
}

// prepare generates the corpus and every client's write list, leaving
// b.models at the final contents.
func (b *bench) prepare() {
	b.cp = newCorpus(b.sp.domains, b.seed)
	closed, open := b.phases()
	share := (b.sp.mix[opAdd] + b.sp.mix[opDelete]) / sumMix(b.sp.mix)
	expected := share * (closed.Seconds()*b.sp.maxThroughput + open.Seconds()*b.sp.rate)
	n := int(math.Ceil(expected/float64(b.clients))) + b.sp.prefill/b.clients
	b.models = make([]*model, b.clients)
	b.writes = make([]*writeStream, b.clients)
	for c := range b.models {
		b.models[c] = preloadModel(b.cp, c, b.clients)
		b.writes[c] = &writeStream{ops: genWrites(b.sp, b.cp, b.models[c], b.seed, c, n)}
	}
}

func sumMix(mix [numKinds]float64) float64 {
	s := 0.0
	for _, w := range mix {
		s += w
	}
	return s
}

// setup builds the stack from empty servers and ingests the preload through
// the front door, then compacts and waits for a query to answer.
func (b *bench) setup(wrap func(string, int, http.Handler) http.Handler) (*stack, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	st, err := startStack(b.sp, wrap)
	if err != nil {
		return nil, 0, err
	}
	cl := newClient(st.front, b.clients)
	defer cl.close()
	var wg sync.WaitGroup
	errs := make([]error, b.clients)
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range b.cp.keys {
				if clientOf(i, b.clients) != c {
					continue
				}
				o := op{kind: opAdd, key: b.cp.keys[i], tmpl: i}
				if err := cl.do(b.cp, &o, "", nil); err != nil {
					errs[c] = fmt.Errorf("setup: %w", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		st.close()
		return nil, 0, err
	}
	if err := cl.post("/compact", nil, "", nil, nil); err != nil {
		st.close()
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	if err := cl.do(b.cp, &op{kind: opQuery, tmpl: 0}, "", nil); err != nil {
		st.close()
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return st, time.Since(start), nil
}

// warm readies the stack for timing, untimed: the workload's prefill
// writes from the clients' lists, a second of reads so connections and
// caches settle, then garbage collection.
func (b *bench) warm(cl *client) {
	var wg sync.WaitGroup
	for _, ws := range b.writes {
		wg.Add(1)
		go func(ws *writeStream) {
			defer wg.Done()
			for ws.next < b.sp.prefill/b.clients {
				o, _ := ws.take()
				b.t.note(cl.do(b.cp, &o, b.ids.next(), nil))
			}
		}(ws)
	}
	wg.Wait()
	idle := make([]*writeStream, b.clients) // reads only: the warm-up leaves the contents alone
	for c := range idle {
		idle[c] = &writeStream{}
	}
	var t tally
	closedLoop(cl, b.cp, b.sp, b.seed, phaseWarm, idle, time.Second, &t, &b.ids, nil)
	b.t.attempted.Add(t.attempted.Load())
	b.t.failed.Add(t.failed.Load())
	b.t.wrong.Add(t.wrong.Load())
	runtime.GC()
}

// finish drains the write lists, quiesces with /compact and runs the
// answer checks.
func (b *bench) finish(st *stack, cl *client) (accuracy, error) {
	drain(cl, b.cp, b.writes, &b.t, &b.ids)
	if err := cl.post("/compact", nil, "", nil, nil); err != nil {
		return accuracy{}, fmt.Errorf("quiesce: %w", err)
	}
	return quiescedCheck(cl, b.cp, finalState(b.models), b.seed, &b.t)
}

// residentBytesPerDomain sums every shard's segment resident bytes and
// buffered signature bytes over its live domains.
func residentBytesPerDomain(st *stack) float64 {
	var bytes, domains float64
	for _, s := range st.shards {
		ls := s.idx.Stats()
		segSig := 0
		for _, sd := range ls.SegmentDetail {
			bytes += float64(sd.ResidentBytes)
			segSig += sd.SignatureBytes
		}
		bytes += float64(ls.SignatureBytes - int64(segSig))
		domains += float64(ls.Domains)
	}
	return ratio(bytes, domains)
}

func (b *bench) result() result {
	return result{
		Correct:   b.t.wrong.Load() == 0 && b.t.failed.Load() == 0,
		Attempted: b.t.attempted.Load(),
		Failed:    b.t.failed.Load(),
		Metrics:   b.m.result(),
	}
}

func (b *bench) logErrors() {
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	for _, e := range b.t.errs {
		fmt.Fprintln(b.stderr, "perfbench: op failed:", e)
	}
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced() (result, error) {
	b.m = newMetrics()
	b.prepare()
	var st *stack
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
		}
		var d time.Duration
		var err error
		if st, d, err = b.setup(nil); err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
	}
	defer st.close()
	cl := newClient(st.front, b.clients)
	defer cl.close()

	closed, open := b.phases()
	b.warm(cl)
	samples, _, steal := openLoop(cl, b.cp, b.sp, b.seed, b.writes, b.sp.rate, open, &b.t, &b.ids, nil)
	runtime.GC()
	thr, cpuPerOp := closedLoop(cl, b.cp, b.sp, b.seed, phaseClosed, b.writes, closed, &b.t, &b.ids, nil)
	acc, err := b.finish(st, cl)

	lat := func(k opKind, q float64) float64 { return windowed(samples, k, q) }
	var late []float64
	count := map[string]int{}
	for _, s := range samples {
		late = append(late, ms(s.late))
		count[s.kind.String()]++
	}
	m := b.m
	m.set("setup_s", "s", median(setups))
	m.set("throughput_ops_per_s", "ops/s", thr)
	m.set("cpu_us_per_op", "us", cpuPerOp)
	m.set("success_rate", "ratio", 1-ratio(float64(b.t.failed.Load()), float64(b.t.attempted.Load())))
	m.set("recall", "ratio", acc.recall())
	m.set("precision", "ratio", acc.precision())
	m.set("resident_bytes_per_domain", "B", residentBytesPerDomain(st))
	// Printed without a bound: their run-to-run spread on a shared machine
	// is wider than any bound BENCHMARK.json may set (see the package doc).
	m.extra("query_p50_ms", "ms", lat(opQuery, 0.5))
	m.extra("query_p99_ms", "ms", lat(opQuery, 0.99))
	m.extra("topk_p50_ms", "ms", lat(opTopK, 0.5))
	m.extra("topk_p99_ms", "ms", lat(opTopK, 0.99))
	m.extra("batch_p50_ms", "ms", lat(opBatch, 0.5))
	m.extra("add_p50_ms", "ms", lat(opAdd, 0.5))
	m.extra("delete_p50_ms", "ms", lat(opDelete, 0.5))
	m.extra("batch_p99_ms", "ms", lat(opBatch, 0.99))
	m.extra("add_p99_ms", "ms", lat(opAdd, 0.99))
	m.extra("delete_p99_ms", "ms", lat(opDelete, 0.99))

	lateP99 := quantile(late, 0.99)
	b.record["loadgen.late_ms_p99"] = lateP99
	b.record["valid"] = lateP99 <= ms(maxLate)
	b.record["samples"] = count
	b.record["open_loop_steal_by_window"] = steal
	b.record["writes_exhausted"] = b.t.exhausted.Load()
	b.record["setup_s_each"] = setups
	if lateP99 > ms(maxLate) {
		fmt.Fprintf(b.stderr, "perfbench: run invalid: open-loop generator p99 lateness %.1f ms exceeds %v\n", lateP99, maxLate)
	}
	b.logErrors()
	return b.result(), err
}
