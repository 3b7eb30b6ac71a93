package live

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lshensemble/internal/core"
)

// countingObserver tallies ObserveQuery callbacks per kind.
type countingObserver struct {
	counts [3]atomic.Uint64
	total  atomic.Int64 // summed nanoseconds, to check durations are sane
}

func (o *countingObserver) ObserveQuery(kind QueryKind, d time.Duration) {
	o.counts[kind].Add(1)
	o.total.Add(int64(d))
}

// TestObserverCallbacks checks every query entry point reports exactly one
// observation of the right kind — including result-cache hits — and that
// SetObserver(nil) detaches cleanly.
func TestObserverCallbacks(t *testing.T) {
	recs := fixture(t, 64, 31)
	x, err := Build(recs, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	o := &countingObserver{}
	x.SetObserver(o)

	q := recs[0]
	x.Query(q.Sig, q.Size, 0.5)
	x.Query(q.Sig, q.Size, 0.5) // result-cache hit: still observed
	if got := o.counts[KindQuery].Load(); got != 2 {
		t.Errorf("query observations = %d, want 2 (cache hits observed too)", got)
	}
	x.QueryTopK(q.Sig, q.Size, 5)
	if got := o.counts[KindTopK].Load(); got != 1 {
		t.Errorf("topk observations = %d, want 1", got)
	}
	batch := []core.BatchQuery{
		{Sig: recs[1].Sig, Size: recs[1].Size, Threshold: 0.5},
		{Sig: recs[2].Sig, Size: recs[2].Size, Threshold: 0.5},
	}
	x.QueryBatch(batch, 1)
	if got := o.counts[KindBatch].Load(); got != 1 {
		t.Errorf("batch observations = %d, want 1 (whole batch = one observation)", got)
	}
	if o.total.Load() < 0 {
		t.Error("negative observed duration")
	}

	x.SetObserver(nil)
	x.Query(q.Sig, q.Size, 0.5)
	if got := o.counts[KindQuery].Load(); got != 2 {
		t.Errorf("detached observer still called: %d observations", got)
	}
}

// TestObserverConcurrent hammers the observer from concurrent queriers and
// a writer while SetObserver flips between two observers (run under -race).
func TestObserverConcurrent(t *testing.T) {
	recs := fixture(t, 128, 32)
	opts := liveOpts()
	opts.ManualCompaction = false
	opts.SealThreshold = 16
	x, err := Build(recs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	a, b := &countingObserver{}, &countingObserver{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := recs[(i+w)%len(recs)]
				x.Query(q.Sig, q.Size, 0.5)
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			x.SetObserver(a)
		} else {
			x.SetObserver(b)
		}
		if i%10 == 0 {
			x.SetObserver(nil)
		}
	}
	close(stop)
	wg.Wait()
}

// TestQueryTraceBreakdown checks the per-query trace mirrors the planner's
// decisions: segment counts partition into probed/range-pruned/bloom-pruned,
// buffer flags are set, and a repeat query reports its result-cache hit.
func TestQueryTraceBreakdown(t *testing.T) {
	recs := fixture(t, 96, 33)
	opts := liveOpts()
	opts.MaxSegments = 64 // no merging: keep several segments around
	x, err := Build(recs[:64], opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	// Two more sealed segments plus a non-empty buffer.
	for _, r := range recs[64:80] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	x.Flush()
	for _, r := range recs[80:88] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}

	q := recs[3]
	var tr QueryTrace
	ctx := WithQueryTrace(context.Background(), &tr)
	got, err := x.QueryContext(ctx, q.Sig, q.Size, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	plain := x.Query(q.Sig, q.Size, 0.5)
	if len(got) != len(plain) {
		t.Fatalf("traced query returned %d keys, plain %d — tracing changed the answer", len(got), len(plain))
	}
	st := x.Stats()
	if tr.Segments != len(st.Segments) {
		t.Errorf("trace.Segments = %d, want %d", tr.Segments, len(st.Segments))
	}
	if tr.Buffered != st.Buffered {
		t.Errorf("trace.Buffered = %d, want %d", tr.Buffered, st.Buffered)
	}
	if sum := tr.SegmentsProbed + tr.SegmentsRangePruned + tr.SegmentsBloomPruned; sum != tr.Segments {
		t.Errorf("probed %d + range %d + bloom %d = %d, want every segment decided (%d)",
			tr.SegmentsProbed, tr.SegmentsRangePruned, tr.SegmentsBloomPruned, sum, tr.Segments)
	}
	if tr.ResultCacheHit {
		t.Error("first query reported a result-cache hit")
	}
	if !tr.BufferScanned {
		t.Error("non-empty buffer but its index was not walked")
	}

	// Same query again: answered from the result cache, and the trace says
	// so without claiming any segment work.
	var tr2 QueryTrace
	if _, err := x.QueryContext(WithQueryTrace(context.Background(), &tr2), q.Sig, q.Size, 0.5); err != nil {
		t.Fatal(err)
	}
	if !tr2.ResultCacheHit {
		t.Error("repeat query did not report a result-cache hit")
	}
	if tr2.SegmentsProbed != 0 || tr2.BufferScanned {
		t.Errorf("cache-hit trace claims segment/buffer work: %+v", tr2)
	}
}
