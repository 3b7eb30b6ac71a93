package live

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lshensemble/internal/core"
)

// cancelFixture builds a live index with several sealed segments plus a
// non-empty buffer, so the Context variants have real segment loops and a
// buffer scan to bail out of.
func cancelFixture(t *testing.T) (*Index, []core.Record) {
	t.Helper()
	recs := fixture(t, 200, 9)
	x, err := Build(recs[:120], liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(x.Close)
	for _, r := range recs[120:160] {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	x.Flush() // second segment
	for _, r := range recs[160:] {
		if _, err := x.Add(r); err != nil { // stays buffered
			t.Fatal(err)
		}
	}
	return x, recs
}

// TestQueryContextCanceled: every Context query entry point must refuse a
// canceled context — and the result cache must never be poisoned by a
// truncated answer, so the same query re-run uncanceled returns the full
// result set.
func TestQueryContextCanceled(t *testing.T) {
	x, recs := cancelFixture(t)
	r := recs[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if got, err := x.QueryContext(ctx, r.Sig, r.Size, 0.5); !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("QueryContext = (%v, %v), want (nil, Canceled)", got, err)
	}
	if got, err := x.QueryTopKContext(ctx, r.Sig, r.Size, 5); !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("QueryTopKContext = (%v, %v), want (nil, Canceled)", got, err)
	}
	queries := []core.BatchQuery{{Sig: r.Sig, Size: r.Size, Threshold: 0.5}}
	if rows, err := x.QueryBatchContext(ctx, queries, 2); !errors.Is(err, context.Canceled) || rows != nil {
		t.Fatalf("QueryBatchContext = (%v, %v), want (nil, Canceled)", rows, err)
	}

	// The canceled attempts must not have cached truncated rows: the plain
	// path still answers in full and finds the query's own key.
	got := x.Query(r.Sig, r.Size, 0.5)
	if !contains(got, r.Key) {
		t.Fatalf("post-cancellation query lost self-retrieval: %v", got)
	}
}

// TestQueryContextCanceledBufferOnly: with the whole corpus buffered there
// is no segment loop to notice cancellation, so the buffer passes of the
// threshold and top-k shapes must check the context themselves.
func TestQueryContextCanceledBufferOnly(t *testing.T) {
	recs := fixture(t, 40, 9)
	x, err := New(liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(x.Close)
	for _, r := range recs {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if st := x.Stats(); len(st.Segments) != 0 || st.Buffered != len(recs) {
		t.Fatalf("fixture shape wrong: %+v", st)
	}
	r := recs[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := x.QueryContext(ctx, r.Sig, r.Size, 0.5); !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("QueryContext = (%v, %v), want (nil, Canceled)", got, err)
	}
	if got, err := x.QueryTopKContext(ctx, r.Sig, r.Size, 5); !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("QueryTopKContext = (%v, %v), want (nil, Canceled)", got, err)
	}
}

// TestQueryContextUncanceledMatchesPlain: a live (uncanceled) context must
// not change any answer relative to the context-free entry points.
func TestQueryContextUncanceledMatchesPlain(t *testing.T) {
	x, recs := cancelFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < len(recs); i += 17 {
		r := recs[i]
		want := x.Query(r.Sig, r.Size, 0.5)
		got, err := x.QueryContext(ctx, r.Sig, r.Size, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if !equalKeySets(got, want) {
			t.Fatalf("record %d: ctx path %d keys, plain path %d", i, len(got), len(want))
		}
		wantTop := x.QueryTopK(r.Sig, r.Size, 5)
		gotTop, err := x.QueryTopKContext(ctx, r.Sig, r.Size, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotTop) != len(wantTop) {
			t.Fatalf("record %d: topk lengths differ: %d vs %d", i, len(gotTop), len(wantTop))
		}
		for j := range gotTop {
			if gotTop[j] != wantTop[j] {
				t.Fatalf("record %d topk rank %d: %+v vs %+v", i, j, gotTop[j], wantTop[j])
			}
		}
	}
	var queries []core.BatchQuery
	for i := 0; i < len(recs); i += 11 {
		queries = append(queries, core.BatchQuery{Sig: recs[i].Sig, Size: recs[i].Size, Threshold: 0.5})
	}
	want := x.QueryBatch(queries, 2)
	got, err := x.QueryBatchContext(ctx, queries, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !equalKeySets(got[i], want[i]) {
			t.Fatalf("batch row %d differs under uncanceled context", i)
		}
	}
}

// countingCtx is a context that reports itself canceled from its limit-th
// Err call on, so a test cancels a batch at a deterministic point inside
// it — no timers, no sleeps.
type countingCtx struct {
	context.Context
	calls atomic.Int64
	limit int64
}

func newCountingCtx(limit int64) *countingCtx {
	return &countingCtx{Context: context.Background(), limit: limit}
}

func (c *countingCtx) Err() error {
	if c.calls.Add(1) >= c.limit {
		return context.Canceled
	}
	return nil
}

// TestQueryBatchContextStopsMidBatch cancels a batch partway through and
// requires the fan-out to (a) return (nil, Canceled), (b) stop starting
// rows — every started row does one result-cache lookup after an Err check
// that passed, so at most limit-1 rows may have started out of 600 — and
// (c) leave no truncated row in the result cache: the same queries re-run
// uncanceled match the unplanned reference exactly.
func TestQueryBatchContextStopsMidBatch(t *testing.T) {
	x, recs := cancelFixture(t)
	queries := make([]core.BatchQuery, 600)
	for i := range queries {
		r := recs[i%len(recs)]
		queries[i] = core.BatchQuery{Sig: r.Sig, Size: r.Size, Threshold: 0.25 * float64(1+i/len(recs))}
	}
	for _, workers := range []int{1, 4} {
		const limit = 8
		before := x.Stats().Planner
		ctx := newCountingCtx(limit)
		if rows, err := x.QueryBatchContext(ctx, queries, workers); !errors.Is(err, context.Canceled) || rows != nil {
			t.Fatalf("workers=%d: QueryBatchContext = (%d rows, %v), want (nil, Canceled)", workers, len(rows), err)
		}
		after := x.Stats().Planner
		if started := after.ResultHits + after.ResultMisses - before.ResultHits - before.ResultMisses; started >= limit {
			t.Fatalf("workers=%d: %d rows started after cancellation at Err call %d", workers, started, limit)
		}
	}
	for i, q := range queries[:40] {
		if got, want := x.Query(q.Sig, q.Size, q.Threshold), refQuery(x, q.Sig, q.Size, q.Threshold); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d after canceled batches: %v, want %v", i, got, want)
		}
	}
}

// TestQueryBatchContextNoGoroutineLeak hammers cancellation mid-batch and
// requires the goroutine count to return to its baseline: canceled batch
// workers must exit, not park.
func TestQueryBatchContextNoGoroutineLeak(t *testing.T) {
	x, recs := cancelFixture(t)
	queries := make([]core.BatchQuery, 400)
	for i := range queries {
		r := recs[i%len(recs)]
		queries[i] = core.BatchQuery{Sig: r.Sig, Size: r.Size, Threshold: 0.25}
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if _, err := x.QueryBatchContext(newCountingCtx(4), queries, 4); !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: err = %v, want context.Canceled", i, err)
		}
	}
	// QueryBatchContext waits for its workers before returning, so the
	// count should already be back; poll briefly to absorb runtime noise.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after cancellation hammer", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
