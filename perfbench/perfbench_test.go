package main

import (
	"errors"
	"reflect"
	"testing"
)

// firstOps draws n ops of one client's phase the way the load loops do.
func firstOps(sp spec, cp *corpus, seed uint64, ph phase, client int, ws *writeStream, n int) []op {
	ks := newKindStream(sp, seed, ph, client)
	rs := newReadStream(sp, cp, seed, ph, client)
	var t tally
	out := make([]op, n)
	for i := range out {
		out[i] = nextOp(ks, rs, ws, &t)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			gen := func(seed uint64) (*corpus, [][]op, [][]op, map[string]int) {
				cp := newCorpus(400, seed)
				var writes, reads [][]op
				var models []*model
				for c := 0; c < 2; c++ {
					m := preloadModel(cp, c, 2)
					w := genWrites(sp, cp, m, seed, c, 200)
					writes = append(writes, w)
					models = append(models, m)
					ws := &writeStream{ops: w}
					reads = append(reads, firstOps(sp, cp, seed, phaseOpen, c, ws, 300))
				}
				return cp, writes, reads, finalState(models)
			}
			cp1, w1, r1, f1 := gen(7)
			cp2, w2, r2, f2 := gen(7)
			if !reflect.DeepEqual(cp1, cp2) {
				t.Fatal("same seed gave different corpora")
			}
			if !reflect.DeepEqual(w1, w2) || !reflect.DeepEqual(r1, r2) {
				t.Fatal("same seed gave different op sequences")
			}
			if !reflect.DeepEqual(f1, f2) {
				t.Fatal("same seed gave different final contents")
			}
			cp3, w3, r3, _ := gen(8)
			if reflect.DeepEqual(cp1.ids, cp3.ids) || reflect.DeepEqual(w1, w3) || reflect.DeepEqual(r1, r3) {
				t.Fatal("different seeds gave identical inputs")
			}
		})
	}
}

func TestWriteStreamsKeepClientSlicesDisjoint(t *testing.T) {
	sp, _ := specByName("churn")
	cp := newCorpus(300, 3)
	owner := map[string]int{}
	for c := 0; c < 2; c++ {
		m := preloadModel(cp, c, 2)
		for _, o := range genWrites(sp, cp, m, 3, c, 500) {
			if prev, ok := owner[o.key]; ok && prev != c {
				t.Fatalf("key %q written by clients %d and %d", o.key, prev, c)
			}
			owner[o.key] = c
		}
	}
	for i, k := range cp.keys {
		if c, ok := owner[k]; ok && c != clientOf(i, 2) {
			t.Fatalf("preload key %q written by client %d, owned by %d", k, c, clientOf(i, 2))
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 20, End: 60}, // overlaps the next one: a parallel shard call
		{Start: 10, End: 40},
		{Start: 70, End: 80},
		{Start: 90, End: 120}, // runs past the parent: only 90–100 counts
		{Start: 75, End: 78},  // nested inside another child
	}
	// Covered: [10,60] + [70,80] + [90,100] = 70.
	if got := selfTime(parent, children); got != 30 {
		t.Fatalf("self time %d, want 30", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children %d, want 100", got)
	}
	if got := selfTime(parent, []span{{Start: 0, End: 100}, {Start: 0, End: 100}}); got != 0 {
		t.Fatalf("self time under identical parallel children %d, want 0", got)
	}
}

func TestResolveParents(t *testing.T) {
	spans := []span{
		{ID: 0, Req: "r1", Name: "client", Shard: -1},
		{ID: 1, Req: "r1", Name: "cluster", Shard: -1},
		{ID: 2, Req: "r1", Name: "serve", Shard: 0},
		{ID: 3, Req: "r1", Name: "serve", Shard: 1},
		{ID: 4, Req: "r1", Name: "live", Shard: 1},
		{ID: 5, Req: "r2", Name: "client", Shard: -1},
		{ID: 6, Req: "r2", Name: "serve", Shard: 0},
	}
	resolve(spans)
	want := []int{-1, 0, 1, 1, 3, -1, 5}
	for i, s := range spans {
		if s.Parent != want[i] {
			t.Errorf("span %d (%s) parent %d, want %d", i, s.Name, s.Parent, want[i])
		}
	}
}

func isWrong(err error) bool {
	var w *errWrongAnswer
	return errors.As(err, &w)
}

func TestChecksRejectPlantedWrongAnswers(t *testing.T) {
	truth := map[string]bool{"a": true, "b": true}
	var exact accuracy
	exact.add([]string{"a", "b"}, truth)
	if err := exact.checkFloors(recallFloor, precisionFloor); err != nil {
		t.Fatalf("exact answer rejected: %v", err)
	}
	var missing accuracy
	missing.add([]string{"a"}, truth) // true match b is missing
	if err := missing.checkFloors(recallFloor, precisionFloor); !isWrong(err) {
		t.Fatalf("missing true match accepted: %v", err)
	}

	live := map[string]int{"a": 0, "b": 1}
	if err := checkLive([]string{"a", "b"}, live); err != nil {
		t.Fatalf("live keys rejected: %v", err)
	}
	if err := checkLive([]string{"a", "deleted"}, live); !isWrong(err) {
		t.Fatalf("deleted key accepted: %v", err)
	}

	sorted := []topkMatch{{"a", 0.9}, {"b", 0.9}, {"c", 0.4}}
	if err := checkTopK(sorted, 3); err != nil {
		t.Fatalf("valid top-k rejected: %v", err)
	}
	for name, ms := range map[string][]topkMatch{
		"unsorted":  {{"a", 0.4}, {"b", 0.9}},
		"duplicate": {{"a", 0.9}, {"a", 0.8}},
		"too long":  {{"a", 0.9}, {"b", 0.8}, {"c", 0.7}, {"d", 0.6}},
	} {
		if err := checkTopK(ms, 3); !isWrong(err) {
			t.Errorf("%s top-k accepted: %v", name, err)
		}
	}

	if err := checkBatch(make([]queryAnswer, 3), 3); err != nil {
		t.Fatalf("full batch rejected: %v", err)
	}
	if err := checkBatch(make([]queryAnswer, 2), 3); !isWrong(err) {
		t.Fatalf("short batch accepted: %v", err)
	}
	if err := checkPartial(true); !isWrong(err) {
		t.Fatalf("partial answer accepted: %v", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Fatalf("median %v, want 3", got)
	}
	if got := quantile([]float64{0, 10}, 0.99); got != 9.9 {
		t.Fatalf("p99 %v, want 9.9", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile %v, want 0", got)
	}
}
