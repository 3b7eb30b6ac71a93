package core

import (
	"testing"

	"lshensemble/internal/minhash"
	"lshensemble/internal/xrand"
)

// topKFixture builds nested prefix domains: domain i holds values
// [0, 20·(i+1)), so for a query of the first 20 values every domain fully
// contains it, while reversed queries rank larger domains lower.
func topKFixture(t testing.TB, numHash int) (*Index, *minhash.Hasher, [][]uint64) {
	t.Helper()
	h := minhash.NewHasher(numHash, 5)
	var recs []Record
	var vals [][]uint64
	for i := 0; i < 20; i++ {
		n := 20 * (i + 1)
		v := make([]uint64, n)
		hv := make([]uint64, n)
		for j := 0; j < n; j++ {
			v[j] = uint64(j)
			hv[j] = minhash.HashUint64(uint64(j))
		}
		vals = append(vals, v)
		recs = append(recs, Record{Key: key(i), Size: n, Sig: h.Sketch(hv)})
	}
	idx, err := Build(recs, Options{NumHash: numHash, RMax: 8, NumPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	return idx, h, vals
}

func key(i int) string { return string(rune('a' + i)) }

// mustTopK is the test shorthand for QueryTopK; it fails the test on any
// error.
func mustTopK(t testing.TB, x *Index, sig minhash.Signature, querySize, k int) []TopKResult {
	t.Helper()
	top, err := x.QueryTopK(sig, querySize, k)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestQueryTopKRanksBySizeOnNestedPrefixes(t *testing.T) {
	idx, h, _ := topKFixture(t, 256)
	// Query = domain 5's values [0, 120): it is fully contained in domains
	// 5..19 (est. containment ~1) and partially in 0..4. Top-1 should have
	// estimated containment near 1.
	q := make([]uint64, 120)
	for j := range q {
		q[j] = minhash.HashUint64(uint64(j))
	}
	sig := h.Sketch(q)
	top := mustTopK(t, idx, sig, 120, 5)
	if len(top) != 5 {
		t.Fatalf("got %d results, want 5", len(top))
	}
	if top[0].EstContainment < 0.9 {
		t.Fatalf("top result containment %v, want ~1", top[0].EstContainment)
	}
	// Scores must be non-increasing.
	for i := 1; i < len(top); i++ {
		if top[i].EstContainment > top[i-1].EstContainment+1e-12 {
			t.Fatalf("ranking not sorted at %d", i)
		}
	}
}

func TestQueryTopKSelfFirst(t *testing.T) {
	idx, _, _ := topKFixture(t, 256)
	// Query with domain 19 (largest): only supersets of it are itself.
	sig := idx.Signature(19)
	top := mustTopK(t, idx, sig, idx.Size(19), 3)
	if len(top) == 0 || top[0].Key != key(19) {
		t.Fatalf("self not ranked first: %+v", top)
	}
	if top[0].EstContainment < 0.99 {
		t.Fatalf("self containment %v", top[0].EstContainment)
	}
}

func TestQueryTopKEdgeCases(t *testing.T) {
	idx, h, _ := topKFixture(t, 256)
	sig := h.Sketch([]uint64{minhash.HashUint64(7)})
	if got := mustTopK(t, idx, sig, 1, 0); got != nil {
		t.Fatal("k=0 should return nil")
	}
	if got := mustTopK(t, idx, sig, 0, 5); got != nil {
		t.Fatal("querySize=0 should return nil")
	}
	// k larger than corpus: returns at most corpus size, no panic.
	full := mustTopK(t, idx, idx.Signature(0), idx.Size(0), 1000)
	if len(full) > idx.Len() {
		t.Fatalf("returned %d > corpus %d", len(full), idx.Len())
	}
}

func TestQueryTopKSurvivesSerialization(t *testing.T) {
	idx, _, _ := topKFixture(t, 128)
	buf := idx.AppendBinary(nil)
	loaded, _, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	a := mustTopK(t, idx, idx.Signature(3), idx.Size(3), 4)
	b := mustTopK(t, loaded, loaded.Signature(3), loaded.Size(3), 4)
	if len(a) != len(b) {
		t.Fatalf("topk differs after decode: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatalf("topk order differs at %d: %s vs %s", i, a[i].Key, b[i].Key)
		}
	}
}

// TestCompareTopK pins the one ranking order every layer sorts top-k
// answers with: score descending, ties broken by key ascending.
func TestCompareTopK(t *testing.T) {
	for _, c := range []struct {
		a, b TopKResult
		want int
	}{
		{TopKResult{"b", 0.9}, TopKResult{"a", 0.5}, -1}, // higher score first
		{TopKResult{"a", 0.5}, TopKResult{"b", 0.9}, 1},
		{TopKResult{"a", 0.7}, TopKResult{"b", 0.7}, -1}, // tie: key ascending
		{TopKResult{"b", 0.7}, TopKResult{"a", 0.7}, 1},
		{TopKResult{"a", 0.7}, TopKResult{"a", 0.7}, 0},
	} {
		if got := CompareTopK(c.a, c.b); got != c.want {
			t.Errorf("CompareTopK(%+v, %+v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// spreadTestIndex builds a small index with a size spread wide enough that
// different (querySize, tStar) pairs skip different partitions.
func spreadTestIndex(t *testing.T, n int) (*Index, []Record) {
	t.Helper()
	rng := xrand.New(42)
	recs := make([]Record, n)
	for i := range recs {
		size := 4 + int(rng.Uint64()%512)
		sig := make(minhash.Signature, 128)
		for j := range sig {
			// Overlapping value pools so queries actually collide.
			sig[j] = rng.Uint64() % 4096 << 3
		}
		recs[i] = Record{Key: keyOf(i), Size: size, Sig: sig}
	}
	x, err := Build(recs, Options{NumHash: 128, RMax: 8, NumPartitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	return x, recs
}

func keyOf(i int) string {
	return string([]byte{'k', byte('a' + i%26), byte('a' + (i/26)%26), byte('0' + i%10)})
}

func TestQueryTopKIDsMatchesQueryTopK(t *testing.T) {
	x, recs := spreadTestIndex(t, 300)
	for qi := 0; qi < 20; qi++ {
		rec := recs[qi*11%len(recs)]
		const k = 10
		ids, err := x.QueryTopKIDs(nil, rec.Sig, rec.Size, k)
		if err != nil {
			t.Fatal(err)
		}
		full, err := x.QueryTopK(rec.Sig, rec.Size, k)
		if err != nil {
			t.Fatal(err)
		}
		// QueryTopK is the scored, ranked, truncated view of the same
		// candidate collection: every ranked key must appear among the ids.
		got := make(map[string]bool, len(ids))
		for _, id := range ids {
			got[x.Key(id)] = true
		}
		for _, r := range full {
			if !got[r.Key] {
				t.Fatalf("QueryTopK key %q missing from QueryTopKIDs candidates", r.Key)
			}
		}
		if len(ids) < len(full) {
			t.Fatalf("candidate set smaller than ranked result: %d < %d", len(ids), len(full))
		}
	}
}
