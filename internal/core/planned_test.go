package core

import (
	"testing"

	"lshensemble/internal/minhash"
	"lshensemble/internal/xrand"
)

// plannedTestIndex builds a small index with a size spread wide enough that
// different (querySize, tStar) pairs skip different partitions.
func plannedTestIndex(t *testing.T, n int) (*Index, []Record) {
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
	x, recs := plannedTestIndex(t, 300)
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

func TestEachTreeLeadingCoversProbes(t *testing.T) {
	x, recs := plannedTestIndex(t, 150)
	// Collect every leading column value; any query that produces a
	// collision must have its per-tree leading value present in the set —
	// the invariant segment Bloom pruning relies on.
	seen := make(map[uint64]bool)
	trees := 0
	x.EachTreeLeading(func(tree int, col []uint64) {
		trees++
		for _, v := range col {
			seen[v] = true
		}
	})
	if trees == 0 {
		t.Fatal("EachTreeLeading visited no trees")
	}
	rmax := 8
	for qi := 0; qi < 30; qi++ {
		rec := recs[qi%len(recs)]
		ids, err := x.QueryIDsAppend(nil, rec.Sig, rec.Size, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) == 0 {
			continue
		}
		// At least one tree's leading value must be in the collected set
		// (in fact every colliding tree's is; one suffices for the test).
		hit := false
		for tr := 0; tr*rmax < len(rec.Sig); tr++ {
			if seen[rec.Sig[tr*rmax]] {
				hit = true
				break
			}
		}
		if !hit {
			t.Fatalf("query %d collided but no leading value found in tree columns", qi)
		}
	}
}
