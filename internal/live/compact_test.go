package live

import (
	"bytes"
	"math/rand"
	"testing"

	"lshensemble/internal/core"
	"lshensemble/internal/minhash"
)

// TestWritesRacingCompaction lands a Delete and a replacing Add between a
// compaction's off-lock build and its publish — for a seal, an incremental
// merge and a full Compact — through the publish hook. The build has
// already copied both cleared entries, so only the publish step's slot
// carry keeps them hidden. After the publish, and again after a Save→Load
// round trip, the deleted key and the replaced version must stay hidden,
// the new version must be visible, and Stats must count every physical
// entry as either a live domain or a pending clear.
func TestWritesRacingCompaction(t *testing.T) {
	recs := fixture(t, 90, 21)
	rng := rand.New(rand.NewSource(21))
	alien := make(minhash.Signature, 128)
	for i := range alien {
		alien[i] = rng.Uint64()
	}
	for _, tc := range []struct {
		name    string
		setup   func(t *testing.T, x *Index) // leaves the state the hook races
		compact func(x *Index)
	}{
		{"seal", func(t *testing.T, x *Index) { addAll(t, x, recs[:60]) }, (*Index).Flush},
		{"merge", func(t *testing.T, x *Index) {
			for i := 0; i < 4; i++ {
				addAll(t, x, recs[i*15:(i+1)*15])
				x.Flush()
			}
		}, func(x *Index) { x.mergeIfCrowded() }},
		{"compact", func(t *testing.T, x *Index) {
			addAll(t, x, recs[:30])
			x.Flush()
			addAll(t, x, recs[30:60])
			x.Flush()
		}, (*Index).Compact},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x, err := New(liveOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer x.Close()
			tc.setup(t, x)
			// The two smallest segments are the first two here, so the
			// merge victims hold both keys.
			deleted, replaced := recs[3], recs[17]
			newer := core.Record{Key: replaced.Key, Size: replaced.Size, Sig: alien}
			fired := 0
			x.publishHook = func() {
				fired++
				if !x.Delete(deleted.Key) {
					t.Error("Delete in the hook found no entry")
				}
				if ok, err := x.Add(newer); err != nil || !ok {
					t.Errorf("replacing Add in the hook = (%v, %v)", ok, err)
				}
			}
			tc.compact(x)
			x.publishHook = nil
			if fired != 1 {
				t.Fatalf("publish hook ran %d times, want 1", fired)
			}
			loaded, err := Load(bytes.NewReader(x.AppendBinary(nil)), liveOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()
			checkRaced(t, x, deleted, replaced, newer, 59)
			checkRaced(t, loaded, deleted, replaced, newer, 59)
		})
	}
}

func addAll(t *testing.T, x *Index, recs []core.Record) {
	t.Helper()
	for _, r := range recs {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
}

// checkRaced asserts the state TestWritesRacingCompaction's writes leave —
// deleted gone, replaced superseded by newer, domains live domains and
// exactly two cleared entries pending — and that a Compact then drops the
// two without changing the answers.
func checkRaced(t *testing.T, x *Index, deleted, replaced, newer core.Record, domains int) {
	t.Helper()
	if got := x.Query(deleted.Sig, deleted.Size, 0.5); contains(got, deleted.Key) {
		t.Fatalf("deleted key %s visible: %v", deleted.Key, got)
	}
	if got := x.Query(replaced.Sig, replaced.Size, 0.5); contains(got, replaced.Key) {
		t.Fatalf("replaced version of %s visible: %v", replaced.Key, got)
	}
	if got := x.Query(newer.Sig, newer.Size, 0.5); len(got) != 1 || got[0] != newer.Key {
		t.Fatalf("new version query = %v, want [%s]", got, newer.Key)
	}
	if top := x.QueryTopK(newer.Sig, newer.Size, 1); len(top) != 1 || top[0].Key != newer.Key || top[0].EstContainment != 1 {
		t.Fatalf("new version top-1 = %v", top)
	}
	st := x.Stats()
	held := st.Buffered
	for _, n := range st.Segments {
		held += n
	}
	if st.Domains != domains || st.Tombstones != 2 || held != st.Domains+st.Tombstones {
		t.Fatalf("stats disagree: %d domains, %d pending clears, %d entries held (want %d domains, 2 clears)",
			st.Domains, st.Tombstones, held, domains)
	}
	x.Compact()
	if st := x.Stats(); st.Domains != domains || st.Tombstones != 0 {
		t.Fatalf("after Compact: %d domains, %d pending clears", st.Domains, st.Tombstones)
	}
	if got := x.Query(deleted.Sig, deleted.Size, 0.5); contains(got, deleted.Key) {
		t.Fatalf("deleted key %s visible after Compact", deleted.Key)
	}
	if got := x.Query(newer.Sig, newer.Size, 0.5); len(got) != 1 || got[0] != newer.Key {
		t.Fatalf("new version query after Compact = %v", got)
	}
}
