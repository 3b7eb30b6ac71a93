package live

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"lshensemble/internal/core"
	"lshensemble/internal/minhash"
)

// trio builds three indexes over the same initial corpus: pure in-memory,
// spill-to-disk with heap reads, and spill-to-disk with mmap reads. Every
// behavioral test drives them through identical operations and demands
// identical answers — the out-of-core representation must be invisible.
func trio(t *testing.T, recs []core.Record) (heap, spill, mapped *Index) {
	t.Helper()
	mk := func(dataDir string, mmap bool) *Index {
		opts := liveOpts()
		opts.DataDir = dataDir
		opts.Mmap = mmap
		x, err := Build(recs, opts)
		if err != nil {
			t.Fatalf("Build(dataDir=%q, mmap=%v): %v", dataDir, mmap, err)
		}
		return x
	}
	heap = mk("", false)
	spill = mk(t.TempDir(), false)
	mapped = mk(t.TempDir(), true)
	return heap, spill, mapped
}

func requireSameAnswers(t *testing.T, label string, heap, spill, mapped *Index, recs []core.Record) {
	t.Helper()
	for i, r := range recs {
		for _, tStar := range []float64{0.5, 0.9, 1.0} {
			want := heap.Query(r.Sig, r.Size, tStar)
			for name, x := range map[string]*Index{"spill": spill, "mmap": mapped} {
				got := x.Query(r.Sig, r.Size, tStar)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: query %d t=%v: %s answered %v, heap %v", label, i, tStar, name, got, want)
				}
			}
		}
		wantK := heap.QueryTopK(r.Sig, r.Size, 5)
		for name, x := range map[string]*Index{"spill": spill, "mmap": mapped} {
			if got := x.QueryTopK(r.Sig, r.Size, 5); fmt.Sprint(got) != fmt.Sprint(wantK) {
				t.Fatalf("%s: topk %d: %s answered %v, heap %v", label, i, name, got, wantK)
			}
		}
	}
	batch := make([]core.BatchQuery, 0, len(recs))
	for _, r := range recs {
		batch = append(batch, core.BatchQuery{Sig: r.Sig, Size: r.Size, Threshold: 0.8})
	}
	want := heap.QueryBatch(batch, 2)
	for name, x := range map[string]*Index{"spill": spill, "mmap": mapped} {
		if got := x.QueryBatch(batch, 2); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: batch: %s diverged from heap", label, name)
		}
	}
}

// TestOutOfCoreChurnEquivalence is the tentpole correctness claim: heap,
// spilled, and mapped indexes driven through the same adds, deletes,
// seals, and merges answer every query byte-for-byte identically.
func TestOutOfCoreChurnEquivalence(t *testing.T) {
	recs := fixture(t, 260, 11)
	heap, spill, mapped := trio(t, recs[:120])
	all := []*Index{heap, spill, mapped}
	defer func() {
		for _, x := range all {
			x.Close()
		}
	}()

	probe := append(append([]core.Record(nil), recs[:30]...), recs[120:150]...)
	requireSameAnswers(t, "initial", heap, spill, mapped, probe[:20])

	// Churn: interleaved adds, deletes, upserts, seals, and a merge.
	for i, r := range recs[120:] {
		for _, x := range all {
			if _, err := x.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		if i%7 == 3 {
			victim := recs[(i*13)%150].Key
			for _, x := range all {
				x.Delete(victim)
			}
		}
		if i%35 == 34 {
			for _, x := range all {
				x.Flush()
			}
		}
	}
	for _, x := range all {
		x.Flush() // seal the tail so mmap segments serve most of the corpus
	}
	requireSameAnswers(t, "churned", heap, spill, mapped, probe)

	for _, x := range all {
		x.Compact()
	}
	requireSameAnswers(t, "compacted", heap, spill, mapped, probe)

	// The spilled indexes must actually be out-of-core: every sealed
	// segment has a file, and under mmap on Linux the probe data is served
	// from the mapping.
	for name, x := range map[string]*Index{"spill": spill, "mmap": mapped} {
		st := x.Stats()
		if len(st.SegmentDetail) == 0 {
			t.Fatalf("%s: no sealed segments after churn", name)
		}
		for i, sd := range st.SegmentDetail {
			if sd.FileBytes == 0 {
				t.Fatalf("%s: segment %d has no file (spill_errors=%d)", name, i, st.SpillErrors)
			}
			wantBacking := "heap"
			if name == "mmap" && runtime.GOOS == "linux" {
				wantBacking = "mmap"
			}
			if sd.Backing != wantBacking {
				t.Fatalf("%s: segment %d backing %q, want %q", name, i, sd.Backing, wantBacking)
			}
			if name == "mmap" && runtime.GOOS == "linux" && sd.ResidentBytes >= sd.FileBytes {
				t.Fatalf("mmap segment %d resident %d >= file %d — metadata-only residency lost",
					i, sd.ResidentBytes, sd.FileBytes)
			}
		}
		if st.SpillErrors != 0 {
			t.Fatalf("%s: %d spill errors", name, st.SpillErrors)
		}
	}
}

// TestManifestSaveLoadRoundTrip saves the spilled indexes as v3 manifests
// and reloads them (same data dir), checking answers and that the manifest
// stays small — it references segment files instead of embedding them.
func TestManifestSaveLoadRoundTrip(t *testing.T) {
	recs := fixture(t, 150, 5)
	heap, spill, mapped := trio(t, recs[:100])
	defer heap.Close()
	for _, r := range recs[100:] {
		for _, x := range []*Index{heap, spill, mapped} {
			if _, err := x.Add(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, x := range []*Index{heap, spill, mapped} {
		x.Flush()
	}

	inline := heap.AppendBinary(nil)
	for name, x := range map[string]*Index{"spill": spill, "mmap": mapped} {
		manifest := x.AppendBinary(nil)
		if len(manifest) >= len(inline)/4 {
			t.Fatalf("%s: manifest is %d bytes vs %d inline — segment files not referenced",
				name, len(manifest), len(inline))
		}
		opts := x.opts
		x.Close()
		loaded, err := Load(bytes.NewReader(manifest), opts)
		if err != nil {
			t.Fatalf("%s: Load: %v", name, err)
		}
		defer loaded.Close()
		if loaded.Len() != heap.Len() {
			t.Fatalf("%s: loaded Len %d, want %d", name, loaded.Len(), heap.Len())
		}
		for _, r := range recs[:40] {
			want := heap.Query(r.Sig, r.Size, 0.9)
			if got := loaded.Query(r.Sig, r.Size, 0.9); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: reloaded index answered %v, want %v", name, got, want)
			}
		}
		// Re-saving the reloaded index must be byte-deterministic.
		a := loaded.AppendBinary(nil)
		b := loaded.AppendBinary(nil)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: two saves of the same state differ", name)
		}
	}
}

// TestManifestRejectsCorruption covers every on-disk trust boundary: a
// tampered or truncated manifest, and a tampered or truncated segment file.
func TestManifestRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	opts := liveOpts()
	opts.DataDir = dir
	recs := fixture(t, 80, 9)
	x, err := Build(recs, opts)
	if err != nil {
		t.Fatal(err)
	}
	x.Flush()
	manifest := x.AppendBinary(nil)
	x.Close()

	load := func(buf []byte) error {
		_, err := Load(bytes.NewReader(buf), opts)
		return err
	}
	if err := load(manifest); err != nil {
		t.Fatalf("pristine manifest rejected: %v", err)
	}

	// Any flipped byte anywhere in the manifest must fail the checksum.
	for _, off := range []int{9, len(manifest) / 2, len(manifest) - 3} {
		bad := append([]byte(nil), manifest...)
		bad[off] ^= 0x40
		if err := load(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("manifest with byte %d flipped loaded (err=%v)", off, err)
		}
	}
	// So must any truncation.
	for _, n := range []int{3, 17, 23, len(manifest) / 2, len(manifest) - 2} {
		if err := load(manifest[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("manifest truncated to %d loaded (err=%v)", n, err)
		}
	}

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files in %s (err=%v)", dir, err)
	}
	seg := segs[0]
	pristine, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := os.WriteFile(seg, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Header corruption, metadata corruption (META starts on the first page
	// boundary), lazy-section corruption (caught by lazyCRC on heap opens),
	// and truncation.
	for _, off := range []int{8, 4096 + 8, len(pristine) - 5} {
		bad := append([]byte(nil), pristine...)
		bad[off] ^= 0x01
		if err := os.WriteFile(seg, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := load(manifest); err == nil {
			t.Fatalf("segment file with byte %d flipped loaded", off)
		}
		restore()
	}
	if err := os.Truncate(seg, int64(len(pristine)-512)); err != nil {
		t.Fatal(err)
	}
	if err := load(manifest); err == nil {
		t.Fatal("truncated segment file loaded")
	}
	restore()
	if err := load(manifest); err != nil {
		t.Fatalf("restored manifest rejected: %v", err)
	}
}

// TestBootSweepsUnreferencedFiles checks that Load garbage-collects stray
// segment files and abandoned temp files, and leaves referenced ones alone.
func TestBootSweepsUnreferencedFiles(t *testing.T) {
	dir := t.TempDir()
	opts := liveOpts()
	opts.DataDir = dir
	x, err := Build(fixture(t, 50, 3), opts)
	if err != nil {
		t.Fatal(err)
	}
	manifest := x.AppendBinary(nil)
	x.Close()

	stray := filepath.Join(dir, "seg-00000000ffffffff.seg")
	tmp := filepath.Join(dir, ".segfile-123.tmp")
	other := filepath.Join(dir, "unrelated.txt")
	for _, p := range []string{stray, tmp, other} {
		if err := os.WriteFile(p, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := Load(bytes.NewReader(manifest), opts)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	defer loaded.Close()
	for _, p := range []string{stray, tmp} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s survived the boot sweep", filepath.Base(p))
		}
	}
	// Non-segment files are none of our business.
	if _, err := os.Stat(other); err != nil {
		t.Fatalf("boot sweep deleted unrelated file: %v", err)
	}
	if len(loaded.Stats().SegmentDetail) == 0 {
		t.Fatal("referenced segment lost")
	}
}

// TestCollectGarbageDefersManifestedFiles checks the retirement protocol:
// a segment file referenced by an encoded manifest is NOT deleted when
// compaction retires the segment — it waits for CollectGarbage (called
// after the next manifest is durable), while never-manifested files are
// deleted immediately.
func TestCollectGarbageDefersManifestedFiles(t *testing.T) {
	dir := t.TempDir()
	opts := liveOpts()
	opts.DataDir = dir
	x, err := Build(fixture(t, 60, 7), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	_ = x.AppendBinary(nil) // marks current segment files as manifest-referenced

	before, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	for _, r := range fixture(t, 30, 8) {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	x.Compact() // retires the manifested segment file(s)

	after, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	stillThere := map[string]bool{}
	for _, p := range after {
		stillThere[p] = true
	}
	for _, p := range before {
		if !stillThere[p] {
			t.Fatalf("manifested file %s deleted before CollectGarbage", filepath.Base(p))
		}
	}
	if n := x.CollectGarbage(); n != len(before) {
		t.Fatalf("CollectGarbage removed %d files, want %d", n, len(before))
	}
	final, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	for _, p := range final {
		for _, old := range before {
			if p == old {
				t.Fatalf("retired file %s survived CollectGarbage", filepath.Base(p))
			}
		}
	}
}

// TestBufferIndexCandidates checks the unsealed buffer's chained index: a
// buffered record's own signature is found through it, a query sharing no
// leading value with any buffered entry verifies no candidate at all, and
// the index never changes an answer relative to a linear scan.
func TestBufferIndexCandidates(t *testing.T) {
	opts := liveOpts()
	x, err := Build(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	recs := fixture(t, 20, 2)
	for _, r := range recs {
		if _, err := x.Add(r); err != nil {
			t.Fatal(err)
		}
	}

	var tr QueryTrace
	got, err := x.QueryContext(WithQueryTrace(context.Background(), &tr), recs[0].Sig, recs[0].Size, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !contains(got, recs[0].Key) {
		t.Fatalf("self-retrieval from buffer failed: %v", got)
	}
	if !tr.BufferScanned || tr.BufferCandidates == 0 {
		t.Fatalf("matching query did not walk the buffer index: %+v", tr)
	}
	if st := x.Stats(); st.Planner.BufferScans == 0 {
		t.Fatalf("buffer walk not counted: %+v", st.Planner)
	}

	// A random signature shares no leading value with a buffered entry
	// (2^-64 per comparison), so the walk verifies nothing.
	rng := rand.New(rand.NewSource(99))
	alien := make(minhash.Signature, opts.NumHash)
	for i := 0; i < 5; i++ {
		for j := range alien {
			alien[j] = rng.Uint64()
		}
		tr = QueryTrace{}
		got, err := x.QueryContext(WithQueryTrace(context.Background(), &tr), alien, 100, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.BufferScanned || tr.BufferCandidates != 0 || len(got) != 0 {
			t.Fatalf("alien query: trace %+v, answer %v; want a walk verifying 0 candidates", tr, got)
		}
	}

	// The index never changes an answer: the linear reference scan agrees.
	for _, r := range recs {
		a := x.Query(r.Sig, r.Size, 0.9)
		b := refQuery(x, r.Sig, r.Size, 0.9)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("buffer index and reference scan disagree: %v vs %v", a, b)
		}
	}
}

// TestOutOfCoreRetirementHammer races queries against seals, merges, saves
// and garbage collection over mmap-backed segments. Run with -race this is
// the proof that a mapping is only ever unmapped after the last reader of
// its snapshot is gone.
func TestOutOfCoreRetirementHammer(t *testing.T) {
	opts := liveOpts()
	opts.DataDir = t.TempDir()
	opts.Mmap = true
	opts.SealThreshold = 16
	opts.MaxSegments = 2
	opts.ManualCompaction = false
	recs := fixture(t, 300, 21)
	x, err := Build(recs[:50], opts)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g
			for {
				select {
				case <-stop:
					return
				default:
				}
				r := recs[i%len(recs)]
				switch i % 3 {
				case 0:
					x.Query(r.Sig, r.Size, 0.8)
				case 1:
					x.QueryTopK(r.Sig, r.Size, 3)
				case 2:
					x.QueryBatch([]core.BatchQuery{{Sig: r.Sig, Size: r.Size, Threshold: 0.6}}, 0)
				}
				i += 3
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r := recs[50+i%250]
			x.Add(r)
			if i%11 == 5 {
				x.Delete(recs[i%300].Key)
			}
			if i%40 == 17 {
				// Save marks files manifest-referenced; CollectGarbage then
				// deletes the retired ones — both racing live queries.
				x.Save(io.Discard)
				x.CollectGarbage()
			}
		}
	}()

	time.Sleep(600 * time.Millisecond)
	close(stop)
	wg.Wait()
	x.Close()
	x.Compact()
	x.CollectGarbage()

	// The index must still answer exactly after the storm.
	st := x.Stats()
	if st.SpillErrors != 0 {
		t.Fatalf("%d spill errors during hammer", st.SpillErrors)
	}
	for _, r := range recs[:20] {
		x.Query(r.Sig, r.Size, 0.8)
	}
}

// TestMmapColdBootIsLazy checks the lazy-boot claim on Linux: loading a
// manifest with Mmap reports a resident footprint far below the file
// bytes, i.e. the signature stores were not decoded at boot.
func TestMmapColdBootIsLazy(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("mmap laziness is Linux-only; elsewhere OpenMapped reads to heap")
	}
	opts := liveOpts()
	opts.DataDir = t.TempDir()
	opts.Mmap = true
	x, err := Build(fixture(t, 400, 13), opts)
	if err != nil {
		t.Fatal(err)
	}
	manifest := x.AppendBinary(nil)
	x.Close()

	loaded, err := Load(bytes.NewReader(manifest), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	var file, resident int64
	for _, sd := range loaded.Stats().SegmentDetail {
		if sd.Backing != "mmap" {
			t.Fatalf("segment backing %q, want mmap", sd.Backing)
		}
		file += sd.FileBytes
		resident += sd.ResidentBytes
	}
	if file == 0 || resident*2 >= file {
		t.Fatalf("boot resident %d of %d file bytes — not lazy", resident, file)
	}
}
