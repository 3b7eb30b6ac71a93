package live

import (
	"sort"

	"lshensemble/internal/core"
)

// This file is the write-behind half of the live index: sealing the
// unsealed buffer into a frozen segment, merging small segments into larger
// ones, and the background goroutine that drives both. All heavy work
// (core.Build over the surviving records, using the parallel construction
// path) happens OUTSIDE any lock the write or read paths touch; only the
// final pointer swap takes the writer mutex, and readers never take a lock
// at all — a query in flight keeps the snapshot it loaded.
//
// Sequence numbers make this sound under concurrent writes: a build drops
// the entries cleared in the snapshot it starts from, and a segment keeps
// each entry's seq, so the publish step can find every entry a Delete or
// replacing Add cleared *while* the build ran and copy its cleared-at slot
// into the new segment. No clear is ever lost.

// compactor is the background loop. It wakes on a nudge (sent by Add when
// the buffer crosses SealThreshold) and runs the pipeline until the shape
// is within thresholds again.
func (x *Index) compactor() {
	defer close(x.done)
	for {
		select {
		case <-x.stop:
			return
		case <-x.nudge:
		}
		x.compactMu.Lock()
		for x.sealIfFull() || x.mergeIfCrowded() {
			select {
			case <-x.stop:
				x.compactMu.Unlock()
				return
			default:
			}
		}
		x.compactMu.Unlock()
	}
}

// kick nudges the compactor without blocking (the channel holds one pending
// nudge; more are redundant).
func (x *Index) kick() {
	select {
	case x.nudge <- struct{}{}:
	default:
	}
}

// Close stops the background compactor and waits for it to finish the
// operation in flight. The index remains fully usable afterwards — only
// automatic compaction stops. Close is idempotent.
func (x *Index) Close() {
	x.closeOnce.Do(func() { close(x.stop) })
	<-x.done
}

// Flush synchronously seals the current buffer into a segment (a no-op when
// the buffer is empty). Callers that need the buffer drained — e.g. before
// measuring pure-segment query cost — use it; normal ingest relies on the
// background seal instead.
func (x *Index) Flush() {
	x.compactMu.Lock()
	x.seal(1)
	x.compactMu.Unlock()
}

// Compact synchronously runs full compaction: the buffer is sealed and all
// segments merge into (at most) one, dropping every cleared entry. The
// result answers queries exactly like a fresh core.Build over the surviving
// records.
func (x *Index) Compact() {
	x.compactMu.Lock()
	defer x.compactMu.Unlock()
	x.seal(1)
	sn := x.snap.Load()
	if len(sn.segs) == 0 || (len(sn.segs) == 1 && sn.cleared == 0) {
		return
	}
	x.mergeSegments(sn.segs)
}

// sealIfFull seals when the buffer has crossed the threshold.
func (x *Index) sealIfFull() bool {
	return x.seal(x.opts.SealThreshold)
}

// seal freezes the first len(buf) buffered entries (as of the snapshot it
// loads) into a new segment, provided at least min are buffered. Dead
// entries are dropped during the build. It reports whether anything was
// sealed (including a pure trim, when every buffered entry was dead).
//
// The caller must hold compactMu. Writers keep appending while the segment
// builds; the publish step moves only the sealed prefix out of the buffer.
func (x *Index) seal(min int) bool {
	sn := x.snap.Load()
	buf := sn.buf
	if min < 1 {
		min = 1
	}
	if len(buf) < min {
		return false
	}
	recs := make([]core.Record, 0, len(buf))
	seqs := make([]uint64, 0, len(buf))
	sl := sn.liveSlots(&sn.arena.clear)
	for i := range buf {
		e := &buf[i]
		if sn.hides(sl, i) {
			continue
		}
		recs = append(recs, e.rec)
		seqs = append(seqs, e.seq)
	}
	var seg *segment
	if len(recs) > 0 {
		idx, err := core.Build(recs, x.opts.Options)
		if err != nil {
			// Unreachable: every record was validated at Add time. Leaving
			// the buffer as-is keeps the index correct (just unsealed).
			return false
		}
		// The planner metadata is derived outside the writer lock, like the
		// build itself: only the pointer swap below blocks writers.
		seg = &segment{idx: idx, seqs: seqs, meta: buildSegMeta(idx)}
		seg.resident = heapSegmentResident(idx, seg.meta)
		// Spill to a segment file before publishing (file IO stays outside
		// the writer lock, like the build).
		seg = x.persistSegment(seg)
	}

	if x.publishHook != nil {
		x.publishHook()
	}
	x.mu.Lock()
	cur := x.snap.Load()
	// cur's buffer starts with the sealed entries (Adds may have moved them
	// to a larger arena, at the same positions). Clears that landed on them
	// during the build move into the segment; entries appended meanwhile
	// stay buffered, moved to a fresh arena so the sealed prefix's array can
	// be collected once the old snapshots die.
	slots := cur.arena.clear.load()
	if seg != nil && slots != nil {
		carryClears(seg, slots[:len(buf)], func(i int) uint64 { return cur.buf[i].seq })
	}
	next := &snapshot{segs: cur.segs, cleared: cur.cleared - (len(buf) - len(recs))}
	if rest := cur.buf[len(buf):]; len(rest) > 0 {
		if slots != nil {
			slots = slots[len(buf):]
		}
		next.arena = x.newArena(rest, slots, max(16, 2*len(rest)))
		next.buf = next.arena.ents[:len(rest)]
		for i := range rest {
			next.bufMax = max(next.bufMax, rest[i].rec.Size)
		}
	}
	if seg != nil {
		next.segs = append(append(make([]*segment, 0, len(cur.segs)+1), cur.segs...), seg)
	}
	old := x.publishLocked(next, cur, true)
	x.mu.Unlock()
	x.releaseSnap(old)
	x.seals.Add(1)
	return true
}

// mergeIfCrowded merges the two smallest segments when more than
// MaxSegments have accumulated. The caller must hold compactMu.
func (x *Index) mergeIfCrowded() bool {
	sn := x.snap.Load()
	if len(sn.segs) <= x.opts.MaxSegments {
		return false
	}
	a, b := 0, 1
	for i, seg := range sn.segs {
		n := seg.idx.Len()
		if n < sn.segs[a].idx.Len() {
			a, b = i, a
		} else if i != a && n < sn.segs[b].idx.Len() {
			b = i
		}
	}
	x.mergeSegments([]*segment{sn.segs[a], sn.segs[b]})
	return true
}

// mergeSegments rebuilds the given segments (identified by pointer in the
// current snapshot) into at most one new segment holding their surviving
// entries, and publishes the swap. The caller must hold compactMu.
func (x *Index) mergeSegments(victims []*segment) {
	sn := x.snap.Load()
	// Gather survivors in ascending seq order: collect per segment (each is
	// already ascending), then merge-sort the runs.
	type run struct {
		recs []core.Record
		seqs []uint64
	}
	runs := make([]run, 0, len(victims))
	total, held := 0, 0
	for _, seg := range victims {
		var r run
		sl := sn.liveSlots(&seg.clear)
		held += seg.idx.Len()
		for id := 0; id < seg.idx.Len(); id++ {
			if sn.hides(sl, id) {
				continue
			}
			key := seg.idx.Key(uint32(id))
			r.recs = append(r.recs, core.Record{
				Key:  key,
				Size: seg.idx.Size(uint32(id)),
				Sig:  seg.idx.Signature(uint32(id)),
			})
			r.seqs = append(r.seqs, seg.seqs[id])
		}
		runs = append(runs, r)
		total += len(r.recs)
	}
	recs := make([]core.Record, 0, total)
	seqs := make([]uint64, 0, total)
	cursors := make([]int, len(runs))
	for len(recs) < total {
		best := -1
		for i := range runs {
			if cursors[i] >= len(runs[i].seqs) {
				continue
			}
			if best < 0 || runs[i].seqs[cursors[i]] < runs[best].seqs[cursors[best]] {
				best = i
			}
		}
		recs = append(recs, runs[best].recs[cursors[best]])
		seqs = append(seqs, runs[best].seqs[cursors[best]])
		cursors[best]++
	}

	var merged *segment
	if len(recs) > 0 {
		// core.Build copies every signature into the new segment's own
		// store, so the merged segment holds no views into the victims —
		// they can unmap once their last reader drains.
		idx, err := core.Build(recs, x.opts.Options)
		if err != nil {
			return // unreachable: inputs came from validated segments
		}
		merged = &segment{idx: idx, seqs: seqs, meta: buildSegMeta(idx)}
		merged.resident = heapSegmentResident(idx, merged.meta)
		merged = x.persistSegment(merged)
	}

	if x.publishHook != nil {
		x.publishHook()
	}
	x.mu.Lock()
	cur := x.snap.Load()
	victimSet := make(map[*segment]bool, len(victims))
	for _, v := range victims {
		victimSet[v] = true
		// Clears that landed on carried entries during the build.
		if sl := v.clear.load(); merged != nil && sl != nil {
			carryClears(merged, sl, func(i int) uint64 { return v.seqs[i] })
		}
	}
	segs := make([]*segment, 0, len(cur.segs))
	for _, seg := range cur.segs {
		if !victimSet[seg] {
			segs = append(segs, seg)
		}
	}
	if merged != nil {
		segs = append(segs, merged)
		sort.Slice(segs, func(i, j int) bool { return segs[i].minSeq() < segs[j].minSeq() })
	}
	next := &snapshot{segs: segs, buf: cur.buf, arena: cur.arena, cleared: cur.cleared - (held - total), bufMax: cur.bufMax}
	old := x.publishLocked(next, cur, true)
	x.mu.Unlock()
	x.releaseSnap(old)
	x.merges.Add(1)
}
