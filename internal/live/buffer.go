package live

import (
	"context"
	"slices"
	"sync/atomic"

	"lshensemble/internal/minhash"
)

// This file holds the two structures that keep writes off the read path.
// Liveness: every entry array (a sealed segment, a buffer arena) has one
// cleared-at slot per entry, so a clear is one atomic store under the writer
// mutex (see the package comment for the visibility rule). Buffer index: an
// arena is one fixed-capacity backing array of buffered entries plus, per
// forest tree, a hash table from leading value to position whose bucket
// heads hold the newest position and whose per-position links lead to older
// ones. Inserting writes the new position's links before the atomic head
// store that publishes them, readers skip positions past their snapshot's
// buffer, and a full arena is replaced by one of twice the capacity — so no
// published byte is ever rewritten, and index and slot memory follow the
// entries actually held.

// clearSlots holds an entry array's cleared-at slots. The slot array is
// allocated by the first clear that hits the array; nil means every entry
// is alive.
type clearSlots struct {
	p atomic.Pointer[[]atomic.Uint64]
}

func (c *clearSlots) load() []atomic.Uint64 {
	if p := c.p.Load(); p != nil {
		return *p
	}
	return nil
}

// set stores seq in slot i of an array of n entries. Only writers holding
// x.mu (or building an unpublished array) call it.
func (c *clearSlots) set(i int, seq uint64, n int) {
	sl := c.load()
	if sl == nil {
		sl = make([]atomic.Uint64, n)
		c.p.Store(&sl)
	}
	sl[i].Store(seq)
}

// liveSlots returns the slots to test entries of c against under sn, or nil
// when sn holds no cleared entry at all — the common case costs readers no
// per-candidate work.
func (sn *snapshot) liveSlots(c *clearSlots) []atomic.Uint64 {
	if sn.cleared == 0 {
		return nil
	}
	return c.load()
}

// hides reports whether entry i, whose array's slots are sl, was cleared in
// sn.
func (sn *snapshot) hides(sl []atomic.Uint64, i int) bool {
	if sl == nil {
		return false
	}
	v := sl[i].Load()
	return v != 0 && v <= sn.seq
}

// carryClears copies the non-zero slots of src (the slots of the entries
// whose seqs are srcSeqs) onto the entries of dst with the same seq: the
// clears that landed while a seal or merge built dst from those entries.
// Entries absent from dst were dropped by the build. The caller holds x.mu.
func carryClears(dst *segment, src []atomic.Uint64, srcSeqs func(int) uint64) {
	for i := range src {
		v := src[i].Load()
		if v == 0 {
			continue
		}
		if j, ok := slices.BinarySearch(dst.seqs, srcSeqs(i)); ok {
			dst.clear.set(j, v, len(dst.seqs))
		}
	}
}

// bufArena is one backing array of the unsealed buffer with its liveness
// slots and its chained leading-value index.
type bufArena struct {
	ents  []entry // len is the capacity; a snapshot views a written prefix
	clear clearSlots

	trees int  // chains per entry: NumHash/RMax, the most bands a query uses
	bits  uint // log2 of the buckets per tree
	heads []atomic.Uint32
	next  []uint32 // pos*trees + tree → older position + 1, 0 ends the chain
}

// newArena returns an arena with room for capacity entries holding ents,
// indexed, with the non-zero slots of src (nil, or aligned with ents and at
// least as long) carried.
func (x *Index) newArena(ents []entry, src []atomic.Uint64, capacity int) *bufArena {
	a := &bufArena{ents: make([]entry, capacity), trees: x.opts.NumHash / x.opts.RMax}
	for 1<<a.bits < capacity {
		a.bits++
	}
	a.heads = make([]atomic.Uint32, a.trees<<a.bits)
	a.next = make([]uint32, capacity*a.trees)
	for i := range ents {
		a.ents[i] = ents[i]
		x.index(a, i)
		if src != nil {
			if v := src[i].Load(); v != 0 {
				a.clear.set(i, v, capacity)
			}
		}
	}
	return a
}

// index links position pos into every tree's chain. Its links are written
// before the head store that makes them reachable.
func (x *Index) index(a *bufArena, pos int) {
	sig, rMax, mask := a.ents[pos].rec.Sig, x.opts.RMax, x.opts.Sketch.Mask()
	for t := 0; t < a.trees; t++ {
		h := &a.heads[a.bucket(t, sig[t*rMax]&mask)]
		a.next[pos*a.trees+t] = h.Load()
		h.Store(uint32(pos + 1))
	}
}

// bucket is the head slot of tree t's chain for a (masked) leading value.
func (a *bufArena) bucket(t int, lead uint64) int {
	return t<<a.bits | int((lead*0x9E3779B97F4A7C15)>>(64-a.bits))
}

// appendBuf writes e just past sn's buffer and returns the arena and the
// extended buffer view for the next snapshot. A full (or absent) arena is
// replaced by a fresh one of twice the entries held, carrying their slots.
// The caller holds x.mu.
func (x *Index) appendBuf(sn *snapshot, e entry) (*bufArena, []entry) {
	a, n := sn.arena, len(sn.buf)
	if a == nil || n == len(a.ents) {
		var src []atomic.Uint64
		if a != nil {
			src = a.clear.load()
		}
		a = x.newArena(sn.buf, src, max(16, 2*n))
	}
	a.ents[n] = e
	x.index(a, n)
	return a, a.ents[:n+1]
}

// appendBufferHits walks the chains of the query's first bands through
// sn's buffer and appends to hits the position of every entry that
// band-collides, each once — at its first colliding band. It returns the
// grown hits, the entries the band test verified, and ctx's error if ctx
// ends the walk (checked every 1024 chain links).
func (x *Index) appendBufferHits(ctx context.Context, hits []uint32, sn *snapshot, sig minhash.Signature, bands, r int) ([]uint32, int, error) {
	a, n := sn.arena, uint32(len(sn.buf))
	rMax, mask := x.opts.RMax, x.opts.Sketch.Mask()
	walked, verified := 0, 0
	for t := 0; t < bands; t++ {
		off := t * rMax
		lead := sig[off] & mask
		for p := a.heads[a.bucket(t, lead)].Load(); p != 0; p = a.next[int(p-1)*a.trees+t] {
			if walked++; walked&1023 == 0 {
				if err := ctx.Err(); err != nil {
					return hits, verified, err
				}
			}
			if p > n {
				continue // appended after sn was published
			}
			es := sn.buf[p-1].rec.Sig
			if es[off]&mask != lead {
				continue // another value hashed to the same bucket
			}
			verified++
			if bandsCollide(sig[off:], es[off:], 1, r, rMax, mask) && !bandsCollide(sig, es, t, r, rMax, mask) {
				hits = append(hits, p-1)
			}
		}
	}
	return hits, verified, nil
}
