package core

import (
	"slices"
	"strings"

	"lshensemble/internal/minhash"
)

// TopKResult is one ranked answer of QueryTopK.
type TopKResult struct {
	Key string
	// EstContainment is the containment score estimated from the MinHash
	// signatures (paper Eq. 6 applied to the Jaccard estimate). It ranks
	// candidates; callers needing exact scores should verify against the
	// raw domains.
	EstContainment float64
}

// CompareTopK is the one ranking order of top-k answers, for
// slices.SortFunc: estimated containment descending, ties broken by key
// ascending. Every ranked merge (core, internal/live, the cluster router)
// sorts with it, so a tie resolves the same way at every layer.
func CompareTopK(a, b TopKResult) int {
	if a.EstContainment != b.EstContainment {
		if a.EstContainment > b.EstContainment {
			return -1
		}
		return 1
	}
	return strings.Compare(a.Key, b.Key)
}

// topKThresholds is the descending threshold ladder QueryTopK walks. The
// ladder trades probe count against over-retrieval; 0.05 matches the
// paper's experimental threshold granularity.
var topKThresholds = func() []float64 {
	var ts []float64
	for t := 1.0; t > 0.04; t -= 0.05 {
		ts = append(ts, t)
	}
	return ts
}()

// QueryTopK returns (up to) k domains ranked by estimated containment of
// the query — the top-k formulation the paper's Section 2 describes as
// complementary to threshold search. It walks a descending threshold
// ladder, collecting candidates until at least k are found (or the ladder
// is exhausted), then ranks them by signature-estimated containment.
// Results are approximate in the same sense as Query: candidates come from
// LSH collisions and scores from sketches. It returns ErrShortSignature if
// sig is shorter than NumHash.
func (x *Index) QueryTopK(sig minhash.Signature, querySize, k int) ([]TopKResult, error) {
	if len(sig) < x.opts.NumHash {
		return nil, ErrShortSignature
	}
	if k <= 0 || querySize <= 0 || len(x.keys) == 0 {
		return nil, nil
	}
	s := x.acquireScratch()
	ids := x.topKIDs(s.ids[:0], s, sig, querySize, k)
	results := make([]TopKResult, 0, len(ids))
	for _, id := range ids {
		est := x.EstContainment(id, sig, querySize)
		results = append(results, TopKResult{Key: x.keys[id], EstContainment: est})
	}
	s.ids = ids
	x.releaseScratch(s)
	slices.SortFunc(results, CompareTopK)
	if len(results) > k {
		results = results[:k]
	}
	return results, nil
}

// topKIDs walks the threshold ladder, appending candidate ids to dst until
// at least k are collected or the ladder is exhausted. One scratch
// generation spans the whole walk: queryInto's visited stamps persist
// across rungs, so each lower threshold appends only ids not already
// collected by a higher one.
func (x *Index) topKIDs(dst []uint32, s *queryScratch, sig minhash.Signature, querySize, k int) []uint32 {
	for _, tStar := range topKThresholds {
		dst = x.queryInto(dst, s, sig, querySize, tStar)
		if len(dst) >= k {
			break
		}
	}
	return dst
}

// QueryTopKIDs appends the candidate ids QueryTopK would rank — the
// ladder-walk collection, unscored and unsorted — to dst. Layered callers
// (internal/live) use it to gather at least k candidates per segment, then
// score and merge across segments themselves with Key, Size and Signature.
// It returns ErrShortSignature if sig is shorter than NumHash.
func (x *Index) QueryTopKIDs(dst []uint32, sig minhash.Signature, querySize, k int) ([]uint32, error) {
	if len(sig) < x.opts.NumHash {
		return dst, ErrShortSignature
	}
	if k <= 0 || querySize <= 0 || len(x.keys) == 0 {
		return dst, nil
	}
	s := x.acquireScratch()
	dst = x.topKIDs(dst, s, sig, querySize, k)
	x.releaseScratch(s)
	return dst, nil
}
