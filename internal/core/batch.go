package core

import (
	"fmt"

	"lshensemble/internal/minhash"
	"lshensemble/internal/par"
)

// BatchQuery is one containment query of a batch: the query signature, the
// (exact or estimated) query cardinality |Q|, and the containment threshold
// t*.
type BatchQuery struct {
	Sig       minhash.Signature
	Size      int
	Threshold float64
}

// QueryBatch answers every query of the batch and returns one id slice per
// query, in query order: row i is exactly what QueryIDs answers for
// queries[i]. The rows fan out over up to `workers` goroutines (0 means
// GOMAXPROCS) pulling from a shared counter, so stragglers (queries with
// huge candidate sets) do not leave other workers idle. Every row is checked
// before any runs: a signature shorter than NumHash fails the whole batch
// with ErrShortSignature.
func (x *Index) QueryBatch(queries []BatchQuery, workers int) ([][]uint32, error) {
	for i := range queries {
		if len(queries[i].Sig) < x.opts.NumHash {
			return nil, fmt.Errorf("core: batch query %d: %w", i, ErrShortSignature)
		}
	}
	rows := make([][]uint32, len(queries))
	par.Drain(len(queries), workers, func(_, i int) {
		q := &queries[i]
		// Every signature was checked above; no other error is possible.
		rows[i], _ = x.QueryIDsAppend(nil, q.Sig, q.Size, q.Threshold)
	})
	return rows, nil
}
