package main

import (
	"fmt"

	"lshensemble/internal/eval"
	"lshensemble/internal/exact"
)

// Accuracy floors of the quiesced check at t* = 0.5, the operating point of
// the repo's own Fig. 4 floors (internal/expt).
const (
	recallFloor    = 0.85
	precisionFloor = 0.50
	checkQueries   = 1000 // threshold queries of the quiesced check
	checkTopKs     = 50   // top-k queries of the quiesced check
)

// errPartial is the answer check failing on a router answer that lacks a
// shard's contribution.
var errPartial = &errWrongAnswer{msg: "router answered partial"}

func checkPartial(partial bool) error {
	if partial {
		return errPartial
	}
	return nil
}

// checkTopK rejects a ranked answer longer than k, with a repeated key, or
// with scores out of descending order.
func checkTopK(ms []topkMatch, k int) error {
	if len(ms) > k {
		return wrong("top-k answer has %d keys, k = %d", len(ms), k)
	}
	seen := make(map[string]bool, len(ms))
	for i, m := range ms {
		if seen[m.Key] {
			return wrong("top-k answer repeats key %q", m.Key)
		}
		seen[m.Key] = true
		if i > 0 && m.Est > ms[i-1].Est {
			return wrong("top-k scores not descending: %v after %v", m.Est, ms[i-1].Est)
		}
	}
	return nil
}

// checkBatch rejects a batch answer whose row count differs from its query
// count.
func checkBatch(rows []queryAnswer, queries int) error {
	if len(rows) != queries {
		return wrong("batch answer has %d rows for %d queries", len(rows), queries)
	}
	return nil
}

// checkLive rejects an answer naming a key that is not live: one deleted
// before the check, or one never written.
func checkLive(keys []string, live map[string]int) error {
	for _, k := range keys {
		if _, ok := live[k]; !ok {
			return wrong("answer names key %q, which is not live", k)
		}
	}
	return nil
}

// accuracy averages per-query recall and precision against exact
// containment truth, with the paper's empty-result convention
// (internal/eval), as the repo's Fig. 4 reproduction does.
type accuracy struct{ avg eval.Averager }

func (a *accuracy) add(answer []string, truth map[string]bool) { a.avg.Add(eval.PR(answer, truth)) }
func (a *accuracy) recall() float64                            { return a.avg.Recall() }
func (a *accuracy) precision() float64                         { return a.avg.Precision() }

// checkFloors rejects accuracy below the floors.
func (a *accuracy) checkFloors(recallMin, precisionMin float64) error {
	if r := a.recall(); r < recallMin {
		return wrong("recall %.4f below floor %.2f", r, recallMin)
	}
	if p := a.precision(); p < precisionMin {
		return wrong("precision %.4f below floor %.2f", p, precisionMin)
	}
	return nil
}

// finalState merges the clients' models: every live key and the corpus
// domain it stores.
func finalState(models []*model) map[string]int {
	live := make(map[string]int)
	for _, m := range models {
		for k, t := range m.live {
			live[k] = t
		}
	}
	return live
}

// quiescedCheck issues a seeded query sample through the front door after
// /compact and checks every answer: accuracy against exact truth over the
// final contents, no key that is not live, and the top-k and batch shapes.
func quiescedCheck(cl *client, cp *corpus, live map[string]int, seed uint64, t *tally) (accuracy, error) {
	doms := make([]exact.Domain, 0, len(live))
	for k, tm := range live {
		doms = append(doms, exact.Domain{Key: k, Values: cp.ids[tm]})
	}
	eng := exact.Build(doms)
	rng := newRNG(seed, phaseCheck, 0)
	var acc accuracy
	var firstErr error
	fail := func(err error) {
		t.note(err)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	batch := op{kind: opBatch}
	for i := 0; i < checkQueries; i++ {
		q := rng.IntN(len(cp.keys))
		var a queryAnswer
		err := cl.post("/query", cp.body(&op{kind: opQuery, tmpl: q}), "", &a, nil)
		if err == nil {
			err = checkPartial(a.Partial)
		}
		if err == nil {
			err = checkLive(a.Matches, live)
		}
		fail(err)
		if err == nil {
			acc.add(a.Matches, eng.Truth(cp.ids[q], threshold))
		}
		if i%(checkQueries/batchSize) == 0 && len(batch.batch) < batchSize {
			batch.batch = append(batch.batch, q)
		}
	}
	for i := 0; i < checkTopKs; i++ {
		var a topkAnswer
		err := cl.post("/query/topk", cp.body(&op{kind: opTopK, tmpl: rng.IntN(len(cp.keys))}), "", &a, nil)
		if err == nil {
			err = checkPartial(a.Partial)
		}
		if err == nil {
			err = checkTopK(a.Matches, topK)
		}
		if err == nil {
			keys := make([]string, len(a.Matches))
			for j, m := range a.Matches {
				keys[j] = m.Key
			}
			err = checkLive(keys, live)
		}
		fail(err)
	}
	var ba batchAnswer
	err := cl.post("/query/batch", cp.body(&batch), "", &ba, nil)
	if err == nil {
		err = checkPartial(ba.Partial)
	}
	if err == nil {
		err = checkBatch(ba.Rows, len(batch.batch))
	}
	for _, row := range ba.Rows {
		if err == nil {
			err = checkLive(row.Matches, live)
		}
	}
	fail(err)
	if firstErr == nil {
		firstErr = acc.checkFloors(recallFloor, precisionFloor)
	}
	if firstErr != nil {
		return acc, fmt.Errorf("quiesced check: %w", firstErr)
	}
	return acc, nil
}
