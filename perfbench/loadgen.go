package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client sends front-door requests over at most `conns` connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// post sends one JSON body and decodes the JSON answer into out. When sent
// is non-nil it receives the time the request got a connection.
func (c *client) post(path string, body []byte, reqID string, out any, sent *time.Time) error {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if sent != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn: func(httptrace.GotConnInfo) { *sent = time.Now() },
		}))
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s: reading answer: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s: decoding answer: %w", path, err)
	}
	return nil
}

// Wire answers, shard and router alike; Partial is only ever set by the
// router.
type queryAnswer struct {
	Matches []string `json:"matches"`
	Partial bool     `json:"partial"`
}

type topkMatch struct {
	Key string  `json:"key"`
	Est float64 `json:"est_containment"`
}

type topkAnswer struct {
	Matches []topkMatch `json:"matches"`
	Partial bool        `json:"partial"`
}

type batchAnswer struct {
	Rows    []queryAnswer `json:"rows"`
	Partial bool          `json:"partial"`
}

type addAnswer struct {
	Replaced bool `json:"replaced"`
	Partial  bool `json:"partial"`
}

type deleteAnswer struct {
	Deleted bool `json:"deleted"`
	Partial bool `json:"partial"`
}

// body renders the request body of an op.
func (c *corpus) body(o *op) []byte {
	var b []byte
	switch o.kind {
	case opQuery:
		b = append(b, `{"values":`...)
		b = append(b, c.frags[o.tmpl]...)
		b = append(b, `,"threshold":`...)
		b = strconv.AppendFloat(b, threshold, 'g', -1, 64)
		b = append(b, '}')
	case opTopK:
		b = append(b, `{"values":`...)
		b = append(b, c.frags[o.tmpl]...)
		b = append(b, `,"k":`...)
		b = strconv.AppendInt(b, topK, 10)
		b = append(b, '}')
	case opBatch:
		b = append(b, `{"queries":[`...)
		for i, t := range o.batch {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"values":`...)
			b = append(b, c.frags[t]...)
			b = append(b, `,"threshold":`...)
			b = strconv.AppendFloat(b, threshold, 'g', -1, 64)
			b = append(b, '}')
		}
		b = append(b, "]}"...)
	case opAdd:
		b = append(b, `{"key":`...)
		b = strconv.AppendQuote(b, o.key)
		b = append(b, `,"values":`...)
		b = append(b, c.frags[o.tmpl]...)
		b = append(b, '}')
	case opDelete:
		b = append(b, `{"key":`...)
		b = strconv.AppendQuote(b, o.key)
		b = append(b, '}')
	}
	return b
}

var opPaths = [numKinds]string{"/query", "/query/topk", "/query/batch", "/add", "/delete"}

// errWrongAnswer marks an answer that failed a check, as opposed to a
// request that failed outright.
type errWrongAnswer struct{ msg string }

func (e *errWrongAnswer) Error() string { return "wrong answer: " + e.msg }

func wrong(format string, args ...any) error {
	return &errWrongAnswer{msg: fmt.Sprintf(format, args...)}
}

// do sends one op through the front door and checks the answer's shape.
func (c *client) do(cp *corpus, o *op, reqID string, sent *time.Time) error {
	body := cp.body(o)
	switch o.kind {
	case opQuery:
		var a queryAnswer
		if err := c.post(opPaths[o.kind], body, reqID, &a, sent); err != nil {
			return err
		}
		return checkPartial(a.Partial)
	case opTopK:
		var a topkAnswer
		if err := c.post(opPaths[o.kind], body, reqID, &a, sent); err != nil {
			return err
		}
		if err := checkPartial(a.Partial); err != nil {
			return err
		}
		return checkTopK(a.Matches, topK)
	case opBatch:
		var a batchAnswer
		if err := c.post(opPaths[o.kind], body, reqID, &a, sent); err != nil {
			return err
		}
		if err := checkPartial(a.Partial); err != nil {
			return err
		}
		return checkBatch(a.Rows, len(o.batch))
	case opAdd:
		var a addAnswer
		if err := c.post(opPaths[o.kind], body, reqID, &a, sent); err != nil {
			return err
		}
		if err := checkPartial(a.Partial); err != nil {
			return err
		}
		if a.Replaced != o.replace {
			return wrong("add %q: replaced=%v, want %v", o.key, a.Replaced, o.replace)
		}
		return nil
	case opDelete:
		var a deleteAnswer
		if err := c.post(opPaths[o.kind], body, reqID, &a, sent); err != nil {
			return err
		}
		if err := checkPartial(a.Partial); err != nil {
			return err
		}
		if !a.Deleted {
			return wrong("delete %q of a live key reported deleted=false", o.key)
		}
		return nil
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

// writeStream is one client's fixed write list and its cursor. Only the
// owning client advances it, so its keys' ops stay in order.
type writeStream struct {
	ops  []op
	next int
}

func (ws *writeStream) take() (op, bool) {
	if ws.next == len(ws.ops) {
		return op{}, false
	}
	ws.next++
	return ws.ops[ws.next-1], true
}

// tally counts outcomes of one phase across clients.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	wrong     atomic.Int64
	partials  atomic.Int64
	exhausted atomic.Int64 // writes replaced by reads: the write list ran out
	mu        sync.Mutex
	errs      []string
}

func (t *tally) note(err error) {
	t.attempted.Add(1)
	if err == nil {
		return
	}
	t.failed.Add(1)
	var w *errWrongAnswer
	if errors.As(err, &w) {
		t.wrong.Add(1)
	}
	if errors.Is(err, errPartial) {
		t.partials.Add(1)
	}
	t.mu.Lock()
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
	t.mu.Unlock()
}

// nextOp draws the next op of a client: a read from rs, or a write from ws
// (a read instead when the write list is exhausted).
func nextOp(ks *kindStream, rs *readStream, ws *writeStream, t *tally) op {
	k := ks.next()
	if !k.isWrite() {
		return rs.readOp(k)
	}
	if o, ok := ws.take(); ok {
		return o
	}
	t.exhausted.Add(1)
	return rs.readOp(opQuery)
}

// reqIDs numbers requests run-wide so spans of one request share an ID.
type reqIDs struct{ n atomic.Int64 }

func (r *reqIDs) next() string { return "r" + strconv.FormatInt(r.n.Add(1), 10) }

// windows is how many equal windows a timed phase is cut into. A phase
// reports a quartile over its windows (the faster one), so a stall — a GC
// cycle, a burst of hypervisor steal — moves a window, not the result.
const windows = 9

// closedLoop runs `clients` workers back to back for d. It returns the
// third quartile over windows of the ops completed per second, and the
// process CPU time per completed op in µs: servers and clients share the
// process, and CPU time leaves out what a hypervisor steals.
func closedLoop(cl *client, cp *corpus, sp spec, seed uint64, ph phase, writes []*writeStream, d time.Duration, t *tally, ids *reqIDs, hook func(o *op, id string, start, end time.Time)) (rate, cpuPerOp float64) {
	var wg sync.WaitGroup
	var completed atomic.Int64
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	done := make([][windows]int, len(writes))
	for w := range writes {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ks := newKindStream(sp, seed, ph, w)
			rs := newReadStream(sp, cp, seed, ph, w)
			for time.Now().Before(deadline) {
				o := nextOp(ks, rs, writes[w], t)
				id := ids.next()
				s := time.Now()
				err := cl.do(cp, &o, id, nil)
				e := time.Now()
				t.note(err)
				if err != nil {
					continue
				}
				completed.Add(1)
				if win := int(e.Sub(start) * windows / d); win < windows {
					done[w][win]++
				}
				if hook != nil {
					hook(&o, id, s, e)
				}
			}
		}(w)
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	rates := make([]float64, windows)
	for _, counts := range done {
		for win, n := range counts {
			rates[win] += float64(n) / (d.Seconds() / windows)
		}
	}
	return quantile(rates, 0.75), us(cpu) / float64(max(completed.Load(), 1))
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sample is one open-loop op's outcome.
type sample struct {
	kind    opKind
	window  int
	latency time.Duration // completion minus the time the op was due
	late    time.Duration // send minus due: how late the generator ran
}

// issued is one op as the open loop sent it, in schedule order, for the
// traced run's direct replay.
type issued struct {
	o  op
	id string
}

// openLoop offers rate ops/s for d. Op i is due at start + i/rate; one
// dispatcher launches it on time, and it waits for one of the client's
// `clients` connections, so a slow op delays others only while every
// connection is busy. Ops are drawn from client i mod clients's streams,
// and an op on a key waits for the previous op on that key, so per-key
// order is the schedule's. Latency is timed from when each op was due;
// lateness is how long after that the op got a connection.
func openLoop(cl *client, cp *corpus, sp spec, seed uint64, writes []*writeStream, rate float64, d time.Duration, t *tally, ids *reqIDs, hook func(o *op, id string, start, end time.Time)) ([]sample, []issued, []float64) {
	clients := len(writes)
	total := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	samples := make([]sample, total)
	log := make([]issued, total)
	ok := make([]bool, total)
	kinds := make([]*kindStream, clients)
	reads := make([]*readStream, clients)
	for c := range kinds {
		kinds[c] = newKindStream(sp, seed, phaseOpen, c)
		reads[c] = newReadStream(sp, cp, seed, phaseOpen, c)
	}
	lastOnKey := map[string]chan struct{}{}
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	steal := make([]float64, windows)
	stealDone := make(chan struct{})
	go func() {
		defer close(stealDone)
		time.Sleep(time.Until(start))
		s0, t0 := cpuSteal()
		for w := 0; w < windows; w++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(w+1) / windows)))
			s1, t1 := cpuSteal()
			steal[w] = ratio(float64(s1-s0), float64(t1-t0))
			s0, t0 = s1, t1
		}
	}()
	for i := 0; i < total; i++ {
		c := i % clients
		o := nextOp(kinds[c], reads[c], writes[c], t)
		id := ids.next()
		log[i] = issued{o: o, id: id}
		var prev chan struct{}
		done := make(chan struct{})
		if o.kind.isWrite() {
			prev = lastOnKey[o.key]
			lastOnKey[o.key] = done
		}
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int, o op) {
			defer wg.Done()
			defer close(done)
			if prev != nil {
				<-prev
			}
			var sent time.Time
			err := cl.do(cp, &o, log[i].id, &sent)
			e := time.Now()
			t.note(err)
			samples[i] = sample{kind: o.kind, window: i * windows / total, latency: e.Sub(due), late: sent.Sub(due)}
			ok[i] = err == nil
			if err == nil && hook != nil {
				hook(&o, log[i].id, sent, e)
			}
		}(i, o)
	}
	wg.Wait()
	<-stealDone
	out := samples[:0]
	for i, s := range samples {
		if ok[i] {
			out = append(out, s)
		}
	}
	return out, log, steal
}

// drain sends every client's remaining writes, so the final contents are
// the full write lists applied in order: a function of the seed alone.
func drain(cl *client, cp *corpus, writes []*writeStream, t *tally, ids *reqIDs) {
	var wg sync.WaitGroup
	for _, ws := range writes {
		wg.Add(1)
		go func(ws *writeStream) {
			defer wg.Done()
			for {
				o, ok := ws.take()
				if !ok {
					return
				}
				t.note(cl.do(cp, &o, ids.next(), nil))
			}
		}(ws)
	}
	wg.Wait()
}
