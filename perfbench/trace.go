package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the ID of the span that caused it (-1 for a root),
// resolved once the run ends because the router and shard handlers cannot
// see each other's spans while they run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`  // client, cluster, serve, minhash, live, tune, lshforest, core
	Shard  int    `json:"shard"` // shard position; -1 above the shards
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	// Bytes in and out of a serve span's handler.
	ReqBytes  int64 `json:"req_bytes,omitempty"`
	RespBytes int64 `json:"resp_bytes,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; recording is switched by on.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	s.ID = len(t.spans)
	s.Parent = -1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// countingWriter counts the bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// wrap records a span around every request the handler serves while the
// tracer is on.
func (t *tracer) wrap(layer string, shard int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		end := time.Now()
		t.add(span{Req: r.Header.Get("X-Request-Id"), Name: layer, Shard: shard, Op: r.URL.Path,
			Start: t.ns(start), End: t.ns(end), ReqBytes: r.ContentLength, RespBytes: cw.n})
	})
}

// clientHook records the client round trip of every completed op while the
// tracer is on.
func (t *tracer) clientHook(o *op, id string, start, end time.Time) {
	if t.on.Load() {
		t.add(span{Req: id, Name: "client", Shard: -1, Op: o.kind.String(), Start: t.ns(start), End: t.ns(end)})
	}
}

// spanKey finds the span of one request at one layer and shard.
type spanKey struct {
	req   string
	name  string
	shard int
}

// resolve sets every span's parent: the router span's parent is the
// client span; a shard span's is the router span, or the client span
// without a router; a replay span's is the shard span of its request.
func resolve(spans []span) {
	byKey := make(map[spanKey]int, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.Name == "client" || s.Name == "cluster" || s.Name == "serve" {
			byKey[spanKey{s.Req, s.Name, s.Shard}] = s.ID
		}
	}
	find := func(req, name string, shard int) int {
		if id, ok := byKey[spanKey{req, name, shard}]; ok {
			return id
		}
		return -1
	}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "client":
			s.Parent = -1
		case "cluster":
			s.Parent = find(s.Req, "client", -1)
		case "serve":
			if s.Parent = find(s.Req, "cluster", -1); s.Parent < 0 {
				s.Parent = find(s.Req, "client", -1)
			}
		default:
			s.Parent = find(s.Req, "serve", s.Shard)
		}
	}
}

// selfTime is a span's duration minus the part of its interval that the
// union of its children covers. Children may overlap (a router's parallel
// shard calls), so overlapping stretches count once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// writeSpans writes the spans as gzipped JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
