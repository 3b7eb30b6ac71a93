package main

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"lshensemble"
	"lshensemble/internal/cluster"
	"lshensemble/internal/serve"
)

// Fixed loopback addresses. The router's ring hashes shard URLs, so random
// ports would move keys between shards from run to run.
const (
	routerAddr     = "127.0.0.1:18460"
	firstShardPort = 18461
)

func shardAddr(i int) string { return fmt.Sprintf("127.0.0.1:%d", firstShardPort+i) }

func shardURL(i int) string { return "http://" + shardAddr(i) }

var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// listener is one HTTP server the stack runs in-process.
type listener struct {
	srv  *http.Server
	done chan struct{}
}

func listen(addr string, h http.Handler) (*listener, error) {
	var ln net.Listener
	var err error
	// A just-closed server's port can take a moment to free up.
	for try := 0; try < 50; try++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	l := &listener{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: time.Minute},
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		if err := l.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: serve %s: %v\n", addr, err)
		}
	}()
	return l, nil
}

func (l *listener) close() {
	l.srv.Close()
	<-l.done
}

// shardProc is one shard: a live index behind serve.Server.
type shardProc struct {
	idx *lshensemble.LiveIndex
	ln  *listener
}

// stack is the serving topology of one workload, built from the repo's
// public constructors: lshensemble.BuildLive → serve.NewWith per shard and,
// for two shards, cluster.NewRouter in front.
type stack struct {
	shards   []*shardProc
	router   *cluster.Router
	routerLn *listener
	front    string // base URL clients talk to
}

// liveOptions is the daemon's default shape. The live defaults hold too:
// a shard seals its buffer at 4096 entries and merges past 8 segments.
func liveOptions() lshensemble.LiveOptions {
	return lshensemble.LiveOptions{
		Options: lshensemble.Options{NumHash: numHash, RMax: rMax, NumPartitions: numPartitions},
	}
}

// startStack starts empty servers. wrap, when non-nil, wraps each handler
// (the traced run's span recorder); shard i's handler gets layer "serve",
// the router's "cluster".
func startStack(sp spec, wrap func(layer string, shard int, h http.Handler) http.Handler) (*stack, error) {
	st := &stack{}
	hasher := lshensemble.NewHasher(numHash, hashSeed)
	for i := 0; i < sp.shards; i++ {
		idx, err := lshensemble.BuildLive(nil, liveOptions())
		if err != nil {
			st.close()
			return nil, err
		}
		srv := serve.NewWith(idx, hasher, hashSeed, "", serve.Options{Logger: quietLogger})
		var h http.Handler = srv
		if wrap != nil {
			h = wrap("serve", i, h)
		}
		ln, err := listen(shardAddr(i), h)
		if err != nil {
			idx.Close()
			st.close()
			return nil, err
		}
		st.shards = append(st.shards, &shardProc{idx: idx, ln: ln})
	}
	if sp.shards == 1 {
		st.front = shardURL(0)
		return st, nil
	}
	urls := make([]string, sp.shards)
	for i := range urls {
		urls[i] = shardURL(i)
	}
	r, err := cluster.NewRouter(urls, cluster.Options{Logger: quietLogger, ShardTimeout: 10 * time.Second})
	if err != nil {
		st.close()
		return nil, err
	}
	r.Start()
	st.router = r
	var h http.Handler = r
	if wrap != nil {
		h = wrap("cluster", -1, h)
	}
	if st.routerLn, err = listen(routerAddr, h); err != nil {
		st.close()
		return nil, err
	}
	st.front = "http://" + routerAddr
	return st, nil
}

func (st *stack) close() {
	if st.routerLn != nil {
		st.routerLn.close()
	}
	if st.router != nil {
		st.router.Close()
	}
	for _, s := range st.shards {
		s.ln.close()
		s.idx.Close()
	}
}

// owners returns the shard each key lands on, as the router's ring places
// it (replication 1).
func owners(shards int, keys []string) []int {
	out := make([]int, len(keys))
	if shards == 1 {
		return out
	}
	urls := make([]string, shards)
	index := make(map[string]int, shards)
	for i := range urls {
		urls[i] = shardURL(i)
		index[urls[i]] = i
	}
	ring := cluster.NewRing(urls, cluster.RingOptions{})
	for i, k := range keys {
		out[i] = index[ring.Primary(k)]
	}
	return out
}
