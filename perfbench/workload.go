package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"

	"lshensemble/internal/datagen"
)

// opKind names one front-door operation.
type opKind uint8

const (
	opQuery opKind = iota
	opTopK
	opBatch
	opAdd
	opDelete
	numKinds
)

var kindNames = [numKinds]string{"query", "topk", "batch", "add", "delete"}

func (k opKind) String() string { return kindNames[k] }

func (k opKind) isWrite() bool { return k == opAdd || k == opDelete }

// Fixed serving shape, the daemon defaults: m=256 hash values, forest depth
// 8, 16 partitions per sealed segment, hash-family seed 42.
const (
	numHash       = 256
	rMax          = 8
	numPartitions = 16
	hashSeed      = 42
	threshold     = 0.5 // t* of every threshold query
	topK          = 10
	batchSize     = 8
	// maxDomainSize caps the power-law domain sizes (datagen's default
	// reaches 20000): a handful of giant domains otherwise sets every
	// latency tail, and how many a seed draws decides the run.
	maxDomainSize = 2000
)

// spec is one workload: the serving topology, the preload corpus, the op
// mix and the offered rate of the open-loop phase.
type spec struct {
	name    string
	shards  int // 1: one shard is the front door; 2: a router over 2 shards
	domains int // preload corpus size

	// mix weights the op kinds of both timed phases.
	mix [numKinds]float64
	// writeMix weights the writes: replace a live key, create a key,
	// delete a live key.
	writeMix [3]float64

	// hotSet > 0 draws queries Zipf-skewed over that many hot domains;
	// 0 walks a seeded permutation of the whole corpus (distinct queries).
	hotSet int

	// prefill is how many writes from the clients' lists run, untimed,
	// before the timed phases.
	prefill int
	// rate is the open-loop offered rate in ops/s, below saturation.
	rate float64
	// maxThroughput over-estimates closed-loop ops/s; it sizes the fixed
	// per-client write stream so the timed phases never exhaust it.
	maxThroughput float64
}

var specs = []spec{
	{
		name: "search", shards: 1, domains: 16000,
		mix:  [numKinds]float64{opQuery: 0.55, opTopK: 0.32, opBatch: 0.13},
		rate: 300,
	},
	{
		name: "churn", shards: 1, domains: 16000,
		// A quarter of the seal threshold: the open loop's writes then carry
		// the buffer across its steady-state mean of half the threshold.
		prefill:  1024,
		mix:      [numKinds]float64{opQuery: 0.30, opTopK: 0.12, opBatch: 0.08, opAdd: 0.35, opDelete: 0.15},
		writeMix: [3]float64{0.45, 0.25, 0.30},
		rate:     200, maxThroughput: 3000,
	},
	{
		name: "fleet", shards: 2, domains: 16000,
		mix:      [numKinds]float64{opQuery: 0.60, opTopK: 0.25, opBatch: 0.13, opAdd: 0.012, opDelete: 0.008},
		writeMix: [3]float64{0.45, 0.25, 0.30},
		hotSet:   512,
		rate:     250, maxThroughput: 3000,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// corpus is the seeded preload: datagen's power-law OpenData domains, each
// value rendered as a string, plus the JSON array of those strings that
// request bodies splice in.
type corpus struct {
	keys   []string
	ids    [][]uint64 // distinct value ids per domain (exact truth)
	values [][]string // the same values rendered as strings
	frags  [][]byte   // JSON array of values
}

func newCorpus(n int, seed uint64) *corpus {
	gen := datagen.OpenData(datagen.OpenDataConfig{NumDomains: n, MaxSize: maxDomainSize, Seed: seed})
	c := &corpus{
		keys:   make([]string, n),
		ids:    make([][]uint64, n),
		values: make([][]string, n),
		frags:  make([][]byte, n),
	}
	for i, d := range gen.Domains {
		c.keys[i] = d.Key
		c.ids[i] = d.Values
		vals := make([]string, len(d.Values))
		frag := make([]byte, 0, len(d.Values)*16+2)
		frag = append(frag, '[')
		for j, v := range d.Values {
			s := "v" + strconv.FormatUint(v, 36)
			vals[j] = s
			if j > 0 {
				frag = append(frag, ',')
			}
			frag = append(frag, '"')
			frag = append(frag, s...)
			frag = append(frag, '"')
		}
		c.values[i] = vals
		c.frags[i] = append(frag, ']')
	}
	return c
}

// op is one generated operation. Reads name corpus domains as their query
// values; writes name a key and, for adds, the domain whose values it
// stores.
type op struct {
	kind    opKind
	key     string
	tmpl    int   // query/topk: query domain; add: stored domain
	batch   []int // batch: query domains
	replace bool  // add: the key is live before this add
}

// phase tags the RNG streams, so each timed phase draws its own kinds and
// reads no matter how many ops the previous phase completed.
type phase uint64

const (
	phaseClosed phase = iota + 1
	phaseOpen
	phaseCheck
	phaseWrites
	phaseHot
	phaseWarm
)

func newRNG(seed uint64, ph phase, client int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(ph)<<32|uint64(client)))
}

// readStream draws one client's reads of one phase.
type readStream struct {
	rng  *rand.Rand
	n    int
	perm []int
	pos  int
	hot  []int
	zipf *rand.Zipf
}

func newReadStream(sp spec, c *corpus, seed uint64, ph phase, client int) *readStream {
	rs := &readStream{rng: newRNG(seed, ph, client), n: len(c.keys)}
	if sp.hotSet > 0 {
		rs.hot = hotSet(c, sp.hotSet, seed)
		rs.zipf = rand.NewZipf(rs.rng, 1.1, 50, uint64(len(rs.hot)-1))
	}
	return rs
}

// hotSet picks the n domains every client's skewed queries share: one per
// size stratum, so the hot set's sizes follow the corpus's, ranked in a
// seeded order. Popularity ranks are Zipf(s=1.1, v=50): the offset spreads
// the head over some hundred domains, so the sizes of a few hot domains do
// not decide a run's cost.
func hotSet(c *corpus, n int, seed uint64) []int {
	bySize := make([]int, len(c.ids))
	for i := range bySize {
		bySize[i] = i
	}
	sort.SliceStable(bySize, func(a, b int) bool { return len(c.ids[bySize[a]]) < len(c.ids[bySize[b]]) })
	rng := newRNG(seed, phaseHot, 0)
	n = min(n, len(bySize))
	stride := len(bySize) / n
	hot := make([]int, n)
	for i := range hot {
		hot[i] = bySize[i*stride+rng.IntN(stride)]
	}
	rng.Shuffle(n, func(a, b int) { hot[a], hot[b] = hot[b], hot[a] })
	return hot
}

// next returns the next query domain.
func (rs *readStream) next() int {
	if rs.zipf != nil {
		return rs.hot[rs.zipf.Uint64()]
	}
	if rs.pos == len(rs.perm) {
		rs.perm = rs.rng.Perm(rs.n)
		rs.pos = 0
	}
	rs.pos++
	return rs.perm[rs.pos-1]
}

// kindStream draws one client's op kinds of one phase.
type kindStream struct {
	rng *rand.Rand
	cum [numKinds]float64
}

func newKindStream(sp spec, seed uint64, ph phase, client int) *kindStream {
	ks := &kindStream{rng: newRNG(seed, ph, client)}
	total := 0.0
	for k, w := range sp.mix {
		total += w
		ks.cum[k] = total
	}
	for k := range ks.cum {
		ks.cum[k] /= total
	}
	return ks
}

func (ks *kindStream) next() opKind {
	u := ks.rng.Float64()
	for k, c := range ks.cum {
		if u < c {
			return opKind(k)
		}
	}
	return numKinds - 1
}

// readOp builds a read of the given kind from the stream.
func (rs *readStream) readOp(kind opKind) op {
	if kind == opBatch {
		b := make([]int, batchSize)
		for i := range b {
			b[i] = rs.next()
		}
		return op{kind: opBatch, batch: b}
	}
	return op{kind: kind, tmpl: rs.next()}
}

// clientOf assigns a key of the preload to one client: key i belongs to
// client i mod clients. Keys a client creates carry its number, so client
// key slices are disjoint and each key's ops stay in one client's order.
func clientOf(i, clients int) int { return i % clients }

// model is the benchmark's own record of one client's key slice: which keys
// are live and which corpus domain each one stores.
type model struct {
	live map[string]int
	keys []string
	pos  map[string]int
}

func newModel() *model { return &model{live: map[string]int{}, pos: map[string]int{}} }

func (m *model) put(key string, tmpl int) {
	if _, ok := m.live[key]; !ok {
		m.pos[key] = len(m.keys)
		m.keys = append(m.keys, key)
	}
	m.live[key] = tmpl
}

func (m *model) del(key string) {
	i := m.pos[key]
	last := m.keys[len(m.keys)-1]
	m.keys[i] = last
	m.pos[last] = i
	m.keys = m.keys[:len(m.keys)-1]
	delete(m.pos, key)
	delete(m.live, key)
}

// preloadModel returns the model of one client's slice right after setup.
func preloadModel(c *corpus, client, clients int) *model {
	m := newModel()
	for i, k := range c.keys {
		if clientOf(i, clients) == client {
			m.put(k, i)
		}
	}
	return m
}

// genWrites generates one client's fixed write stream of n ops, advancing
// the model through them. The stream is a pure function of (spec, corpus,
// seed, client, n).
func genWrites(sp spec, c *corpus, m *model, seed uint64, client, n int) []op {
	rng := newRNG(seed, phaseWrites, client)
	ops := make([]op, 0, n)
	created := 0
	for len(ops) < n {
		u := rng.Float64() * (sp.writeMix[0] + sp.writeMix[1] + sp.writeMix[2])
		switch {
		case u < sp.writeMix[0] && len(m.keys) > 0: // replace a live key
			o := op{kind: opAdd, key: m.keys[rng.IntN(len(m.keys))], tmpl: rng.IntN(len(c.keys)), replace: true}
			m.put(o.key, o.tmpl)
			ops = append(ops, o)
		case u < sp.writeMix[0]+sp.writeMix[1] || len(m.keys) == 0: // create a key
			o := op{kind: opAdd, key: fmt.Sprintf("new-%d-%d", client, created), tmpl: rng.IntN(len(c.keys))}
			created++
			m.put(o.key, o.tmpl)
			ops = append(ops, o)
		default: // delete a live key
			key := m.keys[rng.IntN(len(m.keys))]
			m.del(key)
			ops = append(ops, op{kind: opDelete, key: key})
		}
	}
	return ops
}
