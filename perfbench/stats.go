package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// windowed is the first quartile over the open loop's windows of each
// window's q-quantile latency, in ms, for one op kind. Hypervisor steal on
// a shared machine comes in bursts of seconds; the quartile reads the
// windows it spared, where a change to the code still shows in full.
func windowed(samples []sample, kind opKind, q float64) float64 {
	var per [windows][]float64
	for _, s := range samples {
		if s.kind == kind {
			per[s.window] = append(per[s.window], ms(s.latency))
		}
	}
	qs := make([]float64, 0, windows)
	for _, xs := range per {
		if len(xs) > 0 {
			qs = append(qs, quantile(xs, q))
		}
	}
	return quantile(qs, 0.25)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics keeps reported values in insertion order for the table. The
// result line carries all but the printed-only ones.
type metrics struct {
	names   []string
	m       map[string]metric
	printed map[string]bool
}

func newMetrics() *metrics { return &metrics{m: map[string]metric{}, printed: map[string]bool{}} }

func (ms *metrics) set(name, unit string, v float64) {
	ms.names = append(ms.names, name)
	ms.m[name] = metric{Value: v, Unit: unit}
}

// extra records a metric for the table only.
func (ms *metrics) extra(name, unit string, v float64) {
	ms.set(name, unit, v)
	ms.printed[name] = true
}

// result returns the metrics of the result line.
func (ms *metrics) result() map[string]metric {
	out := make(map[string]metric, len(ms.m))
	for name, m := range ms.m {
		if !ms.printed[name] {
			out[name] = m
		}
	}
	return out
}
