package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a percentile
// before it may be reported: a p95 over 40 samples is the second
// largest value, not a tail estimate.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted (ascending):
// the smallest sample with at least q·n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	return sorted[rank(n, q)]
}

// rank is the 0-based index of the nearest-rank q-quantile of n samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond is the number of samples strictly above the q-quantile's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, q)
}

// qualifies reports whether n samples support reporting the
// q-quantile under the minBeyond rule.
func qualifies(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// tailLadder is the set of percentiles a tail is chosen from.
var tailLadder = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// tailQuantile returns the highest percentile of tailLadder that n
// samples support, or 0 when not even the median qualifies.
func tailQuantile(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		if qualifies(n, q) {
			best = q
		}
	}
	return best
}

// dist is a sorted sample set.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

func (d dist) q(q float64) float64 { return quantile(d, q) }

// summary is the per-op latency report: median, p95, the tail the
// sample count supports, and the maximum.
type summary struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	TailQ float64 `json:"tailQ"`
	Tail  float64 `json:"tail"`
	Max   float64 `json:"max"`
}

func summarize(xs []float64) summary {
	d := newDist(xs)
	s := summary{Count: len(d)}
	if len(d) == 0 {
		return s
	}
	s.P50, s.P95, s.Max = d.q(0.5), d.q(0.95), d[len(d)-1]
	if s.TailQ = tailQuantile(len(d)); s.TailQ > 0 {
		s.Tail = d.q(s.TailQ)
	}
	return s
}
