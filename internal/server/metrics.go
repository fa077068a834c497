package server

import (
	"expvar"
	"fmt"
	"math/bits"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"fx10/internal/engine"
)

// Metrics is the server's expvar-backed registry. Every variable is
// an expvar.Var collected in one expvar.Map, so the same data is
// servable at /metrics (the map renders itself as JSON), publishable
// under /debug/vars by the daemon, and scrapeable programmatically.
// The map is intentionally NOT published to the process-global expvar
// namespace here — expvar.Publish panics on duplicate names, and
// tests run many servers per process; the daemon publishes its one
// server's map itself.
type Metrics struct {
	vars *expvar.Map

	// requests counts accepted requests per endpoint; responses
	// counts responses per status code.
	requests  *expvar.Map
	responses *expvar.Map

	inflight *expvar.Int // requests holding a worker slot
	sessions *expvar.Int // live delta sessions

	solves   *expvar.Int // engine calls that ran the pipeline (cache hits excluded)
	overload *expvar.Int // requests rejected 429 at admission
	canceled *expvar.Int // requests abandoned by client or deadline

	batches       *expvar.Int // /v1/batch requests admitted
	batchPrograms *expvar.Int // programs carried by those batches

	queueWait    *Histogram // time from admission to worker slot
	solveLatency *Histogram // engine time per successful solve
	reqLatency   *Histogram // end-to-end handler time, all endpoints
}

// newMetrics builds the registry. cacheStats feeds the "cache"
// section; queueDepth reports the requests waiting for a worker slot.
func newMetrics(cacheStats func() engine.CacheStats, queueDepth func() int64) *Metrics {
	m := &Metrics{
		vars:          new(expvar.Map).Init(),
		requests:      new(expvar.Map).Init(),
		responses:     new(expvar.Map).Init(),
		inflight:      new(expvar.Int),
		sessions:      new(expvar.Int),
		solves:        new(expvar.Int),
		overload:      new(expvar.Int),
		canceled:      new(expvar.Int),
		batches:       new(expvar.Int),
		batchPrograms: new(expvar.Int),
		queueWait:     NewHistogram(),
		solveLatency:  NewHistogram(),
		reqLatency:    NewHistogram(),
	}
	start := time.Now()
	m.vars.Set("requests", m.requests)
	m.vars.Set("responses", m.responses)
	m.vars.Set("queueDepth", expvar.Func(func() any { return queueDepth() }))
	m.vars.Set("inflight", m.inflight)
	m.vars.Set("sessions", m.sessions)
	m.vars.Set("solves", m.solves)
	m.vars.Set("overload", m.overload)
	m.vars.Set("canceled", m.canceled)
	m.vars.Set("batches", m.batches)
	m.vars.Set("batchPrograms", m.batchPrograms)
	m.vars.Set("queueWaitMs", m.queueWait)
	m.vars.Set("solveLatencyMs", m.solveLatency)
	m.vars.Set("requestLatencyMs", m.reqLatency)
	m.vars.Set("uptimeSeconds", expvar.Func(func() any {
		return int64(time.Since(start).Seconds())
	}))
	m.vars.Set("goroutines", expvar.Func(func() any {
		return runtime.NumGoroutine()
	}))
	m.vars.Set("cache", expvar.Func(func() any {
		cs := cacheStats()
		return map[string]any{
			"programHits":    cs.Hits,
			"programMisses":  cs.Misses,
			"programHitRate": rate(cs.Hits, cs.Misses),
		}
	}))
	return m
}

func rate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Expvar returns the registry's root map, for publishing under
// /debug/vars.
func (m *Metrics) Expvar() *expvar.Map { return m.vars }

// ServeHTTP renders the registry as one JSON object.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, m.vars.String())
}

// Histogram is a fixed-bucket latency histogram implementing
// expvar.Var. Buckets are powers of two in microseconds (1µs …
// ~134s), wide enough for a cache-hit query and a cold mg solve
// alike. All mutation is atomic; String renders counts plus
// interpolated p50/p95/p99, the live view the daemon's /metrics
// serves. Exact quantiles need raw samples, which a client-side
// load generator such as bench/ keeps.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Uint64
}

// histBuckets is the bucket count: bucket 0 covers [0, 1] µs and
// bucket b > 0 covers (2^(b-1), 2^b] µs.
const histBuckets = 28

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration in the bucket whose bounds contain
// it: a duration of u µs, rounded up to whole microseconds, goes to
// bucket ⌈log₂ u⌉.
func (h *Histogram) Observe(d time.Duration) {
	b := 0
	if ns := d.Nanoseconds(); ns > 0 {
		us := (uint64(ns) + 999) / 1000
		b = min(bits.Len64(us-1), histBuckets-1)
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sumNs.Add(uint64(d.Nanoseconds()))
}

// Quantile estimates the q-quantile (0 < q < 1) in milliseconds by
// linear interpolation inside the holding bucket.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for b := 0; b < histBuckets; b++ {
		n := float64(h.buckets[b].Load())
		if cum+n >= target && n > 0 {
			lo, hi := bucketBoundsUs(b)
			frac := (target - cum) / n
			return (lo + frac*(hi-lo)) / 1000 // µs → ms
		}
		cum += n
	}
	_, hi := bucketBoundsUs(histBuckets - 1)
	return hi / 1000
}

func bucketBoundsUs(b int) (lo, hi float64) {
	if b == 0 {
		return 0, 1
	}
	return float64(uint64(1) << (b - 1)), float64(uint64(1) << b)
}

// String implements expvar.Var: count, mean and estimated quantiles
// in milliseconds.
func (h *Histogram) String() string {
	count := h.count.Load()
	mean := 0.0
	if count > 0 {
		mean = float64(h.sumNs.Load()) / float64(count) / 1e6
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"count":%d,"meanMs":%.3f,"p50Ms":%.3f,"p95Ms":%.3f,"p99Ms":%.3f}`,
		count, mean, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
	return sb.String()
}
