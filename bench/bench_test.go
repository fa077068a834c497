package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fx10/internal/engine"
	"fx10/internal/parser"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the reference engine")

// TestGolden recomputes the paper programs' report digests on the
// reference engine and compares them with testdata/golden.json.
func TestGolden(t *testing.T) {
	ref := engine.MustNew(engine.Config{Strategy: "phased", CacheSize: -1})
	got := map[string]string{}
	for _, b := range workloads.All() {
		p, err := parser.Parse(syntax.Print(b.Program()))
		if err != nil {
			t.Fatal(err)
		}
		res, err := ref.Analyze(engine.Job{Program: p})
		if err != nil {
			t.Fatal(err)
		}
		d := reportDigest(res)
		got[b.Name] = hex.EncodeToString(d[:])
	}
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/golden.json", append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := golden()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden.json has %d programs, want %d", len(want), len(got))
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: report digest %s, golden %s", name, d, want[name])
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := newDist([]float64{5, 1, 4, 2, 3})
	for _, c := range []struct{ q, want float64 }{{0.5, 3}, {0.2, 1}, {0.21, 2}, {0.95, 5}, {1, 5}, {0, 1}} {
		if got := xs.q(c.q); got != c.want {
			t.Errorf("q(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

// TestTailRule checks the ten-samples-beyond rule: a percentile is
// reportable only when at least ten samples lie above it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{19, 0.5, false}, {20, 0.5, true}, {199, 0.95, false}, {200, 0.95, true},
		{1000, 0.99, true}, {999, 0.99, false}, {0, 0.5, false},
	} {
		if got := qualifies(c.n, c.q); got != c.want {
			t.Errorf("qualifies(%d, %g) = %v (beyond %d), want %v", c.n, c.q, got, beyond(c.n, c.q), c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0}, {21, 0.5}, {100, 0.9}, {200, 0.95}, {1000, 0.99}, {20000, 0.999}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	s := summarize([]float64{3, 1, 2})
	if s.Count != 3 || s.P50 != 2 || s.Max != 3 || s.TailQ != 0 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestFailureAccounting(t *testing.T) {
	win := []*record{
		{status: 200},
		{status: 429, fail: failStatus},
		{fail: failTransport},
		{status: 200, fail: failMismatch},
		{status: 200, done: 5 * time.Millisecond},
	}
	res := newResults(defaults(), allWorkloads[0])
	res.count(win)
	if res.Attempted != 5 || res.Failed != 3 || res.ErrorRate != 0.6 {
		t.Errorf("attempted %d failed %d rate %g, want 5 3 0.6", res.Attempted, res.Failed, res.ErrorRate)
	}
	if res.Failures[failStatus] != 1 || res.Failures[failTransport] != 1 || res.Failures[failMismatch] != 1 {
		t.Errorf("failures %v", res.Failures)
	}
	if res.Statuses["200"] != 3 || res.Statuses["429"] != 1 {
		t.Errorf("statuses %v", res.Statuses)
	}
	// Failed requests stay out of the latency percentiles.
	res.endToEnd(allWorkloads[0], win, time.Second, []float64{1}, []float64{1})
	if m := res.Client["client.latency_p50_ms"]; m.Samples != 2 {
		t.Errorf("latency samples %d, want the 2 successes", m.Samples)
	}
	if m := res.EndToEnd["throughput_rps"]; m.Value != 2 {
		t.Errorf("throughput %g, want 2 successes per second", m.Value)
	}
}

// TestOpenLoopLateness checks that an open-loop request is timed from
// its due time, so a stall counts against it, while a closed-loop one
// is timed from its send.
func TestOpenLoopLateness(t *testing.T) {
	r := record{due: 10 * time.Millisecond, sent: 25 * time.Millisecond, done: 30 * time.Millisecond, open: true}
	if r.latency() != 20*time.Millisecond || r.late() != 15*time.Millisecond {
		t.Errorf("open: latency %v late %v, want 20ms 15ms", r.latency(), r.late())
	}
	r.open = false
	if r.latency() != 5*time.Millisecond {
		t.Errorf("closed: latency %v, want 5ms", r.latency())
	}

	// An open-loop client whose first request stalls falls behind its
	// schedule: the next request is sent late and timed from its due time.
	var n atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(50 * time.Millisecond)
		}
		_, _ = w.Write([]byte(`{"mhp":true}`))
	}))
	defer ts.Close()
	c := &client{rate: 100, hc: conn(), gen: func(*record) request { return queryRequest(op{kind: opQuery}) }}
	defer c.hc.CloseIdleConnections()
	var ids atomic.Int64
	c.run(ts.URL, time.Now(), 0, 100*time.Millisecond, &ids)
	if len(c.recs) != 10 {
		t.Fatalf("%d requests, want one every 10ms for 100ms", len(c.recs))
	}
	for i, r := range c.recs {
		if want := time.Duration(i) * 10 * time.Millisecond; r.due != want || !r.ok() {
			t.Errorf("request %d: due %v fail %q, want due %v", i, r.due, r.fail, want)
		}
	}
	if second := c.recs[1]; second.late() < 30*time.Millisecond || second.latency() < second.late() {
		t.Errorf("request after the stall: late %v latency %v, want ≥ 30ms late, timed from due", second.late(), second.latency())
	}
}

func TestValidity(t *testing.T) {
	cfg := defaults()
	w := func(name string) *workload {
		w, err := lookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	recs := func(n int, r record) []*record {
		var out []*record
		for i := 0; i < n; i++ {
			r := r
			out = append(out, &r)
		}
		return out
	}
	cases := []struct {
		name    string
		ws      windowStats
		invalid bool
	}{
		{"cold-corpus", windowStats{programHits: 0}, false},
		{"cold-corpus", windowStats{programHits: 1}, true},
		{"hot-mixed", windowStats{recs: recs(100, record{op: op{kind: opQuery}})}, false},
		{"hot-mixed", windowStats{recs: append(recs(98, record{op: op{kind: opQuery}}), recs(2, record{op: op{kind: opAnalyze}})...)}, true},
		{"edit-session", windowStats{recs: append(recs(95, record{op: op{kind: opDelta}}), recs(5, record{op: op{kind: opDelta}, full: true})...)}, false},
		{"edit-session", windowStats{recs: append(recs(94, record{op: op{kind: opDelta}}), recs(6, record{op: op{kind: opDelta}, full: true})...)}, true},
		{"huge-interleaved", windowStats{recs: recs(20, record{op: op{kind: opHuge}})}, false},
		{"huge-interleaved", windowStats{recs: append(recs(19, record{op: op{kind: opHuge}}), recs(1, record{op: op{kind: opHuge}, fail: failStatus})...)}, true},
	}
	for _, c := range cases {
		problems := w(c.name).validity(c.ws, cfg)
		if got := len(problems) > 0; got != c.invalid {
			t.Errorf("%s %+v: problems %q, want invalid=%v", c.name, c.ws.programHits, problems, c.invalid)
		}
	}
}

// spec is the part of the repository's BENCHMARK.json the benchmark
// must agree with.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// sameMetrics reports the differences between what a run emitted and
// what BENCHMARK.json lists.
func sameMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for _, m := range want {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("%s %s: emitted %+v (present %v), want unit %s", what, m.Name, g, ok, m.Unit)
		}
	}
}

func TestWorkloadsMatchSpec(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(allWorkloads))
	}
	for i, w := range s.Workloads {
		if w.Name != allWorkloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, allWorkloads[i].name)
		}
	}
}

// TestSmoke runs every workload, traced, for about a second on small
// inputs through the constructors the benchmark uses. Every answer
// must be right and every metric BENCHMARK.json lists must be emitted.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := run(smallConfig(w.name))
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("attempted %d failed %d %v", res.Attempted, res.Failed, res.Failures)
			}
			if res.Verified == 0 && w.name != "hot-mixed" {
				t.Errorf("nothing checked against the reference")
			}
			for _, p := range res.Problems {
				// A one-second window is too short for the tail rule.
				if !strings.Contains(p, "samples leave") {
					t.Errorf("problem: %s", p)
				}
			}
			sameMetrics(t, "end-to-end", res.EndToEnd, s.EndToEnd)
			sameMetrics(t, "per-layer", res.PerLayer, s.PerLayer)
			for name, m := range res.EndToEnd {
				if !(m.Value > 0) {
					t.Errorf("%s = %g, want > 0", name, m.Value)
				}
			}
		})
	}
}

// smallConfig is a traced one-second run on three small paper programs.
func smallConfig(workload string) config {
	cfg := defaults()
	cfg.workload, cfg.trace = workload, true
	cfg.window, cfg.warmup = time.Second, 100*time.Millisecond
	cfg.paper = []string{"series", "mapreduce", "fragstream"}
	cfg.goCorpus, cfg.goPool, cfg.hugeLabels, cfg.hugePool = 2, 4, 300, 2
	cfg.setups, cfg.verifyMax, cfg.replayMax, cfg.proxyMax, cfg.minHuge = 1, 20, 20, 5, 1
	return cfg
}
