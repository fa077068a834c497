package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// metric is one reported number; Samples is the count behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// header says what was measured, where and on which code.
type header struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"windowSeconds"`
	WarmupS    float64 `json:"warmupSeconds"`
	Trace      bool    `json:"trace"`
	Clients    int     `json:"clients"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	Started    string  `json:"started"`
}

// results is one run's outcome, written as the results file.
type results struct {
	Header     header             `json:"header"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	ErrorRate  float64            `json:"errorRate"`
	Failures   map[string]int     `json:"failures"`
	Statuses   map[string]int     `json:"statuses"`
	Verified   int                `json:"verified"`
	Problems   []string           `json:"problems"`
	SetupRunsS []float64          `json:"setupRunsSeconds"`
	EndToEnd   map[string]metric  `json:"endToEnd"`
	Client     map[string]metric  `json:"client"`
	OpsMs      map[string]summary `json:"opsMs"`
	PerLayer   map[string]metric  `json:"perLayer,omitempty"`
	Kinds      []kindRow          `json:"layerMeansMs,omitempty"`
	// ServerMetrics is the daemon's own /metrics at the window's end,
	// cumulative since it started.
	ServerMetrics counters `json:"serverMetrics"`

	trace *traceFile
}

func newResults(cfg config, w *workload) *results {
	commit, dirty := gitCommit()
	return &results{
		Header: header{
			Workload: w.name, Seed: cfg.seed, WindowS: cfg.window.Seconds(), WarmupS: cfg.warmup.Seconds(),
			Trace: cfg.trace, Clients: numClients, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Commit: commit, Dirty: dirty, Started: time.Now().UTC().Format(time.RFC3339),
		},
		Failures: map[string]int{}, Statuses: map[string]int{},
		EndToEnd: map[string]metric{}, OpsMs: map[string]summary{},
	}
}

// gitCommit reads the checked-out commit when the benchmark runs in a
// git work tree; an exported source tree reports "unknown".
func gitCommit() (string, bool) {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown", false
	}
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	return strings.TrimSpace(string(head)), err != nil || len(bytes.TrimSpace(status)) > 0
}

// count tallies attempts and failures. A failed request (transport
// error, non-2xx including 429, or a wrong answer) is left out of every
// latency percentile.
func (res *results) count(win []*record) {
	res.Attempted = len(win)
	for _, r := range win {
		if r.status != 0 {
			res.Statuses[strconv.Itoa(r.status)]++
		}
		if !r.ok() {
			res.Failed++
			res.Failures[r.fail]++
		}
	}
	if res.Attempted > 0 {
		res.ErrorRate = float64(res.Failed) / float64(res.Attempted)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// endToEnd computes the metrics a user of the daemon sees, measured
// with tracing off, and the client-side figures that are too noisy on
// a shared 2-CPU host to bound (see README.md), kept for the trace.
func (res *results) endToEnd(w *workload, win []*record, window time.Duration, setups, heapMB []float64) {
	var all, heavy []float64
	closedOK := 0 // an open loop's rate is fixed by its schedule
	byKind := map[opKind][]float64{}
	for _, r := range win {
		if !r.ok() {
			continue
		}
		if !r.open {
			closedOK++
		}
		l := ms(r.latency())
		all = append(all, l)
		byKind[r.op.kind] = append(byKind[r.op.kind], l)
		if r.op.kind == w.heavy {
			heavy = append(heavy, l)
		}
	}
	for k, xs := range byKind {
		res.OpsMs[k.String()] = summarize(xs)
	}
	lat, hv, heap := newDist(all), newDist(heavy), newDist(heapMB)
	res.EndToEnd = map[string]metric{
		"setup_s":        {newDist(setups).q(0.5), "s", len(setups)},
		"throughput_rps": {float64(closedOK) / window.Seconds(), "1/s", closedOK},
		"heap_p50_mb":    {heap.q(0.5), "MB", len(heap)},
	}
	res.Client = map[string]metric{
		"client.latency_p50_ms": {lat.q(0.5), "ms", len(lat)},
		"client.latency_p95_ms": {lat.q(0.95), "ms", len(lat)},
		"client.heavy_p50_ms":   {hv.q(0.5), "ms", len(hv)},
		"runtime.heap_peak_mb":  {heap.q(1), "MB", len(heap)},
	}
	for _, c := range []struct {
		name string
		n    int
		q    float64
	}{{"client.latency_p50_ms", len(lat), 0.5}, {"client.latency_p95_ms", len(lat), 0.95}, {"client.heavy_p50_ms", len(hv), 0.5}} {
		if !qualifies(c.n, c.q) {
			res.Problems = append(res.Problems, fmt.Sprintf("%s: %d samples leave fewer than %d beyond the percentile", c.name, c.n, minBeyond))
		}
	}
}

// line is the last line of standard output: end-to-end metrics, or
// per-layer metrics in a traced run.
func (res *results) line() any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := res.EndToEnd
	if res.Header.Trace {
		src = res.PerLayer
	}
	out := map[string]value{}
	for name, m := range src {
		out[name] = value{m.Value, m.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, out}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (res *results) print(w io.Writer) {
	h := res.Header
	dirty := ""
	if h.Dirty {
		dirty = " (dirty)"
	}
	fmt.Fprintf(w, "bench %s seed %d: %.0fs window after %.0fs warm-up, %d clients; nproc %d, GOMAXPROCS %d, %s, commit %s%s\n",
		h.Workload, h.Seed, h.WindowS, h.WarmupS, h.Clients, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, dirty)
	fmt.Fprintf(w, "  attempted %d, failed %d %v (error rate %.4f), %d answers checked against the reference\n",
		res.Attempted, res.Failed, res.Failures, res.ErrorRate, res.Verified)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  INVALID: %s\n", p)
	}
	printMetrics(w, "end-to-end", res.EndToEnd)
	fmt.Fprintf(w, "  %-10s %7s %9s %9s %13s %9s\n", "op (ms)", "count", "p50", "p95", "tail", "max")
	for _, k := range sortedKeys(res.OpsMs) {
		s := res.OpsMs[k]
		tail := "-"
		if s.TailQ > 0 {
			tail = fmt.Sprintf("p%g %.3f", s.TailQ*100, s.Tail)
		}
		fmt.Fprintf(w, "  %-10s %7d %9.3f %9.3f %13s %9.3f\n", k, s.Count, s.P50, s.P95, tail, s.Max)
	}
	if !h.Trace {
		return
	}
	printMetrics(w, "per-layer", res.PerLayer)
	fmt.Fprintf(w, "  mean ms per request of the replayed sample: client = net + handler; handler = layers + unattributed\n")
	fmt.Fprintf(w, "  %-10s %4s %8s %8s %8s", "kind", "n", "client", "net", "handler")
	for _, name := range layerSpans {
		fmt.Fprintf(w, " %8s", shortName(name))
	}
	fmt.Fprintf(w, " %8s\n", "unattrib")
	for _, row := range res.Kinds {
		fmt.Fprintf(w, "  %-10s %4d %8.3f %8.3f %8.3f", row.Kind, row.N, row.Client, row.Net, row.Handler)
		for _, name := range layerSpans {
			fmt.Fprintf(w, " %8.3f", row.Layers[name])
		}
		fmt.Fprintf(w, " %8.3f\n", row.Unattributed)
	}
}

func shortName(span string) string { return span[strings.LastIndexByte(span, '.')+1:] }

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	fmt.Fprintf(w, "  %-32s %14s %-6s %8s\n", title, "value", "unit", "samples")
	for _, name := range sortedKeys(ms) {
		m := ms[name]
		fmt.Fprintf(w, "  %-32s %14.4f %-6s %8d\n", name, m.Value, m.Unit, m.Samples)
	}
}

// rtStats is the Go runtime's cumulative CPU and allocation counters.
type rtStats struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
}

func readRuntime() rtStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return rtStats{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), allocBytes: s[2].Value.Uint64()}
}

// heapSampler reads the size of the heap's objects every tick.
type heapSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func sampleHeap(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.mb = append(h.mb, float64(s[0].Value.Uint64())/1e6)
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns its samples in MB.
func (h *heapSampler) finish() []float64 {
	close(h.stop)
	<-h.done
	return h.mb
}

// layerInputs is what the per-layer metrics are computed from.
type layerInputs struct {
	in             *inputs
	d              *daemon
	tr             *tracer
	epoch          time.Time
	ids            *atomic.Int64
	cfg            config
	setup, win     []*record
	from, mid, end time.Duration
	before, after  snapshot
	genS           float64
}

// kindRow is one line of the per-kind layer table: mean milliseconds
// per replayed request of that kind.
type kindRow struct {
	Kind         string             `json:"kind"`
	N            int                `json:"n"`
	Client       float64            `json:"client"`
	Net          float64            `json:"net"`
	Handler      float64            `json:"handler"`
	Layers       map[string]float64 `json:"layers"`
	Unattributed float64            `json:"unattributed"`
}

// traceFile is the span dump of a traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// perLayer computes the per-layer metrics of a traced run: handler
// spans from the traced second half of the window, layer spans from
// replaying the set-up requests and a seeded sample of the traced
// requests, server and engine counters over the window, and the
// router overhead from a replay through a one-backend fleet router.
func (res *results) perLayer(lt layerInputs) error {
	cfg := lt.cfg
	pl := map[string]metric{}
	var problems []string
	put := func(name, unit string, v float64, n int) { pl[name] = metric{v, unit, n} }
	quant := func(name, unit string, xs []float64, q float64) {
		if len(xs) == 0 {
			problems = append(problems, name+": no samples")
			return
		}
		put(name, unit, newDist(xs).q(q), len(xs))
	}
	ratio := func(name string, num, den float64, n int) {
		v := 0.0
		if den > 0 {
			v = num / den
		}
		put(name, "ratio", v, n)
	}

	tf := &traceFile{Workload: res.Header.Workload, Seed: cfg.seed}
	addSpan := func(s span, parent int) int {
		s.ID, s.Parent = len(tf.Spans)+1, parent
		tf.Spans = append(tf.Spans, s)
		return s.ID
	}
	// Handler spans of the traced half; each record gets a client span
	// and its handler span in the trace file.
	handlerID := map[int64]int{}
	handler := map[int64]span{}
	var traced []*record
	var handlerMs, netUs []float64
	keep := func(r *record) {
		hs, ok := lt.tr.handler(r.id)
		if !ok {
			return
		}
		cid := addSpan(span{Req: r.id, Name: "client." + r.op.kind.String(), Start: r.sent, End: r.done}, 0)
		handlerID[r.id] = addSpan(hs, cid)
		handler[r.id] = hs
	}
	for _, r := range lt.setup {
		keep(r)
	}
	for _, r := range lt.win {
		if r.due < lt.mid || !r.ok() {
			continue
		}
		keep(r)
		if hs, ok := handler[r.id]; ok {
			traced = append(traced, r)
			handlerMs = append(handlerMs, ms(hs.dur()))
			netUs = append(netUs, us(r.done-r.sent-hs.dur()))
		}
	}
	quant("net.self_p50_us", "us", netUs, 0.5)
	quant("server.handler_p50_ms", "ms", handlerMs, 0.5)
	quant("server.handler_p95_ms", "ms", handlerMs, 0.95)

	// Replays: every set-up request, then the window sample.
	rp := newReplayer(lt.in, lt.d, lt.epoch)
	var reps []*replay
	for _, r := range lt.setup {
		x, err := rp.replay(r)
		if err != nil {
			return fmt.Errorf("replay set-up %s: %w", r.op.kind, err)
		}
		reps = append(reps, x)
	}
	winSample := sample(traced, cfg.seed+2, cfg.replayMax, maxHugeChecked)
	sort.Slice(winSample, func(i, j int) bool { return winSample[i].id < winSample[j].id })
	var selfMs []float64
	rows := map[opKind]*kindRow{}
	for _, r := range winSample {
		x, err := rp.replay(r)
		if err != nil {
			return fmt.Errorf("replay %s: %w", r.op.kind, err)
		}
		reps = append(reps, x)
		hs := handler[r.id]
		self := hs.dur() - x.total()
		selfMs = append(selfMs, ms(self))
		row := rows[r.op.kind]
		if row == nil {
			row = &kindRow{Kind: r.op.kind.String(), Layers: map[string]float64{}}
			rows[r.op.kind] = row
		}
		row.N++
		row.Client += ms(r.done - r.sent)
		row.Net += ms(r.done - r.sent - hs.dur())
		row.Handler += ms(hs.dur())
		row.Unattributed += ms(self)
		for _, name := range layerSpans {
			row.Layers[name] += ms(x.layer(name))
		}
	}
	for k := opKind(0); k < numKinds; k++ {
		row := rows[k]
		if row == nil {
			continue
		}
		n := float64(row.N)
		row.Client, row.Net, row.Handler, row.Unattributed = row.Client/n, row.Net/n, row.Handler/n, row.Unattributed/n
		for name := range row.Layers {
			row.Layers[name] /= n
		}
		res.Kinds = append(res.Kinds, *row)
	}
	quant("server.self_p50_ms", "ms", selfMs, 0.5)

	layerMs := map[string][]float64{}
	var srcBytes, stmts, dropped int
	var parseS float64
	var constraintCounts, evals, allocMB, reportKB, pairs []float64
	for _, x := range reps {
		parent := handlerID[x.rec.id]
		for _, s := range x.spans {
			s.Req = x.rec.id
			addSpan(s, parent)
			layerMs[s.Name] = append(layerMs[s.Name], ms(s.dur()))
			if s.Name == spanParse {
				srcBytes += x.srcBytes
				parseS += s.dur().Seconds()
			}
		}
		stmts += x.stmts
		dropped += x.dropped
		if x.solved {
			constraintCounts = append(constraintCounts, float64(x.constraints))
			evals = append(evals, float64(x.evals))
			allocMB = append(allocMB, float64(x.allocBytes)/1e6)
		}
		if x.rec.op.kind != opQuery {
			reportKB = append(reportKB, float64(x.respBytes)/1e3)
			pairs = append(pairs, float64(x.pairs))
		}
	}
	quant("server.decode_p50_ms", "ms", layerMs[spanDecode], 0.5)
	quant("server.encode_p50_ms", "ms", layerMs[spanEncode], 0.5)
	quant("syntax.hash_p50_ms", "ms", layerMs[spanHash], 0.5)
	quant("parser.parse_p50_ms", "ms", layerMs[spanParse], 0.5)
	if parseS > 0 {
		put("parser.mb_per_s", "MB/s", float64(srcBytes)/1e6/parseS, len(layerMs[spanParse]))
	}
	quant("frontend.lower_p50_ms", "ms", layerMs[spanLower], 0.5)
	ratio("frontend.dropped_ratio", float64(dropped), float64(stmts), len(layerMs[spanLower]))
	quant("labels.compute_p50_ms", "ms", layerMs[spanLabels], 0.5)
	quant("constraints.generate_p50_ms", "ms", layerMs[spanGenerate], 0.5)
	quant("constraints.count", "count", constraintCounts, 0.5)
	quant("constraints.solve_p50_ms", "ms", layerMs[spanSolve], 0.5)
	quant("constraints.solve_p95_ms", "ms", layerMs[spanSolve], 0.95)
	quant("engine.summaries_p50_ms", "ms", layerMs[spanSummaries], 0.5)
	quant("constraints.evaluations", "count", evals, 0.5)
	quant("constraints.alloc_mb", "MB", allocMB, 0.5)
	quant("mhp.report_p50_ms", "ms", layerMs[spanReport], 0.5)
	quant("mhp.report_p95_ms", "ms", layerMs[spanReport], 0.95)
	quant("mhp.report_kb", "KB", reportKB, 0.5)
	quant("mhp.pairs", "count", pairs, 0.5)

	// Window counters: server, engine, wire and runtime.
	b, a := lt.before, lt.after
	put("server.coalesced", "count", float64(a.server.Coalesced-b.server.Coalesced), res.Attempted)
	put("server.overload_429", "count", float64(a.server.Overload-b.server.Overload), res.Attempted)
	var misses, queries, deltas, full, resolved, methods int
	var late []float64
	for _, r := range lt.win {
		late = append(late, ms(r.late()))
		switch {
		case r.op.kind == opQuery:
			queries++
			if r.status == 404 {
				misses++
			}
		case r.op.kind == opDelta && r.ok():
			deltas++
			resolved += r.resolved
			methods += r.methods
			if r.full {
				full++
			}
		}
	}
	put("server.query_index_misses", "count", float64(misses), queries)
	ratio("engine.delta_resolved_ratio", float64(resolved), float64(methods), deltas)
	put("engine.delta_full", "count", float64(full), deltas)
	// Every program-cache miss runs the pipeline: the window's solves.
	hits, solves := a.cache.Hits-b.cache.Hits, a.cache.Misses-b.cache.Misses
	put("engine.solves", "count", float64(solves), res.Attempted)
	ratio("engine.program_cache_hit_ratio", float64(hits), float64(hits+solves), int(hits+solves))
	sh, sm := a.cache.SummaryHits-b.cache.SummaryHits, a.cache.SummaryMisses-b.cache.SummaryMisses
	ratio("engine.summary_hit_ratio", float64(sh), float64(sh+sm), int(sh+sm))
	ratio("runtime.gc_cpu_frac", a.runtime.gcCPU-b.runtime.gcCPU, a.runtime.totalCPU-b.runtime.totalCPU, res.Attempted)
	put("runtime.alloc_kb_per_req", "KB", float64(a.runtime.allocBytes-b.runtime.allocBytes)/1e3/math.Max(1, float64(res.Attempted)), res.Attempted)
	quant("client.late_p95_ms", "ms", late, 0.95)
	put("client.gen_s", "s", lt.genS, 1)

	// Tracing overhead: throughput of the traced half against the
	// untraced first half of the same window.
	okIn := func(lo, hi time.Duration) float64 {
		n := 0
		for _, r := range lt.win {
			if r.ok() && r.due >= lo && r.due < hi {
				n++
			}
		}
		return float64(n) / (hi - lo).Seconds()
	}
	untraced, tracedRPS := okIn(lt.from, lt.mid), okIn(lt.mid, lt.end)
	ratio("trace.overhead_frac", untraced-tracedRPS, untraced, res.Attempted)

	diffs, err := proxyOverhead(lt.d, lt.in, traced, cfg, lt.epoch, lt.ids)
	if err != nil {
		return fmt.Errorf("fleet replay: %w", err)
	}
	quant("fleet.proxy_p50_us", "us", diffs, 0.5)

	for name, m := range res.Client {
		pl[name] = m
	}
	res.PerLayer, res.trace = pl, tf
	res.Problems = append(res.Problems, problems...)
	return nil
}
