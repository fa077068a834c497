package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fx10/internal/condensed"
	"fx10/internal/fleet"
	"fx10/internal/gofront"
	"fx10/internal/progen"
	"fx10/internal/server"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// loadgen drives a server (or, with -addr "", an in-process one) with
// a seeded mix of query/analyze/delta/batch traffic over the
// 13-workload corpus and reports client-side latency percentiles.
// With -scenario fleet it instead exercises replicas behind the router
// (fleetscenario.go).

type lgConfig struct {
	addr        string
	backends    string // comma-separated replica URLs (fleet mode)
	concurrency int
	duration    time.Duration
	seed        int64
	mix         string
	mode        string
	scenario    string
	jsonOut     bool
	strict      bool
	workers     int // selfserve only
	queue       int
}

func runLoadgen(args []string) error {
	fs := flag.NewFlagSet("fx10d loadgen", flag.ExitOnError)
	var cfg lgConfig
	fs.StringVar(&cfg.addr, "addr", "", "target server (host:port); empty starts one in-process")
	fs.StringVar(&cfg.backends, "backends", "", "comma-separated replica URLs; routes ops by hash affinity (query/analyze/delta) and round-robin (rest)")
	fs.IntVar(&cfg.concurrency, "c", 8, "concurrent clients")
	fs.DurationVar(&cfg.duration, "duration", 10*time.Second, "traffic duration (after warmup)")
	fs.Int64Var(&cfg.seed, "seed", 1, "rng seed (traffic is deterministic per seed)")
	fs.StringVar(&cfg.mix, "mix", "query=8,analyze=3,delta=1,goanalyze=1", "weighted op mix (ops: query, analyze, goanalyze, delta, batch)")
	fs.StringVar(&cfg.mode, "mode", "cs", "analysis mode (cs or ci)")
	fs.StringVar(&cfg.scenario, "scenario", "", `named scenario instead of mixed traffic ("fleet")`)
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit the report as JSON on stdout")
	fs.BoolVar(&cfg.strict, "strict", false, "exit non-zero on transport errors, any status outside 2xx/429, or cross-backend report divergence (CI smoke)")
	fs.IntVar(&cfg.workers, "workers", 0, "selfserve: solve workers")
	fs.IntVar(&cfg.queue, "queue", 0, "selfserve: admission queue depth")
	if err := fs.Parse(args); err != nil {
		return err
	}
	weights, err := parseMix(cfg.mix)
	if err != nil {
		return err
	}

	switch cfg.scenario {
	case "":
	case "fleet":
		return runFleetScenario(cfg)
	default:
		return fmt.Errorf("unknown scenario %q (want fleet)", cfg.scenario)
	}

	// Fleet mode: a -backends list replaces the single target. Ops
	// with a content key route by the same consistent-hash ring the
	// fx10d router uses (so replica caches stay hot); the rest
	// round-robin. bases[w%len] is each worker's round-robin start.
	var ring *fleet.Ring
	var bases []string
	if cfg.backends != "" {
		if cfg.addr != "" {
			return fmt.Errorf("-addr and -backends are mutually exclusive")
		}
		for _, b := range strings.Split(cfg.backends, ",") {
			if b = strings.TrimSpace(b); b != "" {
				if !strings.HasPrefix(b, "http") {
					b = "http://" + b
				}
				bases = append(bases, b)
			}
		}
		ring, err = fleet.NewRing(bases, 0)
		if err != nil {
			return err
		}
	}

	base := cfg.addr
	var shutdown func()
	if base == "" && ring == nil {
		base, shutdown, err = selfserve(cfg)
		if err != nil {
			return err
		}
		defer shutdown()
	}
	if base != "" && !strings.HasPrefix(base, "http") {
		base = "http://" + base
	}
	// pick resolves the backend for one op: the ring owner for keyed
	// ops, round-robin otherwise, the single target when no fleet.
	pick := func(key string, rr *int) string {
		if ring == nil {
			return base
		}
		if key != "" {
			return ring.Lookup(key)
		}
		*rr++
		return bases[*rr%len(bases)]
	}

	client := &http.Client{Timeout: 30 * time.Second}

	// Warmup: analyze every workload once so /v1/query has something
	// to hit and the engine cache is hot. In fleet mode every backend
	// is warmed, and the reports are cross-checked: replicas must be
	// byte-identical — divergence is an error under -strict.
	type target struct {
		name   string
		hash   string
		source string
		prog   *syntax.Program
		labels []string
	}
	var targets []target
	var divergences int64
	warmupBases := []string{base}
	if ring != nil {
		warmupBases = bases
	}
	for _, b := range workloads.All() {
		p := b.Program()
		src := syntax.Print(p)
		var hash string
		var firstReport []byte
		for _, wb := range warmupBases {
			var resp server.AnalyzeResponse
			status, err := post(client, wb+"/v1/analyze", server.AnalyzeRequest{Source: src, Mode: cfg.mode}, &resp)
			if err != nil {
				return fmt.Errorf("warmup %s @ %s: %w", b.Name, wb, err)
			}
			if status != http.StatusOK {
				return fmt.Errorf("warmup %s @ %s: status %d", b.Name, wb, status)
			}
			hash = resp.ProgramHash
			rep, err := json.Marshal(resp.Report)
			if err != nil {
				return err
			}
			if firstReport == nil {
				firstReport = rep
			} else if !bytes.Equal(firstReport, rep) {
				divergences++
				fmt.Fprintf(os.Stderr, "loadgen: %s: report from %s diverges from %s\n", b.Name, wb, warmupBases[0])
			}
		}
		names := make([]string, len(p.Labels))
		for l := range p.Labels {
			names[l] = p.Labels[l].Name
		}
		targets = append(targets, target{name: b.Name, hash: hash, source: src, prog: p, labels: names})
	}

	// Go-language traffic: deterministic restricted-Go sources derived
	// from generated programs (condensed → gofront.Render), analyzed
	// with language:"go" so the server's front-end path stays hot under
	// load alongside the core-syntax ops.
	goSources, err := renderGoSources(cfg.seed, 8)
	if err != nil {
		return err
	}

	var (
		mu        sync.Mutex
		latencies = map[string][]time.Duration{}
		statuses  = map[int]int64{}
		errorsN   atomic.Int64
	)
	record := func(op string, d time.Duration, status int) {
		mu.Lock()
		latencies[op] = append(latencies[op], d)
		statuses[status]++
		mu.Unlock()
	}

	deadline := time.Now().Add(cfg.duration)
	var wg sync.WaitGroup
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
			rr := w // round-robin cursor, staggered per worker
			// Each client owns one delta session rooted at one
			// workload; edits accumulate across the run.
			sessProg := progen.Clone(targets[w%len(targets)].prog)
			sessID := "loadgen-" + strconv.Itoa(w)
			for time.Now().Before(deadline) {
				t := targets[rng.Intn(len(targets))]
				op := pickOp(rng, weights)
				t0 := time.Now()
				var status int
				var err error
				switch op {
				case "query":
					a := t.labels[rng.Intn(len(t.labels))]
					b := t.labels[rng.Intn(len(t.labels))]
					status, err = post(client, pick("p|"+t.hash+"|"+cfg.mode, &rr)+"/v1/query", server.QueryRequest{
						ProgramHash: t.hash, Mode: cfg.mode, A: a, B: b,
					}, nil)
				case "analyze":
					_, status, err = postAnalyze(client, pick("p|"+t.hash+"|"+cfg.mode, &rr), t.source, cfg.mode)
				case "goanalyze":
					status, err = post(client, pick("", &rr)+"/v1/analyze", server.AnalyzeRequest{
						Source: goSources[rng.Intn(len(goSources))], Mode: cfg.mode, Language: "go",
					}, nil)
				case "delta":
					// Sessions are per-daemon state: sticky routing by
					// session identity, exactly like the fleet router.
					mi := rng.Intn(len(sessProg.Methods))
					sessProg = progen.MutateMethod(sessProg, mi, rng.Int63())
					status, err = post(client, pick("s|"+sessID, &rr)+"/v1/delta", server.DeltaRequest{
						Session: sessID, Source: syntax.Print(sessProg), Mode: cfg.mode,
					}, nil)
				case "batch":
					// A small corpus submission: 2–4 random workloads in
					// one request, one admission slot server-side.
					n := 2 + rng.Intn(3)
					req := server.BatchRequest{Mode: cfg.mode}
					for k := 0; k < n; k++ {
						bt := targets[rng.Intn(len(targets))]
						req.Programs = append(req.Programs, server.BatchProgram{Name: bt.name, Source: bt.source})
					}
					status, err = post(client, pick("", &rr)+"/v1/batch", req, nil)
				}
				if err != nil {
					errorsN.Add(1)
					continue
				}
				record(op, time.Since(t0), status)
			}
		}(w)
	}
	wg.Wait()

	rep := buildReport(cfg, latencies, statuses, errorsN.Load())
	if cfg.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		printReport(os.Stdout, rep)
	}
	if cfg.strict {
		if divergences > 0 {
			return fmt.Errorf("strict: %d cross-backend report divergences", divergences)
		}
		if rep.Errors > 0 {
			return fmt.Errorf("strict: %d transport errors", rep.Errors)
		}
		for code, n := range rep.Statuses {
			if c, _ := strconv.Atoi(code); c/100 != 2 && c != http.StatusTooManyRequests {
				return fmt.Errorf("strict: %d responses with status %s", n, code)
			}
		}
	}
	return nil
}

// renderGoSources builds n deterministic restricted-Go programs for
// the goanalyze op: generated core programs converted to condensed
// form and rendered as Go (the same path the cross-front-end oracle
// exercises). Clock-free by construction (progen.Finite), so every
// source lowers.
func renderGoSources(seed int64, n int) ([]string, error) {
	var out []string
	for i := int64(0); len(out) < n; i++ {
		p := progen.Generate(seed+i, progen.Finite())
		u, err := condensed.FromProgram(p)
		if err != nil {
			return nil, fmt.Errorf("goanalyze corpus: %w", err)
		}
		src, err := gofront.Render(u)
		if err != nil {
			return nil, fmt.Errorf("goanalyze corpus: %w", err)
		}
		out = append(out, src)
	}
	return out, nil
}

// selfserve starts an in-process server on a loopback port.
func selfserve(cfg lgConfig) (addr string, shutdown func(), err error) {
	srv, err := server.New(server.Config{
		Workers:    cfg.workers,
		QueueDepth: cfg.queue,
	})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() {
		_ = httpSrv.Close()
		srv.Close()
	}, nil
}

func postAnalyze(client *http.Client, base, source, mode string) (hash string, status int, err error) {
	var resp server.AnalyzeResponse
	status, err = post(client, base+"/v1/analyze", server.AnalyzeRequest{Source: source, Mode: mode}, &resp)
	return resp.ProgramHash, status, err
}

// post sends a JSON body and optionally decodes a 2xx response into
// out. Non-2xx statuses are returned, not errors: the load generator
// counts them.
func post(client *http.Client, url string, body any, out any) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

func parseMix(s string) (map[string]int, error) {
	out := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad mix element %q (want op=weight)", part)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad mix weight %q", v)
		}
		switch k {
		case "query", "analyze", "goanalyze", "delta", "batch":
			out[k] = n
		default:
			return nil, fmt.Errorf("unknown op %q (want query, analyze, goanalyze, delta or batch)", k)
		}
	}
	return out, nil
}

func pickOp(rng *rand.Rand, weights map[string]int) string {
	total := 0
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return "query"
	}
	n := rng.Intn(total)
	for _, op := range []string{"query", "analyze", "goanalyze", "delta", "batch"} {
		if n -= weights[op]; n < 0 {
			return op
		}
	}
	return "query"
}

// lgReport is the machine-readable loadgen result (BENCH_server.json).
type lgReport struct {
	Concurrency int                 `json:"concurrency"`
	DurationSec float64             `json:"durationSec"`
	Mix         string              `json:"mix"`
	Mode        string              `json:"mode"`
	Seed        int64               `json:"seed"`
	TotalReqs   int64               `json:"totalReqs"`
	ReqPerSec   float64             `json:"reqPerSec"`
	Errors      int64               `json:"errors"`
	Statuses    map[string]int64    `json:"statuses"`
	Ops         map[string]lgOpStat `json:"ops"`
}

type lgOpStat struct {
	Count     int64   `json:"count"`
	ReqPerSec float64 `json:"reqPerSec"`
	P50Ms     float64 `json:"p50Ms"`
	P95Ms     float64 `json:"p95Ms"`
	P99Ms     float64 `json:"p99Ms"`
	MaxMs     float64 `json:"maxMs"`
}

func buildReport(cfg lgConfig, latencies map[string][]time.Duration, statuses map[int]int64, errs int64) lgReport {
	rep := lgReport{
		Concurrency: cfg.concurrency,
		DurationSec: cfg.duration.Seconds(),
		Mix:         cfg.mix,
		Mode:        cfg.mode,
		Seed:        cfg.seed,
		Errors:      errs,
		Statuses:    map[string]int64{},
		Ops:         map[string]lgOpStat{},
	}
	for code, n := range statuses {
		rep.Statuses[strconv.Itoa(code)] = n
		rep.TotalReqs += n
	}
	rep.ReqPerSec = float64(rep.TotalReqs) / cfg.duration.Seconds()
	for op, ds := range latencies {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		st := lgOpStat{
			Count:     int64(len(ds)),
			ReqPerSec: float64(len(ds)) / cfg.duration.Seconds(),
			P50Ms:     pctMs(ds, 0.50),
			P95Ms:     pctMs(ds, 0.95),
			P99Ms:     pctMs(ds, 0.99),
		}
		if len(ds) > 0 {
			st.MaxMs = float64(ds[len(ds)-1].Nanoseconds()) / 1e6
		}
		rep.Ops[op] = st
	}
	return rep
}

func pctMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i].Nanoseconds()) / 1e6
}

func printReport(w io.Writer, rep lgReport) {
	fmt.Fprintf(w, "loadgen: %d clients × %.0fs, mix %s, mode %s, seed %d\n",
		rep.Concurrency, rep.DurationSec, rep.Mix, rep.Mode, rep.Seed)
	fmt.Fprintf(w, "  %d requests (%.0f req/s), %d transport errors\n", rep.TotalReqs, rep.ReqPerSec, rep.Errors)
	var codes []string
	for c := range rep.Statuses {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Fprintf(w, "  status %s: %d\n", c, rep.Statuses[c])
	}
	for _, op := range []string{"query", "analyze", "goanalyze", "delta", "batch"} {
		st, ok := rep.Ops[op]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-8s %7d reqs %8.0f req/s  p50 %.3fms  p95 %.3fms  p99 %.3fms  max %.1fms\n",
			op, st.Count, st.ReqPerSec, st.P50Ms, st.P95Ms, st.P99Ms, st.MaxMs)
	}
}
