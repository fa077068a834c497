// Command bench is the benchmark of the fx10d analysis daemon. It
// starts an unmodified server with the daemon's defaults on a loopback
// port of its own process, drives it from two client connections with
// one of four seeded workloads, checks the answers, and prints the
// end-to-end metrics, or with -trace 1 the per-layer ones, ending with
// one JSON line. Run it from the repository root through run.sh:
//
//	bash bench/run.sh --workload hot-mixed --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fx10/internal/engine"
)

// config is one run's settings. The sizes below the flags are fixed
// for the benchmark and shrunk only by its tests.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	warmup   time.Duration
	trace    bool
	out      string

	paper      []string // paper programs to use; empty means all 13
	goCorpus   int      // restricted-Go programs in the warmed corpus
	goPool     int      // Go sources cold-corpus draws from
	hugeLabels int      // label target of a huge-tier program
	hugePool   int      // huge-tier programs, made unique per request
	setups     int      // set-up repetitions; setup_s is their median
	verifyMax  int      // window requests checked against the reference
	replayMax  int      // window requests replayed layer by layer
	proxyMax   int      // requests replayed through the fleet router
	minHuge    int      // huge analyses a huge-interleaved window needs
}

func defaults() config {
	return config{
		seed: 1, window: 20 * time.Second, warmup: 2 * time.Second,
		goCorpus: 8, goPool: 256, hugeLabels: 3000, hugePool: 32,
		setups: 5, verifyMax: 300, replayMax: 200, proxyMax: 100, minHuge: 20,
	}
}

func main() {
	cfg := defaults()
	seconds, trace := 20, 0
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: cold-corpus, hot-mixed, edit-session or huge-interleaved")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of every generated input and request sequence")
	flag.IntVar(&seconds, "seconds", seconds, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", trace, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", "", "results file (default bench/out/<workload>-seed<N>[-trace].json)")
	flag.Parse()
	if flag.NArg() > 0 || seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.window, cfg.trace = time.Duration(seconds)*time.Second, trace == 1
	if cfg.out == "" {
		suffix := ""
		if cfg.trace {
			suffix = "-trace"
		}
		cfg.out = filepath.Join("bench", "out", fmt.Sprintf("%s-seed%d%s.json", cfg.workload, cfg.seed, suffix))
	}

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if err := writeJSON(cfg.out, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if res.trace != nil {
		path := filepath.Join(filepath.Dir(cfg.out), "trace-"+cfg.workload+".json")
		if err := writeJSON(path, res.trace); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res.line())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// setUp starts a daemon and brings it to the workload's starting
// state: the corpus analyzed (each answer checked) and, for
// edit-session, every client's delta sessions open.
func setUp(w *workload, in *inputs, tr *tracer, epoch time.Time, ids *atomic.Int64) (*daemon, []*record, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(tr)
	if err != nil {
		return nil, nil, 0, err
	}
	var recs []*record
	send := func(req request, what string) error {
		r := do(d.ctl, d.url, req, ids.Add(1), epoch)
		recs = append(recs, &r)
		if !r.ok() {
			return fmt.Errorf("set-up %s: %s (status %d)", what, r.fail, r.status)
		}
		return nil
	}
	for _, p := range in.corpus {
		kind := opAnalyze
		if p.lang == "go" {
			kind = opGoAnalyze
		}
		if err = send(analyzeRequest(op{kind: kind, corp: p, lang: p.lang, base: p.source}, p.source), p.name); err != nil {
			break
		}
	}
	for c := 0; w.sessions && err == nil && c < numClients; c++ {
		for s, p := range in.paper {
			o := op{kind: opDelta, corp: p, sess: s, session: sessionID(in, c, s)}
			if err = send(deltaRequest(o, p.source), "session "+o.session); err != nil {
				break
			}
		}
	}
	if err != nil {
		d.close()
		return nil, nil, 0, err
	}
	return d, recs, time.Since(t0), nil
}

// snapshot is the daemon's and the process's counters at one instant.
type snapshot struct {
	cache   engine.CacheStats
	server  counters
	runtime rtStats
}

func take(d *daemon) (snapshot, error) {
	c, err := d.poll()
	return snapshot{cache: d.srv.Engine().CacheStats(), server: c, runtime: readRuntime()}, err
}

func sleepUntil(epoch time.Time, at time.Duration) {
	if wait := time.Until(epoch.Add(at)); wait > 0 {
		time.Sleep(wait)
	}
}

// run executes one benchmark run: inputs, set-up, warm-up, the
// measured window, checks, and in a traced run the layer replays.
func run(cfg config) (*results, error) {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	epoch := time.Now()
	in, err := generate(cfg)
	if err != nil {
		return nil, err
	}
	genS := time.Since(epoch).Seconds()

	var tr *tracer
	if cfg.trace {
		tr = newTracer(epoch)
	}
	var (
		ids       atomic.Int64
		d         *daemon
		setupRecs []*record
		setups    []float64
	)
	for i := 0; i < cfg.setups; i++ {
		if d != nil {
			d.close()
		}
		var dur time.Duration
		if d, setupRecs, dur, err = setUp(w, in, tr, epoch, &ids); err != nil {
			return nil, err
		}
		setups = append(setups, dur.Seconds())
	}
	defer d.close()

	clients := w.clients(in, cfg)
	start := time.Since(epoch)
	from, end := start+cfg.warmup, start+cfg.warmup+cfg.window
	mid := from + cfg.window/2
	if tr != nil {
		tr.from.Store(int64(mid))
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(d.url, epoch, start, end, &ids)
		}()
	}
	sleepUntil(epoch, from)
	before, errBefore := take(d)
	heap := sampleHeap(10 * time.Millisecond)
	sleepUntil(epoch, end)
	heapMB := heap.finish()
	after, errAfter := take(d)
	wg.Wait()
	if err := errors.Join(errBefore, errAfter); err != nil {
		return nil, err
	}

	var win []*record
	for _, c := range clients {
		c.hc.CloseIdleConnections()
		for i := range c.recs {
			if r := &c.recs[i]; r.due >= from && r.due < end {
				win = append(win, r)
			}
		}
	}
	sort.Slice(win, func(i, j int) bool { return win[i].id < win[j].id })

	res := newResults(cfg, w)
	if res.Verified, err = verify(in, win, cfg); err != nil {
		return nil, err
	}
	res.count(win)
	res.Problems = w.validity(windowStats{recs: win, programHits: after.cache.Hits - before.cache.Hits}, cfg)
	res.SetupRunsS, res.ServerMetrics = setups, after.server
	res.endToEnd(w, win, cfg.window, setups, heapMB)
	if cfg.trace {
		lt := layerInputs{
			in: in, d: d, tr: tr, epoch: epoch, ids: &ids, cfg: cfg,
			setup: setupRecs, win: win, from: from, mid: mid, end: end,
			before: before, after: after, genS: genS,
		}
		if err := res.perLayer(lt); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failures[failMismatch] == 0 && len(res.Problems) == 0
	return res, nil
}
