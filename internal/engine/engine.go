// Package engine is the unified front door of the MHP analysis: a
// staged pipeline
//
//	parse → labels → constraint generation → solve → report
//
// behind a single reusable Engine that adds what the bare
// labels/constraints packages do not have —
//
//   - named, pluggable solver strategies (Strategy + registry): the
//     two constraints.Algorithm values, phased and topo (the default);
//   - corpus-level analysis on a bounded worker pool; Analyze and
//     AnalyzeDelta contain pipeline panics, so one bad program cannot
//     kill a sweep or a server;
//   - a program cache: a content-hash-keyed LRU over solved Results,
//     bounded in entries and in retained bytes, serving repeated
//     analyses of identical programs and, through Cached, reads of a
//     program analyzed earlier; through Encoded it also keeps each
//     solved program's report, encoded once by the caller's encoder;
//   - method-granular incremental analysis: AnalyzeDelta is the same
//     pipeline with a delta solve step, which diffs the edited program
//     against a base result by method content hash and re-solves only
//     the dirty methods' call-graph closure (constraints.SolveDelta),
//     reporting what it reused in DeltaStats;
//   - per-stage metrics (Stats) for every result.
//
// internal/mhp.Analyze, internal/server, internal/experiments and
// cmd/mhpbench all run through this package.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fx10/internal/constraints"
	"fx10/internal/intset"
	"fx10/internal/labels"
	"fx10/internal/parser"
	"fx10/internal/syntax"
	"fx10/internal/types"
)

// Config configures an Engine. The zero value is a usable default:
// topo strategy, GOMAXPROCS workers, a 1024-entry cache.
type Config struct {
	// Strategy names a registered solver strategy; empty selects
	// DefaultStrategy.
	Strategy string
	// Workers bounds corpus-level concurrency; ≤ 0 selects
	// GOMAXPROCS.
	Workers int
	// CacheSize bounds the program cache in entries. 0 selects the
	// default (1024); negative disables caching (every request
	// re-solves — what timing-sensitive callers like the figure tables
	// and benchmarks want). Whatever the entry bound, the cache keeps
	// at most cacheBytes of results (Result.retainedBytes, plus
	// encoded reports), so many small programs fit but few large ones
	// do.
	CacheSize int
}

const (
	defaultCacheSize = 1024
	// cacheBytes bounds what the program cache's results retain,
	// encoded reports included. The 13 paper programs are charged
	// 42 KB (mapreduce) to 3.2 MB (plasma) each and a 3000-label
	// program 5.8–6.0 MB, so the default holds 1024 small programs,
	// about 220 of the paper mix, or about twenty 3000-label programs.
	// The daemon's indented reports add 349 KiB (mg), 188 KiB (plasma)
	// and about 565 KiB (3000 labels).
	cacheBytes = 128 << 20
	// labelBytes is what a solved program retains per label beyond its
	// solution and M: the program, its label info and its constraint
	// system. Measured 532–648 B on mapreduce, mg, plasma and a
	// 3000-label program. The estimate stays at 1 KiB: a smaller one
	// would let the cache hold more entries, which spends the heap a
	// workload that never hits the cache would otherwise save.
	labelBytes = 1 << 10
)

// Engine runs analyses. It is safe for concurrent use; one Engine is
// meant to be shared and reused so its cache pays off.
type Engine struct {
	strategy Strategy
	workers  int
	cache    *resultCache // nil when caching is disabled

	hits, misses atomic.Uint64
}

// New builds an Engine, resolving the configured strategy name.
func New(cfg Config) (*Engine, error) {
	strat, err := Lookup(cfg.Strategy)
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{strategy: strat, workers: workers}
	switch {
	case cfg.CacheSize == 0:
		e.cache = newResultCache(defaultCacheSize, cacheBytes)
	case cfg.CacheSize > 0:
		e.cache = newResultCache(cfg.CacheSize, cacheBytes)
	}
	return e, nil
}

// MustNew is New, panicking on error — for wiring with known-good
// configs.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Strategy returns the engine's resolved solver strategy.
func (e *Engine) Strategy() Strategy { return e.strategy }

// Workers returns the engine's corpus concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// CacheStats returns the engine's cumulative cache traffic (zero when
// caching is disabled).
func (e *Engine) CacheStats() CacheStats {
	return CacheStats{Hits: e.hits.Load(), Misses: e.misses.Load()}
}

// Job is one analysis request.
type Job struct {
	// Name tags the job in errors and reports (optional).
	Name string
	// Program is the program to analyze. If nil, Source is parsed.
	Program *syntax.Program
	// Source is concrete FX10 syntax, used only when Program is nil.
	Source string
	// Mode selects context-sensitive (zero value) or
	// context-insensitive analysis.
	Mode constraints.Mode
}

// Result is one completed analysis. It is immutable once returned,
// with one exception: its encoded-report slot, filled once by the
// first Encoded call. The Result a solve returns is the one the
// program cache stores, and a cache hit is a copy that shares
// everything but Stats, the slot included — treat all of it as
// read-only.
type Result struct {
	// Program, Info, Sys and Sol are the pipeline's intermediate
	// products. Program is the one Sys was generated from: on a cache
	// hit it is the populating run's, content-identical to the
	// caller's but possibly another value. Per-method summaries are
	// read from Sol without densifying (Sol.PairLen, Sol.SetValue);
	// Sol.Env() builds the whole type environment E with ⊢ p : E when
	// a caller needs it.
	Program *syntax.Program
	Info    *labels.Info
	Sys     *constraints.System
	Sol     *constraints.Solution
	// Env is always nil: the engine does not extract E. The field
	// remains for callers that attach an environment of their own to
	// a copy.
	Env types.Env
	// M is E(main).M: by Theorem 3, MHP(p) ⊆ M.
	M *intset.PairSet
	// Stats is where the time went; it is the only per-request part.
	Stats Stats

	// report is the slot Encoded fills, nil on a Result the pipeline
	// did not build; a pointer, so that copies share it.
	report *encodedReport
}

type encodedReport struct {
	once  sync.Once
	bytes []byte
}

// Analyze runs the pipeline for one job: cache lookup, then, on a
// miss, the solving stages and the one densification of E(main).M.
func (e *Engine) Analyze(job Job) (*Result, error) {
	return e.AnalyzeCtx(context.Background(), job)
}

// AnalyzeCtx is Analyze with cooperative cancellation: ctx is checked
// between pipeline stages and, with the built-in strategies, every
// constraints.CancelStride evaluations inside the solver loops. On
// cancellation it returns ctx's error, caches nothing, and leaves the
// cache exactly as it was — an abandoned request can never poison a
// future one. A parse error unwraps to *parser.Error, and a panic in
// the pipeline comes back as an *AnalysisError.
func (e *Engine) AnalyzeCtx(ctx context.Context, job Job) (res *Result, err error) {
	defer contain(jobName(job), &res, &err)
	start := time.Now()
	p := job.Program
	var parse time.Duration
	if p == nil {
		parsed, err := parser.Parse(job.Source)
		if err != nil {
			return nil, fmt.Errorf("engine: parse %s: %w", jobName(job), err)
		}
		p, parse = parsed, time.Since(start)
	}
	return e.pipeline(ctx, start, parse, p, job.Mode, func(ctx context.Context, sys *constraints.System) (*constraints.Solution, *DeltaStats, error) {
		sol, err := e.strategy.Solve(ctx, sys)
		return sol, nil, err
	})
}

// solveStep computes the least solution of sys and, for an
// incremental solve, what it reused. It is the one pipeline stage a
// caller supplies.
type solveStep func(ctx context.Context, sys *constraints.System) (*constraints.Solution, *DeltaStats, error)

// pipeline is the one path every analysis takes: a program-cache
// lookup, then, on a miss, labels → generate → solve → seal → cache
// put. start and parse are the request's start time and parse time.
// The scratch and the delta solve reach the same least solution
// (Theorems 5–6), so either may populate the cache for the other.
// The result is complete, Stats included, before it is cached: other
// goroutines read cached entries, so nothing but Encoded's once-filled
// slot is written afterwards.
func (e *Engine) pipeline(ctx context.Context, start time.Time, parse time.Duration, p *syntax.Program, mode constraints.Mode, solve solveStep) (*Result, error) {
	var key cacheKey
	if e.cache != nil {
		key = cacheKey{p.Hash(), mode}
	}
	if c, ok := e.cacheGet(key); ok {
		res := c.hit()
		res.Stats.Parse = parse
		res.Stats.Total = time.Since(start)
		return res, nil
	}
	stats := Stats{Strategy: e.strategy.Name(), Parse: parse}

	t0 := time.Now()
	info := labels.Compute(p)
	stats.Labels = time.Since(t0)

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	t0 = time.Now()
	sys := constraints.Generate(info, mode)
	stats.Generate = time.Since(t0)

	t0 = time.Now()
	sol, delta, err := solve(ctx, sys)
	if err != nil {
		return nil, err
	}
	stats.Solve = time.Since(t0)

	stats.IterSlabels = sol.IterSlabels
	stats.IterL1 = sol.IterL1
	stats.IterL2 = sol.IterL2
	stats.Evaluations = sol.Evaluations
	stats.AllocBytes = sol.AllocBytes
	stats.FootprintBytes = sol.FootprintBytes
	stats.Delta = delta

	res := &Result{Program: p, Info: info, Sys: sys, Sol: sol, Stats: stats, report: &encodedReport{}}
	res.seal()
	res.Stats.Total = time.Since(start)
	e.cachePut(key, res)
	return res, nil
}

// seal densifies E(main).M for a freshly solved result, timing it as
// the report stage. It runs once per solved program, before the result
// is cached; every Result served from the entry shares the pair set.
func (r *Result) seal() {
	t0 := time.Now()
	r.M = r.Sol.MainM()
	r.Stats.Report = time.Since(t0)
}

// retainedBytes estimates the memory a sealed result keeps alive: the
// solution's footprint, M's bit matrix, and labelBytes per label for
// the program, its label info and its constraint system. Bags a delta
// result shares with its base are counted in both. The encoded report
// is not there yet when the result is cached; Encoded charges it to
// the entry when it is filled.
func (r *Result) retainedBytes() int {
	return r.Stats.FootprintBytes + r.M.MemoryFootprint() + labelBytes*r.Program.NumLabels()
}

// hit serves one request from a cached result: a copy sharing
// everything but Stats, which keeps the populating run's stage timings
// and counters, marked as a hit that densified and re-solved nothing
// (so it carries no DeltaStats, whichever solve populated the entry).
func (r *Result) hit() *Result {
	c := *r
	c.Stats.CacheHit = true
	c.Stats.Report = 0
	c.Stats.Delta = nil
	return &c
}

// Cached returns the program cache's result for the program with the
// given content hash, analyzed in mode, and marks the entry most
// recently used. It is a lookup for callers that only read an analysis
// they asked for earlier (the daemon's /v1/query): it counts neither a
// hit nor a miss in CacheStats and returns the stored Result itself,
// so it allocates nothing and the Result, Stats included, must not be
// modified. It reports false when the program is not cached or caching
// is disabled.
func (e *Engine) Cached(hash syntax.ProgramHash, mode constraints.Mode) (*Result, bool) {
	if e.cache == nil {
		return nil, false
	}
	return e.cache.get(cacheKey{hash, mode})
}

// Encoded returns res's report as encode renders it, calling encode
// once per solved result: the bytes are kept in a slot that the cache
// entry, its hits, Cached and any other copy of res share. The
// engine does not know the report type, so the caller supplies the
// encoder; every caller of one Engine must supply the same one. The
// first fill charges the bytes it keeps (their capacity) to res's cache
// entry, which counts them toward the cache's byte bound; a result
// whose entry has been evicted or replaced charges nothing. The
// returned bytes must not be modified.
func (e *Engine) Encoded(res *Result, encode func(*Result) []byte) []byte {
	slot := res.report
	if slot == nil {
		return encode(res)
	}
	slot.once.Do(func() {
		slot.bytes = encode(res)
		if e.cache != nil {
			e.cache.charge(cacheKey{res.Program.Hash(), res.Sys.Mode}, slot, cap(slot.bytes))
		}
	})
	if slot.bytes == nil {
		// encode panicked during the fill; fail the same way again
		// rather than serve an empty report.
		return encode(res)
	}
	return slot.bytes
}

func (e *Engine) cacheGet(key cacheKey) (*Result, bool) {
	if e.cache == nil {
		return nil, false
	}
	c, ok := e.cache.get(key)
	if ok {
		e.hits.Add(1)
	} else {
		e.misses.Add(1)
	}
	return c, ok
}

func (e *Engine) cachePut(key cacheKey, res *Result) {
	if e.cache != nil {
		e.cache.put(key, res)
	}
}

func jobName(job Job) string {
	if job.Name != "" {
		return job.Name
	}
	return "<unnamed program>"
}

// CorpusResult is one slot of an AnalyzeCorpus sweep: the result, or
// the error (including recovered panics) that prevented it.
type CorpusResult struct {
	Job    Job
	Result *Result
	Err    error
}

// AnalyzeCorpus analyzes every job on a bounded worker pool
// (Config.Workers wide) and returns the outcomes in input order. A
// job that panics — a malformed program tripping an invariant deep in
// the pipeline — is reported as that slot's Err; the sweep continues.
func (e *Engine) AnalyzeCorpus(jobs []Job) []CorpusResult {
	results := make([]CorpusResult, len(jobs))
	workers := e.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	analyze := func(i int) {
		res, err := e.Analyze(jobs[i])
		results[i] = CorpusResult{Job: jobs[i], Result: res, Err: err}
	}
	if workers <= 1 {
		for i := range jobs {
			analyze(i)
		}
		return results
	}

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				analyze(i)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}

// AnalysisError reports a failure of the analysis itself — a panic
// tripped deep in the pipeline by a malformed program, as opposed to
// a parse error (which unwraps to *parser.Error) or a cancellation
// (which unwraps to the context error). Callers use it to map
// failures onto distinct exit codes and HTTP statuses.
type AnalysisError struct {
	// Name is the job name the failure is attributed to.
	Name string
	// Value is the recovered panic value, or the wrapped error.
	Value any
}

func (e *AnalysisError) Error() string {
	return fmt.Sprintf("engine: panic analyzing %s: %v", e.Name, e.Value)
}

// Unwrap exposes a wrapped error value to errors.Is/As.
func (e *AnalysisError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// contain turns a panic in the pipeline (a malformed program tripping
// an invariant) into an *AnalysisError attributed to name; AnalyzeCtx
// and AnalyzeDeltaCtx defer it, so a long-lived server or a corpus
// sweep survives the program. Cancellation never reaches it: the
// solvers recover their own sentinel inside SolveCtx and SolveDeltaCtx.
func contain(name string, res **Result, err *error) {
	if r := recover(); r != nil {
		*res, *err = nil, &AnalysisError{Name: name, Value: r}
	}
}
