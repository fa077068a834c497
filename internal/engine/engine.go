// Package engine is the unified front door of the MHP analysis: a
// staged pipeline
//
//	parse → labels → constraint generation → solve → report
//
// behind a single reusable Engine that adds what the bare
// labels/constraints packages do not have —
//
//   - named, pluggable solver strategies (Strategy + registry): the
//     three constraints.Algorithm values, topo by default;
//   - corpus-level analysis on a bounded worker pool with per-program
//     panic isolation, so one bad program cannot kill a sweep;
//   - a program cache: a content-hash-keyed LRU over whole solved
//     pipelines, serving repeated analyses of identical programs;
//   - method-granular incremental analysis: AnalyzeDelta diffs an
//     edited program against a base result by method content hash
//     and re-solves only the dirty methods' call-graph closure
//     (constraints.SolveDelta), reporting what it reused in
//     DeltaStats;
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
// topo strategy, GOMAXPROCS workers, a 128-entry cache.
type Config struct {
	// Strategy names a registered solver strategy; empty selects
	// DefaultStrategy.
	Strategy string
	// Workers bounds corpus-level concurrency; ≤ 0 selects
	// GOMAXPROCS.
	Workers int
	// CacheSize bounds the program cache in entries. 0 selects the
	// default (128); negative disables caching (every request
	// re-solves — what timing-sensitive callers like the figure tables
	// and benchmarks want).
	CacheSize int
}

const defaultCacheSize = 128

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
		e.cache = newResultCache(defaultCacheSize)
	case cfg.CacheSize > 0:
		e.cache = newResultCache(cfg.CacheSize)
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

// pipelineCore is the output of the expensive stages (labels,
// generation, solving) plus E(main).M, densified once from the
// solution. It is immutable once built and is what the cache stores;
// Program is the program the maps of Sys are keyed by, which on a
// cache hit may be a different (content-identical) value than the one
// the caller supplied.
type pipelineCore struct {
	program *syntax.Program
	info    *labels.Info
	sys     *constraints.System
	sol     *constraints.Solution
	m       *intset.PairSet
}

// seal densifies E(main).M for a freshly solved core, timing it as the
// report stage. It runs once per solved program; every Result served
// from the core shares the pair set.
func (c *pipelineCore) seal(stats *Stats) {
	t0 := time.Now()
	c.m = c.sol.MainM()
	stats.Report = time.Since(t0)
}

// result serves one request from a solved core.
func (c pipelineCore) result(stats Stats) *Result {
	return &Result{Program: c.program, Info: c.info, Sys: c.sys, Sol: c.sol, M: c.m, Stats: stats}
}

// Result is one completed analysis. Everything but Stats is shared
// with every other Result served from the same solved program (cache
// hits, coalesced requests) — treat it as read-only.
type Result struct {
	// Program, Info, Sys and Sol are the pipeline's intermediate
	// products. Per-method summaries are read from Sol without
	// densifying (Sol.PairLen, Sol.SetValue); Sol.Env() builds the
	// whole type environment E with ⊢ p : E when a caller needs it.
	Program *syntax.Program
	Info    *labels.Info
	Sys     *constraints.System
	Sol     *constraints.Solution
	// Env is always nil: the engine does not extract E. The field
	// remains for callers that attach an environment of their own.
	Env types.Env
	// M is E(main).M: by Theorem 3, MHP(p) ⊆ M.
	M *intset.PairSet
	// Stats is where the time went; it is the only per-request part.
	Stats Stats
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
// future one.
func (e *Engine) AnalyzeCtx(ctx context.Context, job Job) (*Result, error) {
	start := time.Now()

	p := job.Program
	var parseDur time.Duration
	if p == nil {
		t0 := time.Now()
		parsed, err := parser.Parse(job.Source)
		if err != nil {
			return nil, fmt.Errorf("engine: parse %s: %w", jobName(job), err)
		}
		p = parsed
		parseDur = time.Since(t0)
	}

	var (
		core  pipelineCore
		stats Stats
		key   cacheKey
	)
	if e.cache != nil {
		key = keyFor(p, job.Mode, e.strategy.Name())
	}
	if c, ok := e.cacheGet(key); ok {
		core, stats = c.core, c.stats
		stats.CacheHit = true
		stats.Report = 0
	} else {
		var err error
		core, stats, err = e.runPipeline(ctx, p, job.Mode)
		if err != nil {
			return nil, err
		}
		core.seal(&stats)
		e.cachePut(key, cached{core: core, stats: stats})
	}
	stats.Parse = parseDur
	stats.Total = time.Since(start)
	return core.result(stats), nil
}

// runPipeline executes the expensive stages on a cache miss.
func (e *Engine) runPipeline(ctx context.Context, p *syntax.Program, mode constraints.Mode) (pipelineCore, Stats, error) {
	stats := Stats{Strategy: e.strategy.Name()}

	t0 := time.Now()
	info := labels.Compute(p)
	stats.Labels = time.Since(t0)

	if err := ctx.Err(); err != nil {
		return pipelineCore{}, Stats{}, err
	}

	t0 = time.Now()
	sys := constraints.Generate(info, mode)
	stats.Generate = time.Since(t0)

	t0 = time.Now()
	sol, err := e.strategy.Solve(ctx, sys)
	if err != nil {
		return pipelineCore{}, Stats{}, err
	}
	stats.Solve = time.Since(t0)

	stats.IterSlabels = sol.IterSlabels
	stats.IterL1 = sol.IterL1
	stats.IterL2 = sol.IterL2
	stats.Evaluations = sol.Evaluations
	stats.AllocBytes = sol.AllocBytes
	stats.FootprintBytes = sol.FootprintBytes
	return pipelineCore{program: p, info: info, sys: sys, sol: sol}, stats, nil
}

func (e *Engine) cacheGet(key cacheKey) (cached, bool) {
	if e.cache == nil {
		return cached{}, false
	}
	c, ok := e.cache.get(key)
	if ok {
		e.hits.Add(1)
	} else {
		e.misses.Add(1)
	}
	return c, ok
}

func (e *Engine) cachePut(key cacheKey, c cached) {
	if e.cache != nil {
		e.cache.put(key, c)
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
	if workers <= 1 {
		for i, job := range jobs {
			results[i] = e.analyzeIsolated(job)
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
				results[i] = e.analyzeIsolated(jobs[i])
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

// analyzeIsolated is Analyze behind a recover barrier.
func (e *Engine) analyzeIsolated(job Job) (cr CorpusResult) {
	cr.Job = job
	cr.Result, cr.Err = e.AnalyzeSafe(context.Background(), job)
	return cr
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

// AnalyzeSafe is AnalyzeCtx behind a recover barrier: a panic in the
// pipeline (a malformed program tripping an invariant) comes back as
// an *AnalysisError instead of unwinding the caller — what a
// long-lived server or a corpus sweep needs. Parse and context errors
// pass through unchanged.
func (e *Engine) AnalyzeSafe(ctx context.Context, job Job) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &AnalysisError{Name: jobName(job), Value: r}
		}
	}()
	return e.AnalyzeCtx(ctx, job)
}
