package engine

import (
	"time"

	"fx10/internal/constraints"
)

// Stats records per-stage metrics for one analysis: where the time
// went, how hard the solver worked, and whether the cache served the
// result. On a cache hit the solver-stage numbers (Labels, Generate,
// Solve, iteration counts, AllocBytes) are those of the original run
// that populated the cache; Parse, Report and Total are always those
// of the current request.
type Stats struct {
	// Strategy is the solver strategy that produced the solution.
	Strategy string
	// CacheHit reports whether the labels/constraints/solve stages
	// were served from the engine's result cache.
	CacheHit bool

	// Stage durations.
	Parse    time.Duration // source → AST (zero when a Program was supplied)
	Labels   time.Duration // Slabels fixpoint
	Generate time.Duration // constraint generation
	Solve    time.Duration // least-solution computation
	Report   time.Duration // summary extraction (Env, MainM)
	// Total is the end-to-end wall time of this request, including
	// cache lookups.
	Total time.Duration

	// Solver work counters (see constraints.Solution).
	IterSlabels int
	IterL1      int
	IterL2      int
	Evaluations int64
	// AllocBytes is the heap allocated during the solve stage.
	AllocBytes uint64
	// FootprintBytes estimates the memory retained by the solved
	// valuation.
	FootprintBytes int

	// Delta is set only on results produced by AnalyzeDelta.
	Delta *DeltaStats

	// Shard is set only on results produced by the "shard" strategy:
	// partition shape and merge-round counts of the sharded solve.
	Shard *constraints.ShardStats
}

// DeltaStats reports what an incremental analysis reused.
type DeltaStats struct {
	// MethodsTotal is the edited program's method count;
	// MethodsReused were seeded from the base result, MethodsResolved
	// (the dirty closure) were re-solved.
	MethodsTotal    int
	MethodsReused   int
	MethodsResolved int
	// DirtyMethods names the methods whose content hash differed from
	// the base (before closure), sorted.
	DirtyMethods []string
	// ConstraintsReevaluated counts constraint evaluations performed
	// by the delta solve.
	ConstraintsReevaluated int64
	// Full is true when the delta path fell back to a full re-solve.
	Full bool
}

// PipelineDuration is the analysis-only time (labels + generation +
// solving) — the quantity the paper's Figure 8 reports, excluding
// parsing and result extraction.
func (s Stats) PipelineDuration() time.Duration {
	return s.Labels + s.Generate + s.Solve
}

// CacheStats aggregates an engine's program-cache traffic.
type CacheStats struct {
	Hits, Misses uint64
	// SummaryHits and SummaryMisses are always zero: the engine has no
	// method-summary cache. They remain only because the benchmark's
	// engine.summary_hit_ratio metric still reads them; drop them
	// together with that metric.
	SummaryHits, SummaryMisses uint64
}
