package engine

import (
	"time"

	"fx10/internal/constraints"
)

// Stats records per-stage metrics for one analysis: where the time
// went, how hard the solver worked, and whether the cache served the
// result. On a cache hit the solver-stage numbers (Labels, Generate,
// Solve, iteration counts, AllocBytes) are those of the original run
// that populated the cache; Report and Total are always those of the
// current request.
type Stats struct {
	// Strategy is the solver strategy that produced the solution.
	Strategy string
	// CacheHit reports whether the labels/constraints/solve stages
	// were served from the engine's result cache.
	CacheHit bool

	// Stage durations. Parse is always zero: the engine takes
	// programs, not source; the field stays for readers that subtract
	// it.
	Parse    time.Duration
	Labels   time.Duration // Slabels fixpoint
	Generate time.Duration // constraint generation
	Solve    time.Duration // least-solution computation
	Report   time.Duration // densifying E(main).M once per solve (zero on a cache hit)
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

	// Delta is set only on results AnalyzeDelta returns; a cache hit
	// through Analyze carries none.
	Delta *DeltaStats
}

// DeltaStats reports what an incremental analysis reused: what the
// delta solve did (constraints.DeltaInfo; its constraint evaluations
// are Stats.Evaluations) and the method diff that drove it.
type DeltaStats struct {
	constraints.DeltaInfo
	// MethodsTotal is the edited program's method count, which
	// MethodsReused and MethodsResolved partition.
	MethodsTotal int
	// DirtyMethods names the methods whose content hash differed from
	// the base (before closure), sorted.
	DirtyMethods []string
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
