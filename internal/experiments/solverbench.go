package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"fx10/internal/constraints"
	"fx10/internal/labels"
	"fx10/internal/progen"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// The solver bench is the head-to-head comparison of the solving
// strategies on the paper's 13-benchmark corpus plus two huge-tier
// programs (the 3000-label size the daemon benchmark serves, and
// 10,000 labels): same generated constraint system, two ways to reach
// the unique least solution. It backs the README's performance table
// and is written as BENCH_solver.json so perf regressions are
// diffable across commits.

// SolverBenchHuge lists the huge-tier label counts the bench adds
// after the paper corpus, as rows named "huge<labels>".
var SolverBenchHuge = []int{3000, 10000}

// SolverBenchStrategies are the algorithms the bench sweeps, in
// presentation order: the reference first, the served default last.
var SolverBenchStrategies = []constraints.Algorithm{constraints.Phased, constraints.Topo}

// SolverBenchRow is one (benchmark, strategy) measurement.
type SolverBenchRow struct {
	Benchmark string `json:"benchmark"`
	Strategy  string `json:"strategy"`
	// NsPerOp is the median over the reps of one Solve's wall time,
	// and NsP25 and NsP75 are its lower and upper quartiles.
	NsPerOp int64 `json:"ns_per_op"`
	NsP25   int64 `json:"ns_p25"`
	NsP75   int64 `json:"ns_p75"`
	// Unresolved marks a row whose quartile spread (NsP75 − NsP25)
	// exceeds a fifth of its median: the figure cannot tell a change
	// of that size from noise on this row.
	Unresolved bool `json:"unresolved"`
	// Evaluations is Solution.Evaluations (constraint evaluations;
	// zero for the pass-based strategies, which count passes instead).
	Evaluations int64 `json:"evaluations"`
	// Passes is IterL1+IterL2 (zero for the evaluation-counting
	// strategies).
	Passes int `json:"passes"`
	// AllocsPerOp and BytesPerOp are heap allocation counts and bytes
	// per Solve (runtime Mallocs/TotalAlloc deltas over a measured
	// loop).
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// FootprintBytes is Solution.FootprintBytes: the memory retained
	// by the solved valuation (the space column of Figure 8).
	FootprintBytes int `json:"footprint_bytes"`
	// The generate columns are what a cache miss pays before it solves
	// (labels.Compute plus Generate on a fresh info), the same in both
	// of a benchmark's strategy rows.
	GenerateNsPerOp     int64 `json:"generate_ns_per_op"`
	GenerateBytesPerOp  int64 `json:"generate_bytes_per_op"`
	GenerateAllocsPerOp int64 `json:"generate_allocs_per_op"`
}

// SolverBench is the full sweep plus the environment it ran in.
type SolverBench struct {
	Host
	Reps int              `json:"reps"`
	Rows []SolverBenchRow `json:"rows"`
}

// RunSolverBench measures every strategy on every benchmark and on
// the huge tier (context-sensitive, as in Figure 8). Solve times are
// taken rep-major: each of the reps visits every (benchmark, strategy)
// row once, starting one row later than the rep before, so drift in
// the host's speed lands on all rows alike. Every rep's time is kept,
// and each row reports their median and quartiles.
func RunSolverBench(reps int) (SolverBench, error) {
	if reps < 1 {
		reps = 1
	}
	bench := SolverBench{
		Host: CurrentHost(),
		Reps: reps,
	}
	var cells []solverCell
	add := func(name string, p *syntax.Program) {
		sys := constraints.Generate(labels.Compute(p), constraints.ContextSensitive)
		gen := measureOp(reps, 1, func() { constraints.Generate(labels.Compute(p), constraints.ContextSensitive) })
		for _, alg := range SolverBenchStrategies {
			c := newSolverCell(name, alg, sys)
			c.row.GenerateNsPerOp, c.row.GenerateBytesPerOp, c.row.GenerateAllocsPerOp = gen.ns, gen.bytes, gen.allocs
			cells = append(cells, c)
		}
	}
	for _, wl := range workloads.All() {
		add(wl.Name, wl.Program())
	}
	for _, n := range SolverBenchHuge {
		add(fmt.Sprintf("huge%d", n), progen.GenerateHuge(0, progen.Huge(n)))
	}

	ns := make([][]int64, len(cells))
	for rep := 0; rep < reps; rep++ {
		for k := range cells {
			ci := (rep + k) % len(cells)
			ns[ci] = append(ns[ci], cells[ci].time())
		}
	}
	for ci, c := range cells {
		slices.Sort(ns[ci])
		c.row.NsP25, c.row.NsPerOp, c.row.NsP75 = quantile(ns[ci], 1, 4), quantile(ns[ci], 1, 2), quantile(ns[ci], 3, 4)
		c.row.Unresolved = 5*(c.row.NsP75-c.row.NsP25) > c.row.NsPerOp
		bench.Rows = append(bench.Rows, c.row)
	}
	return bench, nil
}

// solverCell is one (benchmark, strategy) row while it is measured.
type solverCell struct {
	row   SolverBenchRow
	sys   *constraints.System
	alg   constraints.Algorithm
	iters int
}

// newSolverCell fills a row's deterministic counters from a warm-up
// solve, sizes its timed loop to at least five solves and about 10ms
// a rep, and counts its allocations.
func newSolverCell(benchmark string, alg constraints.Algorithm, sys *constraints.System) solverCell {
	op := func() { sys.Solve(alg) }
	warm := sys.Solve(alg)
	iters := innerIters(1, 10*time.Millisecond, op)
	a := countAllocs(iters, 1, op)
	return solverCell{
		row: SolverBenchRow{
			Benchmark:      benchmark,
			Strategy:       alg.String(),
			Evaluations:    warm.Evaluations,
			Passes:         warm.IterL1 + warm.IterL2,
			AllocsPerOp:    a.allocs,
			BytesPerOp:     a.bytes,
			FootprintBytes: warm.FootprintBytes,
		},
		sys:   sys,
		alg:   alg,
		iters: iters,
	}
}

// time runs one rep of the cell, after a collection so that no other
// row's garbage is swept on its clock, and returns ns per solve.
func (c *solverCell) time() int64 {
	runtime.GC()
	t0 := time.Now()
	for i := 0; i < c.iters; i++ {
		c.sys.Solve(c.alg)
	}
	return time.Since(t0).Nanoseconds() / int64(c.iters)
}

// quantile returns the num/den quantile of a sorted sample (nearest
// rank).
func quantile(sorted []int64, num, den int) int64 {
	return sorted[((len(sorted)-1)*num+den/2)/den]
}

// perOp is one operation's cost: best-of-reps wall time, and heap
// bytes and allocations.
type perOp struct{ ns, bytes, allocs int64 }

// measureOp is the timing loop of the clocked and incremental
// figures, and of the solver figure's generate columns. One call of op
// performs ops operations (one solve, or a sweep of ops edits). It
// times op reps times over an inner loop of about 2ms, keeping
// the fastest rep, then counts its allocations over a loop of its own
// so the timing reps stay unperturbed by ReadMemStats. The result is
// per operation.
func measureOp(reps, ops int, op func()) perOp {
	iters := innerIters(ops, 2*time.Millisecond, op)
	best := time.Duration(0)
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		if d := time.Since(t0); rep == 0 || d < best {
			best = d
		}
	}
	m := countAllocs(iters, ops, op)
	m.ns = best.Nanoseconds() / int64(iters*ops)
	return m
}

// innerIters sizes a timed loop of op, which performs ops operations,
// so that each rep runs at least 5 operations and about target or
// longer (single solves on the small benchmarks are microseconds,
// below timer noise). Its first call of op is the warm-up.
func innerIters(ops int, target time.Duration, op func()) int {
	t0 := time.Now()
	op()
	iters := 1
	if d := time.Since(t0); d > 0 {
		iters = int(target / d)
	}
	return min(max(iters, (5+ops-1)/ops), 512)
}

// countAllocs returns the heap bytes and allocations per operation of
// iters calls of op.
func countAllocs(iters, ops int, op func()) perOp {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i := 0; i < iters; i++ {
		op()
	}
	runtime.ReadMemStats(&ms1)
	n := int64(iters * ops)
	return perOp{
		bytes:  int64(ms1.TotalAlloc-ms0.TotalAlloc) / n,
		allocs: int64(ms1.Mallocs-ms0.Mallocs) / n,
	}
}

// FormatSolverBench renders the sweep as an aligned table, one row
// per (benchmark, strategy).
func FormatSolverBench(bench SolverBench) string {
	var b strings.Builder
	tw := newTable(&b, "benchmark", "strategy", "ns/op", "p25", "p75", "spread", "evals", "passes", "allocs/op", "B/op", "footprint B", "gen ns/op", "gen B/op", "gen allocs/op")
	for _, r := range bench.Rows {
		spread := fmt.Sprintf("%.0f%%", 100*float64(r.NsP75-r.NsP25)/float64(max(r.NsPerOp, 1)))
		if r.Unresolved {
			spread += " *"
		}
		tw.row(r.Benchmark, r.Strategy,
			fmt.Sprint(r.NsPerOp),
			fmt.Sprint(r.NsP25),
			fmt.Sprint(r.NsP75),
			spread,
			fmt.Sprint(r.Evaluations),
			fmt.Sprint(r.Passes),
			fmt.Sprint(r.AllocsPerOp),
			fmt.Sprint(r.BytesPerOp),
			fmt.Sprint(r.FootprintBytes),
			fmt.Sprint(r.GenerateNsPerOp),
			fmt.Sprint(r.GenerateBytesPerOp),
			fmt.Sprint(r.GenerateAllocsPerOp))
	}
	tw.flush()
	fmt.Fprintf(&b, "(%s; ns/op is the median of %d rep-major reps, p25/p75 its quartiles, spread (p75−p25)/median, * = spread above 20%%: unresolved; evals for topo, passes for phased; gen = labels + Generate on a fresh info, best of the reps)\n", bench.Host.Describe(), bench.Reps)
	return b.String()
}
