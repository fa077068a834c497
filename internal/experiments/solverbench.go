package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"fx10/internal/constraints"
	"fx10/internal/labels"
	"fx10/internal/workloads"
)

// The solver bench is the head-to-head comparison of the solving
// strategies on the paper's 13-benchmark corpus: same generated
// constraint system, two ways to reach the unique least solution.
// It backs the README's performance table and is written as
// BENCH_solver.json so perf regressions are diffable across commits.

// SolverBenchStrategies are the algorithms the bench sweeps, in
// presentation order: the reference first, the served default last.
var SolverBenchStrategies = []constraints.Algorithm{constraints.Phased, constraints.Topo}

// SolverBenchRow is one (benchmark, strategy) measurement.
type SolverBenchRow struct {
	Benchmark string `json:"benchmark"`
	Strategy  string `json:"strategy"`
	// NsPerOp is the best-of-reps wall time of one Solve.
	NsPerOp int64 `json:"ns_per_op"`
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
}

// SolverBench is the full sweep plus the environment it ran in.
type SolverBench struct {
	Host
	Reps int              `json:"reps"`
	Rows []SolverBenchRow `json:"rows"`
}

// RunSolverBench measures every strategy on every benchmark
// (context-sensitive, as in Figure 8). Each (benchmark, strategy) cell
// is timed reps times over an adaptively sized inner loop and the
// fastest rep wins, go-test style.
func RunSolverBench(reps int) (SolverBench, error) {
	if reps < 1 {
		reps = 1
	}
	bench := SolverBench{
		Host: CurrentHost(),
		Reps: reps,
	}
	for _, wl := range workloads.All() {
		sys := constraints.Generate(labels.Compute(wl.Program()), constraints.ContextSensitive)
		for _, alg := range SolverBenchStrategies {
			bench.Rows = append(bench.Rows, measureSolver(wl.Name, alg, sys, reps))
		}
	}
	return bench, nil
}

// measureSolver times one (benchmark, strategy) cell.
func measureSolver(benchmark string, alg constraints.Algorithm, sys *constraints.System, reps int) SolverBenchRow {
	// Warm-up solve; its (deterministic) counters fill the row.
	warm := sys.Solve(alg)
	row := SolverBenchRow{
		Benchmark:   benchmark,
		Strategy:    alg.String(),
		Evaluations: warm.Evaluations,
		Passes:      warm.IterL1 + warm.IterL2,
	}

	// Size the inner loop so each rep runs ≥ ~2ms: single solves on
	// the small benchmarks are microseconds, below timer noise.
	iters := 1
	if d := warm.Duration; d > 0 {
		iters = int(2 * time.Millisecond / d)
	}
	if iters < 1 {
		iters = 1
	}
	if iters > 512 {
		iters = 512
	}

	best := time.Duration(0)
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			sys.Solve(alg)
		}
		if d := time.Since(t0); rep == 0 || d < best {
			best = d
		}
	}
	row.NsPerOp = best.Nanoseconds() / int64(iters)

	// Allocation profile, measured over its own loop so the timing
	// reps above stay unperturbed by ReadMemStats.
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i := 0; i < iters; i++ {
		sys.Solve(alg)
	}
	runtime.ReadMemStats(&ms1)
	row.AllocsPerOp = int64(ms1.Mallocs-ms0.Mallocs) / int64(iters)
	row.BytesPerOp = int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(iters)
	return row
}

// FormatSolverBench renders the sweep as an aligned table, one row
// per (benchmark, strategy).
func FormatSolverBench(bench SolverBench) string {
	var b strings.Builder
	tw := newTable(&b, "benchmark", "strategy", "ns/op", "evals", "passes", "allocs/op", "B/op")
	for _, r := range bench.Rows {
		tw.row(r.Benchmark, r.Strategy,
			fmt.Sprint(r.NsPerOp),
			fmt.Sprint(r.Evaluations),
			fmt.Sprint(r.Passes),
			fmt.Sprint(r.AllocsPerOp),
			fmt.Sprint(r.BytesPerOp))
	}
	tw.flush()
	fmt.Fprintf(&b, "(%s, best of %d reps; evals for topo, passes for phased)\n", bench.Host.Describe(), bench.Reps)
	return b.String()
}

// WriteSolverBenchJSON writes the sweep machine-readably (the
// committed BENCH_solver.json).
func WriteSolverBenchJSON(bench SolverBench, path string) error {
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
