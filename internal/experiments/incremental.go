package experiments

import (
	"fmt"
	"strings"

	"fx10/internal/constraints"
	"fx10/internal/engine"
	"fx10/internal/progen"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// The incremental bench is the edit-one-method sweep behind the
// README's incremental-analysis table: for every method of every
// corpus benchmark, append one skip to that method, re-analyze
// incrementally (engine.AnalyzeDelta) and from scratch, and compare.
// It reports how much of the program the delta path re-solved and the
// wall-time ratio, and verifies on every edit that the two paths
// produce identical valuations. Written as BENCH_incremental.json so
// regressions are diffable across commits.

// IncrementalRow is one benchmark's edit sweep.
type IncrementalRow struct {
	Benchmark string `json:"benchmark"`
	// Methods is the program's method count; Edits the number of
	// single-method edits swept (one per method).
	Methods int `json:"methods"`
	Edits   int `json:"edits"`
	// AvgMethodsResolved / MaxMethodsResolved summarize the dirty
	// closure sizes across the sweep.
	AvgMethodsResolved float64 `json:"avg_methods_resolved"`
	MaxMethodsResolved int     `json:"max_methods_resolved"`
	// StrictSubsetEdits counts edits whose delta re-solved strictly
	// fewer methods than the program has (i.e. reuse actually
	// happened).
	StrictSubsetEdits int `json:"strict_subset_edits"`
	// AvgConstraintsReevaluated is the mean constraint-evaluation count
	// of the delta solves.
	AvgConstraintsReevaluated float64 `json:"avg_constraints_reevaluated"`
	// ScratchNsPerOp / DeltaNsPerOp are best-of-reps mean wall times of
	// one from-scratch re-analysis vs one AnalyzeDelta, averaged over
	// the edit sweep; Speedup is their ratio.
	ScratchNsPerOp int64   `json:"scratch_ns_per_op"`
	DeltaNsPerOp   int64   `json:"delta_ns_per_op"`
	Speedup        float64 `json:"speedup"`
	// Identical reports that every edit's delta result matched the
	// from-scratch result bit for bit (valuations and M).
	Identical bool `json:"identical"`
}

// IncrementalBench is the full sweep plus the environment it ran in.
type IncrementalBench struct {
	Host
	Strategy string           `json:"strategy"`
	Reps     int              `json:"reps"`
	Rows     []IncrementalRow `json:"rows"`
}

// RunIncremental sweeps every corpus benchmark (context-sensitive, as
// in Figure 8) with the given solver strategy; empty selects the
// default. Caching is off in both engines so the timings measure the
// delta solver itself, not the program cache.
func RunIncremental(reps int, strategy string) (IncrementalBench, error) {
	if reps < 1 {
		reps = 1
	}
	bench := IncrementalBench{
		Host: CurrentHost(),
		Reps: reps,
	}
	e, err := engine.New(engine.Config{Strategy: strategy, CacheSize: -1})
	if err != nil {
		return bench, err
	}
	bench.Strategy = e.Strategy().Name()
	for _, wl := range workloads.All() {
		row, err := measureIncremental(e, wl.Name, wl.Program(), reps)
		if err != nil {
			return bench, err
		}
		bench.Rows = append(bench.Rows, row)
	}
	return bench, nil
}

// measureIncremental runs one benchmark's edit sweep.
func measureIncremental(e *engine.Engine, name string, p *syntax.Program, reps int) (IncrementalRow, error) {
	base, err := e.Analyze(engine.Job{Name: name, Program: p, Mode: constraints.ContextSensitive})
	if err != nil {
		return IncrementalRow{}, err
	}
	edits := make([]*syntax.Program, len(p.Methods))
	for mi := range p.Methods {
		edits[mi] = progen.AppendSkip(p, mi)
	}
	row := IncrementalRow{
		Benchmark: name,
		Methods:   len(p.Methods),
		Edits:     len(edits),
		Identical: true,
	}

	// Correctness + closure statistics pass.
	for _, ed := range edits {
		dres, err := e.AnalyzeDelta(base, ed)
		if err != nil {
			return row, err
		}
		sres, err := e.Analyze(engine.Job{Name: name, Program: ed, Mode: constraints.ContextSensitive})
		if err != nil {
			return row, err
		}
		if !dres.Sol.ValuationEqual(sres.Sol) || !dres.M.Equal(sres.M) {
			row.Identical = false
		}
		ds := dres.Stats.Delta
		row.AvgMethodsResolved += float64(ds.MethodsResolved)
		row.AvgConstraintsReevaluated += float64(dres.Stats.Evaluations)
		if ds.MethodsResolved > row.MaxMethodsResolved {
			row.MaxMethodsResolved = ds.MethodsResolved
		}
		if !ds.Full && ds.MethodsResolved < ds.MethodsTotal {
			row.StrictSubsetEdits++
		}
	}
	row.AvgMethodsResolved /= float64(len(edits))
	row.AvgConstraintsReevaluated /= float64(len(edits))

	// Timing passes: one op = one edited-program re-analysis, swept
	// over all edits and timed by measureOp. The correctness pass
	// above ran every edit, so an error here is kept and returned.
	var opErr error
	sweep := func(analyze func(*syntax.Program) error) int64 {
		return measureOp(reps, len(edits), func() {
			for _, ed := range edits {
				if err := analyze(ed); err != nil && opErr == nil {
					opErr = err
				}
			}
		}).ns
	}
	row.DeltaNsPerOp = sweep(func(ed *syntax.Program) error {
		_, err := e.AnalyzeDelta(base, ed)
		return err
	})
	row.ScratchNsPerOp = sweep(func(ed *syntax.Program) error {
		_, err := e.Analyze(engine.Job{Name: name, Program: ed, Mode: constraints.ContextSensitive})
		return err
	})
	if opErr != nil {
		return row, opErr
	}
	if row.DeltaNsPerOp > 0 {
		row.Speedup = float64(row.ScratchNsPerOp) / float64(row.DeltaNsPerOp)
	}
	return row, nil
}

// FormatIncremental renders the sweep as an aligned table, one row per
// benchmark.
func FormatIncremental(bench IncrementalBench) string {
	var b strings.Builder
	tw := newTable(&b, "benchmark", "methods", "resolved(avg/max)", "subset", "scratch ns/op", "delta ns/op", "speedup", "identical")
	for _, r := range bench.Rows {
		tw.row(r.Benchmark,
			fmt.Sprint(r.Methods),
			fmt.Sprintf("%.1f/%d", r.AvgMethodsResolved, r.MaxMethodsResolved),
			fmt.Sprintf("%d/%d", r.StrictSubsetEdits, r.Edits),
			fmt.Sprint(r.ScratchNsPerOp),
			fmt.Sprint(r.DeltaNsPerOp),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprint(r.Identical))
	}
	tw.flush()
	fmt.Fprintf(&b, "(%s, strategy %s, best of %d reps; one op = re-analysis after appending a skip to one method)\n",
		bench.Host.Describe(), bench.Strategy, bench.Reps)
	return b.String()
}
