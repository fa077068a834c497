package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fx10/internal/condensed"
	"fx10/internal/constraints"
	"fx10/internal/gofront"
	"fx10/internal/intset"
	"fx10/internal/mhp"

	fxruntime "fx10/internal/runtime"
)

// The gofront study measures what the real-Go front end preserves on
// the committed corpus (testdata/goprograms): per program, how much
// of the source lowers faithfully (coverage = 1 − dropped/stmts, per
// Might & Van Horn's skip-lowering), the condensed structure it
// yields (finish/async nodes, labels), and the MHP pair counts in
// both modes. The observed column replays each program through the
// instrumented runtime over several seeds and counts the pairs
// actually seen — by the soundness argument of DESIGN.md §10 it must
// be ≤ the static count, and the sweep fails if it is not. Written as
// BENCH_gofront.json so front-end regressions (coverage drops, pair
// blow-ups) are diffable across commits.

// GofrontRow is one corpus program's measurements.
type GofrontRow struct {
	File string `json:"file"`
	// LOC / Stmts / Dropped describe the lowering: source lines,
	// statements considered, and statements skip-lowered with a
	// diagnostic. Coverage = 1 − Dropped/Stmts.
	LOC      int     `json:"loc"`
	Stmts    int     `json:"stmts"`
	Dropped  int     `json:"dropped"`
	Coverage float64 `json:"coverage"`
	// Finishes / Asyncs / Labels describe the condensed unit the
	// front end produced.
	Finishes int `json:"finishes"`
	Asyncs   int `json:"asyncs"`
	Labels   int `json:"labels"`
	// CSPairs / CIPairs are unordered main-M pair counts in the
	// context-sensitive and context-insensitive modes.
	CSPairs int `json:"cs_pairs"`
	CIPairs int `json:"ci_pairs"`
	// ObservedPairs counts the distinct unordered pairs the
	// instrumented runtime actually witnessed across the seeds; it is
	// ≤ CSPairs by soundness (enforced, not assumed).
	ObservedPairs int `json:"observed_pairs"`
}

// GofrontBench is the full sweep plus environment.
type GofrontBench struct {
	Host
	Seeds int          `json:"seeds"`
	Rows  []GofrontRow `json:"rows"`
}

// RunGofrontBench sweeps every .go file under dir through the Go
// front end, the analysis in both modes, and the instrumented
// runtime. It fails if any observed pair escapes the static relation
// — the bench doubles as a soundness check on the committed corpus.
func RunGofrontBench(dir string, seeds int) (GofrontBench, error) {
	if seeds < 1 {
		seeds = 1
	}
	bench := GofrontBench{
		Host:  CurrentHost(),
		Seeds: seeds,
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return bench, fmt.Errorf("gofront bench: %w", err)
	}
	var names []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".go" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return bench, fmt.Errorf("gofront bench: no .go files under %s", dir)
	}
	for _, name := range names {
		row, err := measureGofront(filepath.Join(dir, name), seeds)
		if err != nil {
			return bench, err
		}
		row.File = name
		bench.Rows = append(bench.Rows, row)
	}
	return bench, nil
}

func measureGofront(path string, seeds int) (GofrontRow, error) {
	var row GofrontRow
	src, err := os.ReadFile(path)
	if err != nil {
		return row, err
	}
	u, st, err := gofront.Lower(string(src))
	if err != nil {
		return row, fmt.Errorf("gofront bench: %s: %w", path, err)
	}
	row.LOC, row.Stmts, row.Dropped = st.LOC, st.Stmts, len(st.Dropped)
	row.Coverage = st.Coverage()
	counts := u.NodeCounts()
	row.Finishes = counts.Of(condensed.Finish)
	row.Asyncs = counts.Of(condensed.Async)

	p, err := condensed.Lower(u)
	if err != nil {
		return row, fmt.Errorf("gofront bench: %s: %w", path, err)
	}
	row.Labels = p.NumLabels()

	cs, err := mhp.Analyze(p, constraints.ContextSensitive)
	if err != nil {
		return row, err
	}
	ci, err := mhp.Analyze(p, constraints.ContextInsensitive)
	if err != nil {
		return row, err
	}
	row.CSPairs = unorderedPairs(cs.M)
	row.CIPairs = unorderedPairs(ci.M)

	observed := intset.NewPairs(p.NumLabels())
	for seed := 0; seed < seeds; seed++ {
		out, err := fxruntime.Run(p, nil, fxruntime.Options{
			RecordParallel: true,
			Seed:           int64(seed),
			MaxSteps:       200_000,
		})
		if err != nil && !errors.Is(err, fxruntime.ErrFuelExhausted) {
			return row, fmt.Errorf("gofront bench: %s seed %d: %w", path, seed, err)
		}
		observed.UnionWith(out.Observed)
	}
	if !observed.SubsetOf(cs.M) {
		return row, fmt.Errorf("gofront bench: %s: observed pairs escape static M (front end unsound)", path)
	}
	row.ObservedPairs = unorderedPairs(observed)
	return row, nil
}

// FormatGofrontBench renders the sweep as an aligned table.
func FormatGofrontBench(bench GofrontBench) string {
	var b strings.Builder
	tw := newTable(&b, "program", "loc", "stmts", "dropped", "coverage", "finish", "async", "labels", "CS pairs", "CI pairs", "observed")
	for _, r := range bench.Rows {
		tw.row(r.File,
			fmt.Sprint(r.LOC),
			fmt.Sprint(r.Stmts),
			fmt.Sprint(r.Dropped),
			fmt.Sprintf("%.2f", r.Coverage),
			fmt.Sprint(r.Finishes),
			fmt.Sprint(r.Asyncs),
			fmt.Sprint(r.Labels),
			fmt.Sprint(r.CSPairs),
			fmt.Sprint(r.CIPairs),
			fmt.Sprint(r.ObservedPairs))
	}
	tw.flush()
	fmt.Fprintf(&b, "(%s; pairs are unordered main-M counts; observed ⊆ CS checked over %d runtime seeds)\n",
		bench.Host.Describe(), bench.Seeds)
	return b.String()
}

// WriteGofrontBenchJSON writes the sweep machine-readably (the
// committed BENCH_gofront.json).
func WriteGofrontBenchJSON(bench GofrontBench, path string) error {
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
