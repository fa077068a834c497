package experiments

import (
	"fmt"
	"strings"

	"fx10/internal/engine"
	"fx10/internal/explore"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// The precision study is the benchmark-scale counterpart of the
// differential fuzzer (internal/difffuzz): it cross-checks the exact
// MHP relation, computed by budget-bounded exhaustive interleaving
// search, against the static relation M on the 13 workload
// benchmarks. Theorem 2's containment direction — every exact pair
// is in M — must hold even when the state budget truncates the
// search, because a truncated search still only visits reachable
// states. The gap M \ exact is the analysis' imprecision; on
// truncated benchmarks it is only an upper bound on the true gap.

// DefaultPrecisionBudget is the per-benchmark state budget
// cmd/mhpbench uses. The benchmarks contain while loops, so most
// state spaces are effectively unbounded and the budget truncates
// them; the containment check is valid regardless (see above).
const DefaultPrecisionBudget = 20_000

// PrecisionRow is one benchmark's exact-vs-static comparison.
type PrecisionRow struct {
	Name     string
	States   int  // states visited across both explorations
	Complete bool // both explorations finished within budget
	Exact    int  // unordered exact pairs (lower bound when !Complete)
	Static   int  // unordered pairs in M
	Gap      int  // Static − Exact
}

// TheoremPrecision runs the cross-check under the given state budget
// per benchmark. It fails hard if any benchmark violates the
// containment exact ⊆ static, which would falsify Theorem 2.
func TheoremPrecision(maxStates int) ([]PrecisionRow, error) {
	var rows []PrecisionRow
	for _, b := range workloads.All() {
		p := b.Program()
		res, err := figEngine.Analyze(engine.Job{Name: b.Name, Program: p})
		if err != nil {
			return nil, fmt.Errorf("experiments: analyze %s: %w", b.Name, err)
		}
		// Two explorations, both sound lower bounds on the exact
		// relation (M is data-independent, so Theorem 2 covers any
		// initial array): the zero array — the paper's initial
		// configuration, which typically completes but leaves
		// while-loop bodies dead (guards test a[d] != 0) — and the
		// all-ones array, which arms the loops (often unbounded; the
		// state budget truncates). The reported exact set is their
		// union.
		ones := make([]int64, p.ArrayLen)
		for i := range ones {
			ones[i] = 1
		}
		zero := explore.MHP(p, nil, maxStates)
		armed := explore.MHP(p, ones, maxStates)
		for _, exact := range []explore.Result{zero, armed} {
			if !exact.MHP.SubsetOf(res.M) {
				witness := "?"
				exact.MHP.Each(func(i, j int) {
					if witness == "?" && !res.M.Has(i, j) {
						witness = fmt.Sprintf("(%s, %s)", p.LabelName(syntax.Label(i)), p.LabelName(syntax.Label(j)))
					}
				})
				return nil, fmt.Errorf("experiments: %s: exact pair %s missing from static M — Theorem 2 containment violated", b.Name, witness)
			}
		}
		union := zero.MHP.Clone()
		union.UnionWith(armed.MHP)
		rows = append(rows, PrecisionRow{
			Name:     b.Name,
			States:   zero.States + armed.States,
			Complete: zero.Complete && armed.Complete,
			Exact:    union.UnorderedLen(),
			Static:   res.M.UnorderedLen(),
			Gap:      res.M.UnorderedLen() - union.UnorderedLen(),
		})
	}
	return rows, nil
}

// FormatPrecision renders the study as a table.
func FormatPrecision(rows []PrecisionRow) string {
	var b strings.Builder
	tw := newTable(&b, "benchmark", "states", "complete", "exact", "static", "gap")
	for _, r := range rows {
		tw.row(r.Name, fmt.Sprint(r.States), fmt.Sprint(r.Complete),
			fmt.Sprint(r.Exact), fmt.Sprint(r.Static), fmt.Sprint(r.Gap))
	}
	tw.flush()
	b.WriteString("(exact ⊆ static held on every benchmark — Theorem 2's containment direction;\n" +
		" on incomplete explorations the exact column is a lower bound, so gap is an upper bound)\n")
	return b.String()
}
