package constraints

import "slices"

// Valuation comparison: Theorems 5–6 say every solving strategy
// reaches the same least solution, and internal/engine's
// cross-strategy equivalence test checks that claim executably. It
// compares every value both strategies and the delta solve compute,
// not just MainM, so that a bug in an intermediate value cannot hide
// behind an unchanged final answer. Only phased solves statement-level
// m; TestStmtValuesMatchJudgeStmt checks those against the type rules.

// ValuationEqual reports whether sol and other assign bit-identical
// values to every set variable and to every method's m variable. Both
// solutions must come from systems over the same program shape (same
// variable and method counts); solutions of differently-shaped
// systems compare unequal. Solver metrics (iterations, durations,
// allocations) are ignored.
func (sol *Solution) ValuationEqual(other *Solution) bool {
	mm, om := sol.sys.MethodM, other.sys.MethodM
	if len(sol.setVals) != len(other.setVals) || len(sol.pairVals) != len(other.pairVals) || len(mm) != len(om) {
		return false
	}
	for i, s := range sol.setVals {
		if !s.Equal(other.setVals[i]) {
			return false
		}
	}
	for mi, v := range mm {
		if !slices.Equal(sol.pairVals[v], other.pairVals[om[mi]]) {
			return false
		}
	}
	return true
}
