package constraints

import "slices"

// Valuation comparison: Theorems 5–6 say every solving strategy
// reaches the same least solution, and internal/engine's
// cross-strategy equivalence test checks that claim executably. The
// comparison must be on the raw valuation (every set and pair
// variable), not just on derived views like MainM, so that a strategy
// bug in an intermediate variable cannot hide behind an unchanged
// final answer.

// ValuationEqual reports whether sol and other assign bit-identical
// values to every set and pair variable. Both solutions must come
// from systems over the same program shape (same variable counts);
// solutions of differently-shaped systems compare unequal. Solver
// metrics (iterations, durations, allocations) are ignored.
func (sol *Solution) ValuationEqual(other *Solution) bool {
	if len(sol.setVals) != len(other.setVals) || len(sol.pairVals) != len(other.pairVals) {
		return false
	}
	for i, s := range sol.setVals {
		if !s.Equal(other.setVals[i]) {
			return false
		}
	}
	for i, b := range sol.pairVals {
		if !slices.Equal(b, other.pairVals[i]) {
			return false
		}
	}
	return true
}
