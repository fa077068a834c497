package constraints

import "fx10/internal/intset"

// Post-hoc accounting for the clock-phase pruning: which pairs did the
// barrier remove from the main method's MHP relation?
//
// The solvers drop a pair the moment it would enter a pair variable
// (emitCross), so the pruned pairs are never materialized during
// solving and no strategy-dependent counter exists. They are instead
// reconstructed exactly from the least solution: level-1 values are
// unaffected by the pruning (no set constraint reads a pair variable),
// so a clock-blind solve has the same set valuation, and its main m
// value is the pruned one plus every phase-rejected cross-term pair of
// a level-2 constraint reachable from m_main through Pairs edges. The
// walk below collects exactly those, making the count a deterministic
// function of the system — identical across solver strategies and
// delta vs scratch solves, which the report layer's byte-stability
// contract requires.

// ClockPrunedMainPairs returns the symmetric pair set the phase
// analysis pruned from the main method's m variable: a clock-blind
// solve's MainM equals MainM() ∪ ClockPrunedMainPairs(), and the two
// are disjoint. Returns an empty set for clock-free systems.
func (sol *Solution) ClockPrunedMainPairs() *intset.PairSet {
	s := sol.sys
	out := intset.NewPairs(s.P.NumLabels())
	code := s.PhaseCode
	if code == nil {
		return out
	}

	s.walkL2(s.MethodM[s.P.MainIndex], func(c *L2) {
		for _, ct := range c.Crosses {
			val := sol.setVals[ct.Var]
			ct.eachConst(func(i int) {
				pi := code[i]
				if pi < 0 {
					return
				}
				val.Each(func(j int) {
					if pj := code[j]; pj >= 0 && pj != pi {
						out.AddSym(i, j)
					}
				})
			})
		}
	}, func(PairVar) bool { return true })
	return out
}
