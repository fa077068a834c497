// Clocked demonstrates the Section 8 clocks extension: a split-phase
// stencil step where two clocked workers write their cells in phase
// 0, synchronize on the implicit clock with next, and read each
// other's cells in phase 1 — the X10 idiom that replaces
// finish-per-step barriers.
//
// The example runs the program under the faithful barrier semantics
// (internal/clocks), then shows that the analysis is clock-aware out
// of the box: phase-ordering facts are threaded into constraint
// solving, so the standard pipeline already excludes the cross-phase
// pairs a clock-blind solve reports — validated against both the
// dynamic execution and an exhaustive exploration of every schedule.
//
//	go run ./examples/clocked
package main

import (
	"fmt"
	"sort"

	"fx10/internal/clocks"
	"fx10/internal/constraints"
	"fx10/internal/intset"
	"fx10/internal/labels"
	"fx10/internal/mhp"
	"fx10/internal/parser"
	"fx10/internal/syntax"
)

const src = `
array 8;

void main() {
  L: clocked async {
    WL: a[0] = 1;       // phase 0: write left cell
    NL: next;
    RL: a[2] = a[1] + 1; // phase 1: read right neighbour
  }
  R: clocked async {
    WR: a[1] = 1;       // phase 0: write right cell
    NR: next;
    RR: a[3] = a[0] + 1; // phase 1: read left neighbour
  }
  N: next;
  D: a[4] = a[2] + 1;    // phase 1: main combines
}
`

func main() {
	p := parser.MustParse(src)

	// 1. Execute under the barrier semantics: every schedule sees the
	// phase-0 writes in phase 1.
	for seed := int64(0); seed < 50; seed++ {
		res, err := clocks.Run(p, nil, seed, 100_000)
		if err != nil {
			panic(err)
		}
		if res.Array[2] != 2 || res.Array[3] != 2 {
			panic(fmt.Sprintf("barrier broken: %v", res.Array))
		}
	}
	res, _ := clocks.Run(p, nil, 1, 100_000)
	fmt.Printf("clocked run: a=%v phases=%d steps=%d\n", res.Array, res.Phases, res.Steps)

	// 2. The standard pipeline is clock-aware: phase facts prune
	// ordered pairs during solving. A clock-blind solve of the same
	// system shows what that buys.
	r := mhp.MustAnalyze(p, constraints.ContextSensitive)
	blindSys := constraints.Generate(labels.Compute(p), constraints.ContextSensitive)
	blindSys.Phases, blindSys.PhaseCode = nil, nil
	blind := blindSys.Solve(constraints.Phased).MainM()

	show := func(name string, set *intset.PairSet) {
		var pairs []string
		set.Each(func(i, j int) {
			if i <= j {
				pairs = append(pairs, fmt.Sprintf("(%s,%s)",
					p.LabelName(syntax.Label(i)), p.LabelName(syntax.Label(j))))
			}
		})
		sort.Strings(pairs)
		fmt.Printf("%-22s %2d pairs: %v\n", name, len(pairs), pairs)
	}
	show("clock-blind solve:", blind)
	show("clock-aware (default):", r.M)

	// 3. The cross-phase pairs are gone, and re-applying the post-hoc
	// refinement is a no-op — the pruning already happened inside the
	// solver.
	wl, _ := p.LabelByName("WL")
	rr, _ := p.LabelByName("RR")
	wr, _ := p.LabelByName("WR")
	rl, _ := p.LabelByName("RL")
	pi := clocks.ComputePhases(p)
	if !pi.Refine(r.M).Equal(r.M) {
		panic("post-hoc refinement changed the already-pruned result")
	}
	fmt.Printf("\n(WL,RR) blind=%v aware=%v   (WR,RL) blind=%v aware=%v\n",
		blind.Has(int(wl), int(rr)), r.M.Has(int(wl), int(rr)),
		blind.Has(int(wr), int(rl)), r.M.Has(int(wr), int(rl)))

	// 4. The pruning is sound: exhaustively exploring every schedule
	// under the barrier semantics finds no pair outside the aware M.
	ex := clocks.Explore(p, nil, 1<<20)
	if !ex.Complete || !ex.MHP.SubsetOf(r.M) {
		panic("exact clocked relation escapes the clock-aware analysis")
	}
	fmt.Printf("exhaustive check: %d states, exact ⊆ aware M holds\n", ex.States)

	// 5. Static phases, for the record.
	for _, name := range []string{"WL", "WR", "RL", "RR", "D"} {
		l, _ := p.LabelByName(name)
		fmt.Printf("phase(%s) = %v   ", name, pi.PhaseOf(l))
	}
	fmt.Println()
}
