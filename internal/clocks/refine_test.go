// External test package: these tests drive the phase refinement
// against the constraint analysis, and internal/constraints imports
// internal/clocks (the solvers consume Phase codes), so an in-package
// test importing constraints would be an import cycle.
package clocks_test

import (
	"testing"

	"fx10/internal/clocks"
	"fx10/internal/constraints"
	"fx10/internal/labels"
	"fx10/internal/parser"
	"fx10/internal/syntax"
)

// phasedSrc is the canonical split-phase program (a copy of the
// in-package tests' `phased`): two clocked workers write in phase 0,
// read each other's value in phase 1.
const phasedSrc = `
array 8;

void main() {
  C1: clocked async {
    W1: a[0] = 1;
    N1: next;
    R1: a[2] = a[1] + 1;
  }
  C2: clocked async {
    W2: a[1] = 1;
    N2: next;
    R2: a[3] = a[0] + 1;
  }
  N0: next;
  D: a[4] = 9;
}
`

func TestPhaseRefinementDropsCrossPhasePairs(t *testing.T) {
	p := parser.MustParse(phasedSrc)
	sys := constraints.Generate(labels.Compute(p), constraints.ContextSensitive)
	sys.Phases = nil
	sys.PhaseCode = nil
	m := sys.Solve(constraints.Phased).MainM()
	pi := clocks.ComputePhases(p)
	refined := pi.Refine(m)

	w1, _ := p.LabelByName("W1")
	r2, _ := p.LabelByName("R2")
	w2, _ := p.LabelByName("W2")
	r1, _ := p.LabelByName("R1")

	// The erased analysis pairs W1 with R2 (and W2 with R1)…
	if !m.Has(int(w1), int(r2)) || !m.Has(int(w2), int(r1)) {
		t.Fatalf("erased analysis missing expected pairs: %v", m)
	}
	// …but the barrier separates phases 0 and 1.
	if refined.Has(int(w1), int(r2)) || refined.Has(int(w2), int(r1)) {
		t.Fatalf("phase refinement kept cross-phase pairs")
	}
	// Same-phase parallelism survives: W1 ∥ W2 and R1 ∥ R2.
	if !refined.Has(int(w1), int(w2)) || !refined.Has(int(r1), int(r2)) {
		t.Fatalf("phase refinement dropped same-phase pairs")
	}
	if !refined.SubsetOf(m) {
		t.Fatalf("refinement not a subset")
	}
}

// Soundness of the refinement against the clocked interpreter: every
// dynamically observed simultaneous pair is in the refined set, and
// every Known-phase label only executes at its computed phase.
func TestPhaseRefinementSoundness(t *testing.T) {
	srcs := []string{
		phasedSrc,
		`
array 4;
void main() {
  clocked async {
    X1: a[0] = 1;
    XN: next;
    X2: a[1] = 1;
  }
  Y1: a[2] = 1;
  YN: next;
  Y2: a[3] = 1;
}
`,
	}
	for si, src := range srcs {
		p := parser.MustParse(src)
		sys := constraints.Generate(labels.Compute(p), constraints.ContextSensitive)
		sys.Phases = nil
		sys.PhaseCode = nil
		m := sys.Solve(constraints.Phased).MainM()
		pi := clocks.ComputePhases(p)
		refined := pi.Refine(m)
		for seed := int64(0); seed < 60; seed++ {
			it := clocks.New(p, nil, seed)
			res, err := it.Run(100_000)
			if err != nil {
				t.Fatalf("src %d seed %d: %v", si, seed, err)
			}
			if !res.Pairs.SubsetOf(refined) {
				t.Fatalf("src %d seed %d: dynamic pairs %v ⊄ refined %v", si, seed, res.Pairs, refined)
			}
			for l := 0; l < p.NumLabels(); l++ {
				want, ok := pi.PhaseOf(syntax.Label(l)).IsKnown()
				if !ok {
					continue
				}
				for _, got := range it.PhasesSeen(syntax.Label(l)) {
					if got != want {
						t.Fatalf("src %d: label %s executed at phase %d, analysis says %d",
							si, p.LabelName(syntax.Label(l)), got, want)
					}
				}
			}
		}
	}
}

// The phase pruning built into the solvers (crossSym's filter) must
// agree exactly with the post-hoc Refine of a clock-blind solve: the
// level-2 system is a pure union lattice and every pair enters via a
// cross term, so filtering at the source commutes with refinement.
func TestSolverPruningEqualsPostHocRefine(t *testing.T) {
	p := parser.MustParse(phasedSrc)
	for _, mode := range []constraints.Mode{constraints.ContextSensitive, constraints.ContextInsensitive} {
		aware := constraints.Generate(labels.Compute(p), mode).Solve(constraints.Phased).MainM()

		blind := constraints.Generate(labels.Compute(p), mode)
		blind.Phases = nil
		blind.PhaseCode = nil
		refined := clocks.ComputePhases(p).Refine(blind.Solve(constraints.Phased).MainM())

		if !aware.Equal(refined) {
			t.Errorf("mode %v: built-in pruning ≠ post-hoc refinement:\n aware: %v\nrefined: %v",
				mode, aware, refined)
		}
	}
}

// A loop whose body passes a barrier runs its test again at every
// later phase, so the loop's own label has no static phase. Here the
// loop test L runs again after N: next, at phase 1, while the clocked
// async is at R: the exact relation of the complete exploration has
// (R, L), and the phase-aware static relation must too (exact ⊆
// static, Theorem 2 under phase pruning).
func TestClockedLoopTestInStaticRelation(t *testing.T) {
	p := parser.MustParse(`
array 4;

void main() {
  I: a[0] = 1;
  A: clocked async { W: a[1] = 1; AN: next; R: a[2] = 1; }
  L: while (a[0] != 0) { N: next; Z: a[0] = 0; }
  D: a[3] = 1;
}
`)
	exact := clocks.Explore(p, nil, 100_000)
	if !exact.Complete {
		t.Fatal("exploration incomplete")
	}
	r, _ := p.LabelByName("R")
	l, _ := p.LabelByName("L")
	if !exact.MHP.Has(int(r), int(l)) {
		t.Fatal("exact relation lacks (R, L); the reproducer no longer reaches it")
	}
	for _, mode := range []constraints.Mode{constraints.ContextSensitive, constraints.ContextInsensitive} {
		static := constraints.Generate(labels.Compute(p), mode).Solve(constraints.Phased).MainM()
		if !exact.MHP.SubsetOf(static) {
			t.Errorf("%s: exact relation ⊄ static relation; static has (R, L): %v", mode, static.Has(int(r), int(l)))
		}
	}
	if _, ok := clocks.ComputePhases(p).PhaseOf(l).IsKnown(); ok {
		t.Error("phase(L) is known; the loop test runs at every phase its body reaches")
	}
}
