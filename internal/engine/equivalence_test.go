package engine

import (
	"context"
	"fmt"
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/labels"
	"fx10/internal/progen"
	"fx10/internal/syntax"
)

// TestStrategyEquivalenceProgenCorpus is the executable form of the
// paper's Theorems 5–6: the constraint system has a unique least
// solution, so every solving strategy — phased (the Section 5.3
// three-phase optimization, the reference) and topo (SCC-condensed
// topological propagation) — must assign bit-identical values to
// every set and pair variable. It sweeps a seeded progen
// corpus of 50 programs (25 full-calculus, 25 loop-free) in both
// analysis modes.
func TestStrategyEquivalenceProgenCorpus(t *testing.T) {
	var programs []*syntax.Program
	for seed := int64(0); seed < 25; seed++ {
		programs = append(programs, progen.Generate(seed, progen.Default()))
	}
	for seed := int64(100); seed < 125; seed++ {
		programs = append(programs, progen.Generate(seed, progen.Finite()))
	}

	// The built-in strategies, resolved through the registry so the
	// test exercises the same lookup path engine callers use; the
	// reference comes first.
	names := []string{"phased", "topo"}
	strategies := make([]Strategy, len(names))
	for i, name := range names {
		s, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		strategies[i] = s
	}

	modes := []constraints.Mode{constraints.ContextSensitive, constraints.ContextInsensitive}
	checked := 0
	for pi, p := range programs {
		in := labels.Compute(p)
		for _, mode := range modes {
			sys := constraints.Generate(in, mode)
			base, err := strategies[0].Solve(context.Background(), sys)
			if err != nil {
				t.Fatal(err)
			}
			for _, strat := range strategies[1:] {
				sol, err := strat.Solve(context.Background(), sys)
				if err != nil {
					t.Fatal(err)
				}
				if !base.ValuationEqual(sol) {
					t.Fatalf("program %d (%v): %s valuation differs from %s\nprogram:\n%s",
						pi, mode, strat.Name(), names[0], syntax.Print(p))
				}
				checked++
			}
			// Sanity: the comparison is not vacuous — the solved main
			// M must exist (possibly empty for async-free programs).
			if sys.MethodM == nil {
				t.Fatalf("program %d (%v): no method variables", pi, mode)
			}
		}
	}
	if want := len(programs) * len(modes) * (len(strategies) - 1); checked != want {
		t.Fatalf("checked %d strategy comparisons, want %d", checked, want)
	}
}

// TestStrategyEquivalenceViaEngines runs the same check through full
// engines (cache off), covering the registry→engine→pipeline path and
// the derived views rather than raw valuations.
func TestStrategyEquivalenceViaEngines(t *testing.T) {
	var jobs []Job
	for seed := int64(200); seed < 210; seed++ {
		jobs = append(jobs, Job{
			Name:    fmt.Sprintf("progen-%d", seed),
			Program: progen.Generate(seed, progen.Default()),
		})
	}
	base := MustNew(Config{Strategy: "phased", CacheSize: -1}).AnalyzeCorpus(jobs)
	got := MustNew(Config{Strategy: "topo", CacheSize: -1}).AnalyzeCorpus(jobs)
	for i := range jobs {
		if base[i].Err != nil || got[i].Err != nil {
			t.Fatalf("%s: %v / %v", jobs[i].Name, base[i].Err, got[i].Err)
		}
		if !base[i].Result.M.Equal(got[i].Result.M) {
			t.Errorf("%s: topo M differs from phased", jobs[i].Name)
		}
	}
}
