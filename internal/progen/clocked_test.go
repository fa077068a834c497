package progen

import (
	"testing"

	"fx10/internal/clocks"
	"fx10/internal/constraints"
	"fx10/internal/labels"
	"fx10/internal/parser"
	"fx10/internal/syntax"
)

// The clocked generator's whole point is a corpus that is (a) actually
// clocked often enough to exercise the phase analysis and (b) free of
// clocked-finish deadlocks and dynamic clock-use errors by
// construction, so the differential fuzzer can treat any deadlock or
// clock error as a bug rather than corpus noise.

func TestClockedGeneratedProgramsValidate(t *testing.T) {
	clocked := 0
	for seed := int64(0); seed < 100; seed++ {
		p := Generate(seed, ClockedFinite())
		if err := syntax.Validate(p); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := syntax.CheckClockUse(p); err != nil {
			t.Fatalf("seed %d: clock-use check failed: %v\n%s", seed, err, syntax.Print(p))
		}
		if p.UsesClocks() {
			clocked++
		}
	}
	if clocked < 30 {
		t.Fatalf("only %d/100 generated programs use clocks; generator too timid", clocked)
	}
}

func TestClockedGeneratedProgramsRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		p := Generate(seed, ClockedFinite())
		printed := syntax.Print(p)
		q, err := parser.Parse(printed)
		if err != nil {
			t.Fatalf("seed %d: reparse failed: %v\n%s", seed, err, printed)
		}
		if syntax.Print(q) != printed {
			t.Fatalf("seed %d: print/parse not a fixpoint", seed)
		}
	}
}

// Every generated clocked program terminates cleanly under the full
// barrier semantics: no interleaving deadlocks and no dynamic
// clock-use errors (exhaustive check on the finite corpus).
func TestClockedGeneratedProgramsDeadlockFree(t *testing.T) {
	complete := 0
	for seed := int64(0); seed < 60; seed++ {
		p := Generate(seed, ClockedFinite())
		res := clocks.Explore(p, nil, 200_000)
		if res.ClockErrors != 0 {
			t.Fatalf("seed %d: %d dynamic clock-use errors\n%s", seed, res.ClockErrors, syntax.Print(p))
		}
		if res.Deadlocks != 0 {
			t.Fatalf("seed %d: %d deadlocked interleavings\n%s", seed, res.Deadlocks, syntax.Print(p))
		}
		if res.Complete {
			complete++
			if !res.Terminated {
				t.Fatalf("seed %d: finite program has no terminating interleaving\n%s", seed, syntax.Print(p))
			}
		}
	}
	if complete < 40 {
		t.Fatalf("only %d/60 explorations completed; shrink the generator config", complete)
	}
}

// Soundness on the clocked corpus: the exact clocked relation is
// contained in the phase-aware static result, and randomized
// interpreter runs only observe pairs the explorer found.
func TestClockedSoundnessRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		p := Generate(seed, ClockedFinite())
		res := clocks.Explore(p, nil, 200_000)
		if !res.Complete {
			continue
		}
		in := labels.Compute(p)
		m := constraints.Generate(in, constraints.ContextSensitive).Solve(constraints.Phased).MainM()
		if !res.MHP.SubsetOf(m) {
			t.Fatalf("seed %d: soundness violated\nexact: %v\ninferred: %v\nprogram:\n%s",
				seed, res.MHP, m, syntax.Print(p))
		}
		for s := int64(0); s < 3; s++ {
			r, err := clocks.Run(p, nil, s, 100_000)
			if err != nil {
				t.Fatalf("seed %d/%d: interpreter error: %v\n%s", seed, s, err, syntax.Print(p))
			}
			if !r.Pairs.SubsetOf(res.MHP) {
				t.Fatalf("seed %d/%d: observed pairs not ⊆ exact relation", seed, s)
			}
		}
	}
}
