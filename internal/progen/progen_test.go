package progen

import (
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/explore"
	"fx10/internal/intset"
	"fx10/internal/labels"
	"fx10/internal/machine"
	"fx10/internal/parser"
	"fx10/internal/runtime"
	"fx10/internal/syntax"
	"fx10/internal/types"
)

func TestGeneratedProgramsValidate(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		p := Generate(seed, Default())
		if err := syntax.Validate(p); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := syntax.Print(Generate(7, Default()))
	b := syntax.Print(Generate(7, Default()))
	if a != b {
		t.Fatalf("generation not deterministic in seed")
	}
}

func TestGeneratedProgramsRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		p := Generate(seed, Default())
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

// Theorem 1 on random programs: every state along random traces
// satisfies progress.
func TestDeadlockFreedomRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		p := Generate(seed, Default())
		for s := int64(0); s < 3; s++ {
			states := machine.Trace(p, machine.Initial(p, nil), machine.NewRandom(s), 300)
			for i, st := range states {
				if !machine.Progress(p, st) {
					t.Fatalf("seed %d/%d: state %d violates progress", seed, s, i)
				}
			}
		}
	}
}

// Theorems 2–3 on random finite programs: the exact exploration MHP
// is contained in the analysis result.
func TestSoundnessRandomFinitePrograms(t *testing.T) {
	complete := 0
	for seed := int64(0); seed < 60; seed++ {
		p := Generate(seed, Finite())
		in := labels.Compute(p)
		sys := constraints.Generate(in, constraints.ContextSensitive)
		m := sys.Solve(constraints.Phased).MainM()
		res := explore.MHPWithInfo(in, p, nil, 200_000)
		if res.ProgressViolations != 0 {
			t.Fatalf("seed %d: progress violations", seed)
		}
		if !res.MHP.SubsetOf(m) {
			t.Fatalf("seed %d: soundness violated\nexact: %v\ninferred: %v\nprogram:\n%s",
				seed, res.MHP, m, syntax.Print(p))
		}
		if res.Complete {
			complete++
		}
	}
	if complete < 40 {
		t.Fatalf("only %d/60 explorations completed; shrink the generator config", complete)
	}
}

// Theorem 4 on random programs: the constraint solution type-checks
// and equals direct type inference.
func TestEquivalenceRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		p := Generate(seed, Default())
		in := labels.Compute(p)
		sol := constraints.Generate(in, constraints.ContextSensitive).Solve(constraints.Phased)
		env := sol.Env()
		c := types.NewChecker(in)
		if err := c.Check(env); err != nil {
			t.Fatalf("seed %d: solved env fails Check: %v\n%s", seed, err, syntax.Print(p))
		}
		if !env.Equal(c.Infer().Env) {
			t.Fatalf("seed %d: solver and type inference disagree\n%s", seed, syntax.Print(p))
		}
	}
}

// The context-sensitive result is always a subset of the context-
// insensitive one.
func TestCSSubsetCIRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		p := Generate(seed, Default())
		in := labels.Compute(p)
		cs := constraints.Generate(in, constraints.ContextSensitive).Solve(constraints.Phased).MainM()
		ci := constraints.Generate(in, constraints.ContextInsensitive).Solve(constraints.Phased).MainM()
		if !cs.SubsetOf(ci) {
			t.Fatalf("seed %d: CS ⊄ CI\n%s", seed, syntax.Print(p))
		}
	}
}

// Topological and phased solving agree on random programs.
func TestSolverModesAgreeRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		p := Generate(seed, Default())
		in := labels.Compute(p)
		sys := constraints.Generate(in, constraints.ContextSensitive)
		a := sys.Solve(constraints.Phased)
		b := sys.Solve(constraints.Topo)
		for mi := range p.Methods {
			if !a.MethodSummary(mi).Equal(b.MethodSummary(mi)) {
				t.Fatalf("seed %d: solver modes disagree on method %d", seed, mi)
			}
		}
	}
}

// Preservation (Lemma 16): along any execution, the tree's typed M
// set never grows.
func TestPreservationRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p := Generate(seed, Default())
		in := labels.Compute(p)
		c := types.NewChecker(in)
		env := c.Infer().Env
		empty := intset.New(p.NumLabels())
		states := machine.Trace(p, machine.Initial(p, nil), machine.NewRandom(seed), 150)
		prev := c.JudgeTree(env, empty, states[0].T)
		for i := 1; i < len(states); i++ {
			cur := c.JudgeTree(env, empty, states[i].T)
			if !cur.SubsetOf(prev) {
				t.Fatalf("seed %d: preservation violated at step %d\n%s", seed, i, syntax.Print(p))
			}
			prev = cur
		}
	}
}

// Lemma 17 along traces: parallel(T) ⊆ typed M of T.
func TestParallelApproximationRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p := Generate(seed, Default())
		in := labels.Compute(p)
		c := types.NewChecker(in)
		env := c.Infer().Env
		empty := intset.New(p.NumLabels())
		states := machine.Trace(p, machine.Initial(p, nil), machine.NewRandom(seed+1000), 150)
		for i, st := range states {
			par := in.Parallel(st.T)
			m := c.JudgeTree(env, empty, st.T)
			if !par.SubsetOf(m) {
				t.Fatalf("seed %d: parallel ⊄ M at step %d", seed, i)
			}
		}
	}
}

// Lemma 7.15 along traces: Tlabels never grows under steps.
func TestTlabelsShrinkRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p := Generate(seed, Default())
		in := labels.Compute(p)
		states := machine.Trace(p, machine.Initial(p, nil), machine.NewRandom(seed), 150)
		prev := in.Tlabels(states[0].T)
		for i := 1; i < len(states); i++ {
			cur := in.Tlabels(states[i].T)
			if !cur.SubsetOf(prev) {
				t.Fatalf("seed %d: Tlabels grew at step %d", seed, i)
			}
			prev = cur
		}
	}
}

// Differential: the goroutine runtime's final array on finite
// programs is reachable in the formal semantics.
func TestRuntimeDifferentialRandomFinitePrograms(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		p := Generate(seed, Finite())
		finals, complete := explore.ReachableFinals(p, nil, 200_000)
		if !complete {
			continue
		}
		for trial := 0; trial < 5; trial++ {
			res, err := runtime.Run(p, nil, runtime.Options{})
			if err != nil {
				t.Fatalf("seed %d: runtime error: %v", seed, err)
			}
			key := machine.Array(res.Array).Key()
			if _, ok := finals[key]; !ok {
				t.Fatalf("seed %d: runtime final %v not reachable formally\n%s",
					seed, res.Array, syntax.Print(p))
			}
		}
	}
}
