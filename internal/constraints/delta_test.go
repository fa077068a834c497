package constraints

import (
	"testing"

	"fx10/internal/labels"
	"fx10/internal/parser"
	"fx10/internal/progen"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// deltaSys generates the system for p in the given mode.
func deltaSys(p *syntax.Program, mode Mode) *System {
	return Generate(labels.Compute(p), mode)
}

// dirtyByHash diffs edited against base by method content hash,
// returning the dirty method IDs of edited — what engine.AnalyzeDelta
// feeds SolveDelta.
func dirtyByHash(base, edited *syntax.Program) []MethodID {
	prev := map[string]syntax.ProgramHash{}
	for mi, m := range base.Methods {
		prev[m.Name] = base.MethodHash(mi)
	}
	var dirty []MethodID
	for mi, m := range edited.Methods {
		if h, ok := prev[m.Name]; !ok || h != edited.MethodHash(mi) {
			dirty = append(dirty, mi)
		}
	}
	return dirty
}

// TestCallGraph checks the call-graph layer on a known shape.
func TestCallGraph(t *testing.T) {
	b := syntax.NewBuilder(4)
	b.MustAddMethod("g", b.Stmts(b.Skip("")))
	b.MustAddMethod("f", b.Stmts(b.Call("", "g")))
	b.MustAddMethod("main", b.Stmts(b.Call("", "f"), b.Call("", "g")))
	p := b.MustProgram()
	cg := NewCallGraph(p)

	g, _ := p.MethodIndex("g")
	f, _ := p.MethodIndex("f")
	main := p.MainIndex
	if got := cg.Callees(main); len(got) != 2 {
		t.Fatalf("main callees = %v, want f and g", got)
	}
	if got := cg.Callers(g); len(got) != 2 {
		t.Fatalf("g callers = %v, want f and main", got)
	}
	closure := cg.CallerClosure([]MethodID{g})
	for mi, in := range closure {
		if !in {
			t.Errorf("caller closure of g should include every method, missing %d", mi)
		}
	}
	closure = cg.CallerClosure([]MethodID{main})
	if closure[f] || closure[g] {
		t.Error("caller closure of main must not include its callees")
	}
}

// TestSystemPartition checks that every variable has an owner and the
// per-method variable lists cover the system exactly once.
func TestSystemPartition(t *testing.T) {
	for _, mode := range []Mode{ContextSensitive, ContextInsensitive} {
		p := progen.Generate(7, progen.Default())
		sys := deltaSys(p, mode)
		if sys.Calls == nil {
			t.Fatal("system has no call graph")
		}
		seenSet := 0
		for mi := range p.Methods {
			seenSet += len(sys.SetVarsOf(mi))
			for _, v := range sys.SetVarsOf(mi) {
				if sys.SetVarOwner[v] != mi {
					t.Fatalf("%v: set var %d listed under method %d but owned by %d", mode, v, mi, sys.SetVarOwner[v])
				}
			}
		}
		if seenSet != len(sys.SetVarOwner) {
			t.Fatalf("%v: per-method set-var lists cover %d of %d vars", mode, seenSet, len(sys.SetVarOwner))
		}
		seenPair := 0
		for mi := range p.Methods {
			seenPair += len(sys.PairVarsOf(mi))
		}
		if seenPair != len(sys.PairVarOwner) {
			t.Fatalf("%v: per-method pair-var lists cover %d of %d vars", mode, seenPair, len(sys.PairVarOwner))
		}
	}
}

// TestSolveDeltaEquivalence: across a seeded corpus of (program,
// single-method edit) pairs and both modes, SolveDelta must reproduce
// the from-scratch solution bit for bit.
func TestSolveDeltaEquivalence(t *testing.T) {
	for _, mode := range []Mode{ContextSensitive, ContextInsensitive} {
		for seed := int64(0); seed < 20; seed++ {
			p := progen.Generate(seed, progen.Default())
			prevSol := deltaSys(p, mode).Solve(Topo)
			for mi := range p.Methods {
				edited := progen.MutateMethod(p, mi, seed*31+int64(mi))
				sys := deltaSys(edited, mode)
				got, info := sys.SolveDelta(prevSol, dirtyByHash(p, edited))
				want := sys.Solve(Phased)
				if !got.ValuationEqual(want) {
					t.Fatalf("%v seed %d method %d: delta valuation differs (full=%v, closure=%v)\n%s",
						mode, seed, mi, info.Full, info.Closure, syntax.Print(edited))
				}
				if info.MethodsReused+info.MethodsResolved != len(edited.Methods) {
					t.Fatalf("%v seed %d: reused %d + resolved %d != %d methods",
						mode, seed, info.MethodsReused, info.MethodsResolved, len(edited.Methods))
				}
			}
		}
	}
}

// TestSolveDeltaLeavesSeedIntact: pair bags are shared, across the
// variables of a copy-elided chain and across Solutions by delta
// seeding, so no solve may write into a bag another Solution can see.
// Along a chain of edits, each solution a SolveDelta was seeded from
// must still equal a fresh solve of its own program afterwards.
func TestSolveDeltaLeavesSeedIntact(t *testing.T) {
	progs := []*syntax.Program{}
	for seed := int64(0); seed < 20; seed++ {
		progs = append(progs, progen.Generate(seed, progen.Default()))
	}
	for _, name := range []string{"mg", "plasma"} {
		wl, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, wl.Program())
	}
	for _, mode := range []Mode{ContextSensitive, ContextInsensitive} {
		for pi, p := range progs {
			sys := deltaSys(p, mode)
			sol := sys.Solve(Topo)
			for mi := 0; mi < len(p.Methods) && mi < 8; mi++ {
				edited := progen.AppendSkip(p, mi)
				if mi%2 == 1 {
					edited = progen.MutateMethod(p, mi, int64(pi*31+mi))
				}
				esys := deltaSys(edited, mode)
				next, _ := esys.SolveDelta(sol, dirtyByHash(p, edited))
				if !sol.ValuationEqual(sys.Solve(Phased)) {
					t.Fatalf("%v program %d: a delta solve for an edit of method %d changed its seed solution", mode, pi, mi)
				}
				p, sys, sol = edited, esys, next
			}
			if !sol.ValuationEqual(sys.Solve(Phased)) {
				t.Fatalf("%v program %d: last delta solution of the chain differs from phased", mode, pi)
			}
		}
	}
}

// TestSolveDeltaStrictSubset: editing a leaf method of a fan-out
// program must not re-solve untouched siblings (context-sensitively
// the closure is the edited method plus its transitive callers).
func TestSolveDeltaStrictSubset(t *testing.T) {
	build := func(extra bool) *syntax.Program {
		b := syntax.NewBuilder(4)
		b.MustAddMethod("leaf", b.Stmts(b.Async("", b.Stmts(b.Skip("")))))
		instrs := []syntax.Instr{b.Async("", b.Stmts(b.Skip(""))), b.Skip("")}
		if extra {
			instrs = append(instrs, b.Skip(""))
		}
		b.MustAddMethod("edited", b.Stmts(instrs...))
		b.MustAddMethod("main", b.Stmts(
			b.Finish("", b.Stmts(b.Call("", "leaf"), b.Call("", "edited"))),
		))
		return b.MustProgram()
	}
	base, edited := build(false), build(true)
	prevSol := deltaSys(base, ContextSensitive).Solve(Topo)
	sys := deltaSys(edited, ContextSensitive)
	got, info := sys.SolveDelta(prevSol, dirtyByHash(base, edited))
	if info.Full {
		t.Fatal("delta fell back to a full solve")
	}
	leaf, _ := edited.MethodIndex("leaf")
	for _, mi := range info.Closure {
		if mi == leaf {
			t.Fatalf("closure %v includes the untouched leaf method", info.Closure)
		}
	}
	if info.MethodsReused == 0 {
		t.Fatal("no methods reused")
	}
	if !got.ValuationEqual(sys.Solve(Phased)) {
		t.Fatal("delta valuation differs from scratch")
	}
}

// TestSolveDeltaPhaseShift: an edit that only touches main can change
// an untouched helper's clock phases — here a second call site at a
// different phase joins the helper's entry phase to ⊤, un-pruning
// pairs the previous solve dropped. Reusing the helper's stale pruned
// values would be unsound; the phase-agreement check must pull it into
// the dirty closure and reproduce the scratch solution bit for bit.
func TestSolveDeltaPhaseShift(t *testing.T) {
	const helper = `
void work() {
  WC: clocked async {
    WA: a[0] = 1;
    WN: next;
    WB: a[1] = 2;
  }
  WD: a[2] = 3;
  WM: next;
  WE: a[3] = 4;
}
`
	base := parser.MustParse("array 8;\n" + helper + `
void main() {
  F1: work();
}
`)
	edited := parser.MustParse("array 8;\n" + helper + `
void main() {
  F1: work();
  MN: next;
  F2: work();
}
`)

	// Vacuity guard: the phase shift really changes the helper's pairs.
	// At a single phase-0 call site WB (phase 1) and WD (phase 0) are
	// serialized by the barrier; with the entry phase joined to ⊤ the
	// pair must come back.
	baseM := deltaSys(base, ContextSensitive).Solve(Phased).MainM()
	wb, _ := base.LabelByName("WB")
	wd, _ := base.LabelByName("WD")
	if baseM.Has(int(wb), int(wd)) {
		t.Fatal("base solve did not prune the cross-phase pair (WB, WD)")
	}
	editM := deltaSys(edited, ContextSensitive).Solve(Phased).MainM()
	wb2, _ := edited.LabelByName("WB")
	wd2, _ := edited.LabelByName("WD")
	if !editM.Has(int(wb2), int(wd2)) {
		t.Fatal("edited scratch solve should keep (WB, WD): helper entry phase is ⊤")
	}

	for _, mode := range []Mode{ContextSensitive, ContextInsensitive} {
		prevSol := deltaSys(base, mode).Solve(Topo)
		sys := deltaSys(edited, mode)
		got, info := sys.SolveDelta(prevSol, dirtyByHash(base, edited))
		want := sys.Solve(Phased)
		if !got.ValuationEqual(want) {
			t.Fatalf("%v: delta valuation differs after phase-shifting edit (full=%v, closure=%v)",
				mode, info.Full, info.Closure)
		}
		work, _ := edited.MethodIndex("work")
		inClosure := false
		for _, mi := range info.Closure {
			if mi == work {
				inClosure = true
			}
		}
		if !info.Full && !inClosure {
			t.Fatalf("%v: helper with shifted phases was reused (closure=%v)", mode, info.Closure)
		}
	}
}

// TestSolveDeltaFallbacks: a missing or incompatible previous solution
// degrades to a full solve, never to a wrong answer.
func TestSolveDeltaFallbacks(t *testing.T) {
	p := progen.Generate(3, progen.Default())
	sys := deltaSys(p, ContextSensitive)
	sol, info := sys.SolveDelta(nil, nil)
	if !info.Full {
		t.Error("nil previous solution should force a full solve")
	}
	if !sol.ValuationEqual(sys.Solve(Phased)) {
		t.Error("fallback solution differs from scratch")
	}

	// Mode mismatch: a CI solution cannot seed a CS delta.
	ciSol := deltaSys(p, ContextInsensitive).Solve(Topo)
	_, info = sys.SolveDelta(ciSol, nil)
	if !info.Full {
		t.Error("mode mismatch should force a full solve")
	}
}

// TestSolveDeltaEvaluatesNoMoreThanScratch: over every single-method
// AppendSkip edit of every paper program, in both modes, the delta
// path stays incremental, reproduces the reference valuation, and
// evaluates no more constraints than a topo solve from scratch (the
// closure is solved by the same SCC pass, with the kept components
// skipped).
func TestSolveDeltaEvaluatesNoMoreThanScratch(t *testing.T) {
	for _, wl := range workloads.All() {
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			p := wl.Program()
			for _, mode := range []Mode{ContextSensitive, ContextInsensitive} {
				prevSol := deltaSys(p, mode).Solve(Topo)
				for mi := range p.Methods {
					edited := progen.AppendSkip(p, mi)
					sys := deltaSys(edited, mode)
					got, info := sys.SolveDelta(prevSol, dirtyByHash(p, edited))
					if info.Full {
						t.Fatalf("%v method %d: delta fell back to a full solve", mode, mi)
					}
					if !got.ValuationEqual(sys.Solve(Phased)) {
						t.Fatalf("%v method %d: delta valuation differs from phased", mode, mi)
					}
					if scratch := sys.Solve(Topo).Evaluations; got.Evaluations > scratch {
						t.Errorf("%v method %d: delta evaluated %d constraints, topo from scratch %d",
							mode, mi, got.Evaluations, scratch)
					}
				}
			}
		})
	}
}
