package constraints

import (
	"sync"
	"testing"

	"fx10/internal/fixtures"
	"fx10/internal/intset"
	"fx10/internal/labels"
	"fx10/internal/parser"
	"fx10/internal/progen"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// recursiveSource has mutually recursive methods, so the level-1 (and
// through the call rule, level-2) constraint graphs contain genuine
// cycles: the topo solver must collapse multi-member SCCs, not just
// order a DAG.
const recursiveSource = `
array 4;
void f() {
  async { a[0] = 1; }
  g();
}
void g() {
  a[1] = 2;
  f();
}
void main() {
  finish { f(); }
  a[2] = 3;
}
`

// TestTopoEqualsPhased checks the topo strategy reaches the same
// least solution as the pass-based reference on the paper examples, a
// recursive program, and a seeded progen sweep, in both modes.
func TestTopoEqualsPhased(t *testing.T) {
	sources := []string{fixtures.Example21Source, fixtures.Example22Source, recursiveSource}
	var programs []*syntax.Program
	for _, src := range sources {
		programs = append(programs, parser.MustParse(src))
	}
	for seed := int64(300); seed < 320; seed++ {
		programs = append(programs, progen.Generate(seed, progen.Default()))
	}
	for pi, p := range programs {
		for _, mode := range []Mode{ContextSensitive, ContextInsensitive} {
			sys := Generate(labels.Compute(p), mode)
			phased := sys.Solve(Phased)
			topo := sys.Solve(Topo)
			if !phased.ValuationEqual(topo) {
				t.Fatalf("program %d (%v): topo valuation differs from phased\n%s",
					pi, mode, syntax.Print(p))
			}
			if topo.IterL1 != 0 || topo.IterL2 != 0 {
				t.Errorf("program %d (%v): topo ran pass-based phases (IterL1=%d IterL2=%d)",
					pi, mode, topo.IterL1, topo.IterL2)
			}
		}
	}
}

// TestTopoEvaluationsAtMostWorklist checks the cycle-elimination
// payoff claim: the topo solver evaluates each constraint at most
// once, so its evaluation count can never exceed the constraint count.
func TestTopoEvaluationsAtMostWorklist(t *testing.T) {
	var programs []*syntax.Program
	for _, src := range []string{fixtures.Example21Source, fixtures.Example22Source, recursiveSource} {
		programs = append(programs, parser.MustParse(src))
	}
	for seed := int64(400); seed < 420; seed++ {
		programs = append(programs, progen.Generate(seed, progen.Default()))
	}
	for pi, p := range programs {
		for _, mode := range []Mode{ContextSensitive, ContextInsensitive} {
			sys := Generate(labels.Compute(p), mode)
			_, l1, l2 := sys.Counts()
			topo := sys.Solve(Topo)
			if max := int64(l1 + l2); topo.Evaluations > max {
				t.Errorf("program %d (%v): topo evaluations %d > constraint count %d",
					pi, mode, topo.Evaluations, max)
			}
		}
	}
}

// TestTopoSharesComponentSets pins how a solution stores set values.
// Under topo a copy-elided variable holds its source's set: on
// Example 2.1, r_S1 = r_S0 (S1 is the body of the finish S0) is one
// *Set, while phased gives each variable a set of its own. Under both
// strategies FootprintBytes counts each distinct set and bag once, and
// a densified pair value is fresh on every call.
func TestTopoSharesComponentSets(t *testing.T) {
	p := fixtures.Example21()
	sys := Generate(labels.Compute(p), ContextSensitive)
	r := func(name string) SetVar {
		l, ok := p.LabelByName(name)
		if !ok {
			t.Fatalf("label %s not found", name)
		}
		return sys.StmtR[l]
	}
	topo, phased := sys.Solve(Topo), sys.Solve(Phased)
	if topo.SetValue(r("S1")) != topo.SetValue(r("S0")) {
		t.Error("topo: r_S1 and r_S0 hold two sets, want the one set they share")
	}
	if phased.SetValue(r("S1")) == phased.SetValue(r("S0")) {
		t.Error("phased: r_S1 and r_S0 share one set, want one each")
	}

	for _, src := range []string{fixtures.Example21Source, fixtures.Example22Source, recursiveSource} {
		p := parser.MustParse(src)
		for _, mode := range []Mode{ContextSensitive, ContextInsensitive} {
			sys := Generate(labels.Compute(p), mode)
			for _, alg := range []Algorithm{Topo, Phased} {
				sol := sys.Solve(alg)
				sets := map[*intset.Set]bool{}
				for _, v := range sol.setVals {
					sets[v] = true
				}
				want := len(sets) * ((p.NumLabels()+63)/64*8 + 24)
				bags := map[*uint64]bool{}
				for _, b := range sol.pairVals {
					if cap(b) > 0 && !bags[&b[:1][0]] {
						bags[&b[:1][0]] = true
						want += 8 * cap(b)
					}
				}
				if sol.FootprintBytes != want {
					t.Errorf("%v %v: FootprintBytes = %d, want %d (%d distinct sets, %d distinct bags)",
						mode, alg, sol.FootprintBytes, want, len(sets), len(bags))
				}
				for v := 0; v < sys.NumPairVars(); v++ {
					if sol.PairValue(PairVar(v)) == sol.PairValue(PairVar(v)) {
						t.Fatalf("%v %v: PairValue(%s) returned a shared pair set", mode, alg, sys.PairVarName(PairVar(v)))
					}
				}
			}
		}
	}
}

// callReach returns reach[f][g]: method g is f or one f calls,
// directly or transitively. It is built from the syntax, apart from
// the system's call graph.
func callReach(p *syntax.Program) [][]bool {
	reach := make([][]bool, len(p.Methods))
	for f := range p.Methods {
		reach[f] = make([]bool, len(p.Methods))
		stack := []int{f}
		reach[f][f] = true
		for len(stack) > 0 {
			g := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			p.Methods[g].Body.EachDeep(func(i syntax.Instr) {
				if c, ok := i.(*syntax.Call); ok && !reach[f][c.Method] {
					reach[f][c.Method] = true
					stack = append(stack, c.Method)
				}
			})
		}
	}
	return reach
}

// sameBag reports whether a and b are one stored run (or both empty).
func sameBag(a, b pairBag) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestTopoMethodBags pins how topo stores level 2, on Example 2.1,
// the recursive fixture, the 13 paper programs and a 3,000-label
// program in both modes: no statement-level pair variable is solved,
// there are no more distinct non-empty bags than call-graph SCCs,
// mutually recursive methods share one bag, and FootprintBytes is
// exactly the distinct sets and bags. Then, on all but the largest
// program, goroutines read one solution at once: statement values
// derived from its shared bags, and delta solves seeded from it, which
// share its bags. Under -race (CI repeats this test) a write to a
// shared bag is caught.
func TestTopoMethodBags(t *testing.T) {
	programs := []*syntax.Program{fixtures.Example21(), parser.MustParse(recursiveSource)}
	for _, wl := range workloads.All() {
		programs = append(programs, wl.Program())
	}
	programs = append(programs, progen.GenerateHuge(0, progen.Huge(3000)))
	for pi, p := range programs {
		reach := callReach(p)
		for _, mode := range []Mode{ContextSensitive, ContextInsensitive} {
			sys := Generate(labels.Compute(p), mode)
			sol := sys.Solve(Topo)
			for _, v := range sys.StmtM {
				if sol.pairVals[v] != nil {
					t.Fatalf("program %d (%v): statement variable %s holds a bag", pi, mode, sys.PairVarName(v))
				}
			}
			sccs := 0
			for f := range p.Methods {
				leader := true
				for g := 0; g < f && leader; g++ {
					if reach[f][g] && reach[g][f] {
						leader = false
						if !sameBag(sol.pairVals[sys.MethodM[f]], sol.pairVals[sys.MethodM[g]]) {
							t.Fatalf("program %d (%v): mutually recursive %s and %s hold different bags",
								pi, mode, p.Methods[f].Name, p.Methods[g].Name)
						}
					}
				}
				if leader {
					sccs++
				}
			}
			bags, slots := map[*uint64]bool{}, 0
			for _, b := range sol.pairVals {
				if len(b) > 0 && !bags[&b[0]] {
					bags[&b[0]] = true
					slots += cap(b)
				}
			}
			if len(bags) > sccs {
				t.Errorf("program %d (%v): %d distinct bags for %d call-graph SCCs", pi, mode, len(bags), sccs)
			}
			sets := map[*intset.Set]bool{}
			for _, v := range sol.setVals {
				sets[v] = true
			}
			if want := len(sets)*((p.NumLabels()+63)/64*8+24) + 8*slots; sol.FootprintBytes != want {
				t.Errorf("program %d (%v): FootprintBytes = %d, want %d (%d sets, %d bags of %d slots)",
					pi, mode, sol.FootprintBytes, want, len(sets), len(bags), slots)
			}
			if pi < len(programs)-1 {
				readConcurrently(t, sys, sol)
			}
		}
	}
}

// readConcurrently reads sol from four goroutines: each derives a
// share of the statement-level m values and solves a delta seeded
// from sol, which must reproduce sol.
func readConcurrently(t *testing.T, sys *System, sol *Solution) {
	t.Helper()
	want := make([]int, len(sys.StmtM))
	for l, v := range sys.StmtM {
		want[l] = sol.PairValue(v).Len()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := g; l < len(want); l += 4 {
				if got := sol.PairLen(sys.StmtM[l]); got != want[l] {
					t.Errorf("reader %d: m_%s has %d pairs, first read %d", g, sys.P.LabelName(syntax.Label(l)), got, want[l])
				}
			}
			next, _ := sys.SolveDelta(sol, []MethodID{g % len(sys.P.Methods)})
			if !next.ValuationEqual(sol) {
				t.Errorf("reader %d: delta solve seeded from the shared solution differs from it", g)
			}
		}()
	}
	wg.Wait()
}

// TestTopoElidesCopies pins that copy elision actually fires: on the
// worked examples the topo solver must evaluate strictly fewer
// constraints than exist (straight-line programs are full of
// single-inflow copy variables).
func TestTopoElidesCopies(t *testing.T) {
	p := parser.MustParse(fixtures.Example21Source)
	sys := Generate(labels.Compute(p), ContextSensitive)
	_, l1, l2 := sys.Counts()
	topo := sys.Solve(Topo)
	if total := int64(l1 + l2); topo.Evaluations >= total {
		t.Fatalf("no copy elision: %d evaluations for %d constraints", topo.Evaluations, total)
	}
}

// TestParallelSmokeHugeTier checks the served solver against the
// reference at the huge tier: a 4000-label generated program (many
// methods, deep call chains, the shape the daemon's heaviest requests
// take) must reach the same valuation under topo as under phased.
func TestParallelSmokeHugeTier(t *testing.T) {
	p := progen.GenerateHuge(1, progen.Huge(4000))
	if n := p.NumLabels(); n < 4000 {
		t.Fatalf("huge tier undershot target: %d labels", n)
	}
	sys := Generate(labels.Compute(p), ContextInsensitive)
	if !sys.Solve(Phased).ValuationEqual(sys.Solve(Topo)) {
		t.Fatal("topo valuation differs from phased on the huge tier")
	}
}

// buildCSR assembles a graphCSR from an explicit edge list.
func buildCSR(nv int, edges [][2]int32) graphCSR {
	g := graphCSR{off: make([]int32, nv+1)}
	for _, e := range edges {
		g.off[e[0]+1]++
	}
	for v := 1; v <= nv; v++ {
		g.off[v] += g.off[v-1]
	}
	g.edges = make([]int32, len(edges))
	pos := make([]int32, nv)
	copy(pos, g.off[:nv])
	for _, e := range edges {
		g.edges[pos[e[0]]] = e[1]
		pos[e[0]]++
	}
	return g
}

// checkSCC asserts the two invariants every condensation consumer
// relies on: the member CSR partitions the nodes (each node appears
// exactly once, in its own component's slice), and component ids are
// in reverse topological order (every cross-component edge v→w has
// comp[w] < comp[v]).
func checkSCC(t *testing.T, nv int, g graphCSR, comp []int32, ncomp int32) {
	t.Helper()
	members := memberCSR(comp, ncomp)
	seen := make([]bool, nv)
	for c := int32(0); c < ncomp; c++ {
		for _, v := range members.edges[members.off[c]:members.off[c+1]] {
			if comp[v] != c {
				t.Fatalf("member CSR: node %d listed under component %d but comp[%d]=%d", v, c, v, comp[v])
			}
			if seen[v] {
				t.Fatalf("member CSR: node %d listed twice", v)
			}
			seen[v] = true
		}
	}
	for v, s := range seen {
		if !s {
			t.Fatalf("member CSR: node %d missing", v)
		}
	}
	for v := 0; v < nv; v++ {
		for _, w := range g.edges[g.off[v]:g.off[v+1]] {
			if comp[w] != comp[v] && comp[w] >= comp[v] {
				t.Fatalf("edge %d→%d violates reverse topological ids: comp %d → %d", v, w, comp[v], comp[w])
			}
		}
	}
}

// TestTarjanSCCAdversarial drives the iterative Tarjan on shapes that
// stress it structurally: a single giant cycle (one big SCC), a long
// path (the recursion-depth proxy — a recursive Tarjan would blow its
// stack here), star fan-out and fan-in (wide shallow DAGs), and the
// empty graph.
func TestTarjanSCCAdversarial(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		comp, ncomp := tarjanSCC(0, buildCSR(0, nil))
		if ncomp != 0 || len(comp) != 0 {
			t.Fatalf("empty graph: got %d components over %d nodes", ncomp, len(comp))
		}
	})

	t.Run("giant-cycle", func(t *testing.T) {
		const n = 5000
		edges := make([][2]int32, n)
		for i := range edges {
			edges[i] = [2]int32{int32(i), int32((i + 1) % n)}
		}
		g := buildCSR(n, edges)
		comp, ncomp := tarjanSCC(n, g)
		if ncomp != 1 {
			t.Fatalf("giant cycle: got %d components, want 1", ncomp)
		}
		checkSCC(t, n, g, comp, ncomp)
	})

	t.Run("long-path", func(t *testing.T) {
		const n = 200000
		edges := make([][2]int32, n-1)
		for i := range edges {
			edges[i] = [2]int32{int32(i), int32(i + 1)}
		}
		g := buildCSR(n, edges)
		comp, ncomp := tarjanSCC(n, g)
		if int(ncomp) != n {
			t.Fatalf("long path: got %d components, want %d", ncomp, n)
		}
		checkSCC(t, n, g, comp, ncomp)
	})

	t.Run("star-fan-out", func(t *testing.T) {
		const n = 10000
		edges := make([][2]int32, n-1)
		for i := range edges {
			edges[i] = [2]int32{0, int32(i + 1)}
		}
		g := buildCSR(n, edges)
		comp, ncomp := tarjanSCC(n, g)
		if int(ncomp) != n {
			t.Fatalf("fan-out: got %d components, want %d", ncomp, n)
		}
		checkSCC(t, n, g, comp, ncomp)
	})

	t.Run("star-fan-in", func(t *testing.T) {
		const n = 10000
		edges := make([][2]int32, n-1)
		for i := range edges {
			edges[i] = [2]int32{int32(i + 1), 0}
		}
		g := buildCSR(n, edges)
		comp, ncomp := tarjanSCC(n, g)
		if int(ncomp) != n {
			t.Fatalf("fan-in: got %d components, want %d", ncomp, n)
		}
		checkSCC(t, n, g, comp, ncomp)
	})
}
