package constraints

import (
	"testing"

	"fx10/internal/fixtures"
	"fx10/internal/labels"
	"fx10/internal/parser"
	"fx10/internal/progen"
	"fx10/internal/syntax"
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

// TestTopoAliasingPointerDistinct checks that the SCC collapse and
// copy elision stay internal: the materialized valuation hands every
// set variable its own Set, so no sharing is visible to callers even
// though whole alias chains were solved as one value. (Pair variables
// are never exposed by reference — PairValue densifies a fresh copy —
// so aliased bags are unobservable by construction; the set side is
// where accidental sharing could leak.)
func TestTopoAliasingPointerDistinct(t *testing.T) {
	for _, src := range []string{fixtures.Example21Source, fixtures.Example22Source, recursiveSource} {
		p := parser.MustParse(src)
		for _, mode := range []Mode{ContextSensitive, ContextInsensitive} {
			sys := Generate(labels.Compute(p), mode)
			topo := sys.Solve(Topo)
			if !topo.ValuationEqual(sys.Solve(Phased)) {
				t.Fatalf("%v: topo valuation differs from phased", mode)
			}
			ptrs := map[interface{}]SetVar{}
			for v := 0; v < sys.NumSetVars(); v++ {
				s := topo.SetValue(SetVar(v))
				if s == nil {
					t.Fatalf("%v: set variable %s has nil value", mode, sys.SetVarNames[v])
				}
				if prev, dup := ptrs[s]; dup {
					t.Fatalf("%v: set variables %s and %s share one *Set",
						mode, sys.SetVarNames[prev], sys.SetVarNames[v])
				}
				ptrs[s] = SetVar(v)
			}
			// Densified pair values are fresh per call.
			for v := 0; v < sys.NumPairVars(); v++ {
				if topo.PairValue(PairVar(v)) == topo.PairValue(PairVar(v)) {
					t.Fatalf("%v: PairValue(%s) returned a shared pair set", mode, sys.PairVarNames[v])
				}
			}
		}
	}
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
