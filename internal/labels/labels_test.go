package labels

import (
	"testing"

	"fx10/internal/fixtures"
	"fx10/internal/intset"
	"fx10/internal/parser"
	"fx10/internal/syntax"
	"fx10/internal/tree"
)

// names converts a label set to a set of display names for readable
// comparisons.
func names(p *syntax.Program, s *intset.Set) map[string]bool {
	out := map[string]bool{}
	s.Each(func(e int) { out[p.LabelName(syntax.Label(e))] = true })
	return out
}

func wantNames(t *testing.T, p *syntax.Program, got *intset.Set, want ...string) {
	t.Helper()
	g := names(p, got)
	if len(g) != len(want) {
		t.Fatalf("got %v, want %v", g, want)
	}
	for _, w := range want {
		if !g[w] {
			t.Fatalf("got %v, want %v", g, want)
		}
	}
}

func TestSlabelsExample22(t *testing.T) {
	p := fixtures.Example22()
	in := Compute(p)
	fi, _ := p.MethodIndex("f")
	wantNames(t, p, in.MethodLabels(fi), "A5", "S5")
	mi, _ := p.MethodIndex("main")
	wantNames(t, p, in.MethodLabels(mi),
		"S1", "S2", "A3", "S3", "A4", "S4", "A5", "S5", "C1", "C2")
	if in.Iterations < 2 {
		t.Fatalf("Iterations = %d, want at least 2 (one growth + one stable pass)", in.Iterations)
	}
}

func TestSlabelsRecursion(t *testing.T) {
	p := parser.MustParse(`
void main() { M: even(); }
void even() { E: odd(); }
void odd()  { O: even(); }
`)
	in := Compute(p)
	ei, _ := p.MethodIndex("even")
	oi, _ := p.MethodIndex("odd")
	mi, _ := p.MethodIndex("main")
	// Mutually recursive methods see each other's labels; the
	// fixpoint must terminate.
	wantNames(t, p, in.MethodLabels(ei), "E", "O")
	wantNames(t, p, in.MethodLabels(oi), "E", "O")
	wantNames(t, p, in.MethodLabels(mi), "M", "E", "O")
}

func TestSlabelsStatement(t *testing.T) {
	p := fixtures.Example21()
	in := Compute(p)
	// Slabels of the async S1's body: the inner finish and everything
	// in it, plus S8.
	var body *syntax.Stmt
	p.Main().Body.EachDeep(func(i syntax.Instr) {
		if a, ok := i.(*syntax.Async); ok && p.LabelName(a.L) == "S1" {
			body = a.Body
		}
	})
	if body == nil {
		t.Fatalf("async S1 not found")
	}
	wantNames(t, p, in.Slabels(body), "S13", "S5", "S6", "S7", "S8", "S11", "S12")
	// Each call builds a set the caller owns: repeats are equal, and
	// mutating one does not change what the next call returns.
	got := in.Slabels(body)
	if !got.Equal(in.Slabels(body)) {
		t.Fatalf("Slabels not deterministic")
	}
	got.Clear()
	wantNames(t, p, in.Slabels(body), "S13", "S5", "S6", "S7", "S8", "S11", "S12")
}

// Lemma 7.11: Slabels(s1 . s2) = Slabels(s1) ∪ Slabels(s2).
func TestSlabelsSeqLemma(t *testing.T) {
	p := fixtures.Example22()
	in := Compute(p)
	s1 := p.Main().Body     // main body
	s2 := p.Methods[0].Body // f body (methods[0] is f)
	if p.Methods[0].Name != "f" {
		s2 = p.Methods[1].Body
	}
	seq := syntax.Seq(s1, s2)
	want := in.Slabels(s1).Clone()
	want.UnionWith(in.Slabels(s2))
	if !in.Slabels(seq).Equal(want) {
		t.Fatalf("Slabels(s1.s2) = %v, want %v", in.Slabels(seq), want)
	}
}

func TestFSlabels(t *testing.T) {
	p := fixtures.Example22()
	in := Compute(p)
	wantNames(t, p, in.FSlabels(p.Main().Body), "S1")
}

// Lemma 7.12: FSlabels(s) ⊆ Slabels(s).
func TestFSlabelsSubsetSlabels(t *testing.T) {
	p := fixtures.Example21()
	in := Compute(p)
	for _, m := range p.Methods {
		if !in.FSlabels(m.Body).SubsetOf(in.Slabels(m.Body)) {
			t.Fatalf("FSlabels ⊄ Slabels for method %s", m.Name)
		}
	}
}

func TestTlabelsAndFTlabels(t *testing.T) {
	p := fixtures.Example22()
	in := Compute(p)
	fBody := p.Methods[0].Body
	if p.Methods[0].Name != "f" {
		fBody = p.Methods[1].Body
	}
	mainBody := p.Main().Body

	lf := tree.NewLeaf(fBody)
	lm := tree.NewLeaf(mainBody)

	// Tlabels(⟨s⟩) = Slabels(s); Tlabels(√) = ∅.
	if !in.Tlabels(lf).Equal(in.Slabels(fBody)) {
		t.Fatalf("Tlabels(leaf) != Slabels")
	}
	if !in.Tlabels(tree.Done).Empty() {
		t.Fatalf("Tlabels(√) not empty")
	}

	par := &tree.Par{L: lf, R: lm}
	fin := &tree.Fin{L: lf, R: lm}

	// Tlabels distributes over ∥ and ▷.
	both := in.Tlabels(lf)
	both.UnionWith(in.Tlabels(lm))
	if !in.Tlabels(par).Equal(both) || !in.Tlabels(fin).Equal(both) {
		t.Fatalf("Tlabels over ∥/▷ wrong")
	}

	// FTlabels: ∥ takes both sides, ▷ only the left.
	wantNames(t, p, in.FTlabels(par), "A5", "S1")
	wantNames(t, p, in.FTlabels(fin), "A5")
	if !in.FTlabels(tree.Done).Empty() {
		t.Fatalf("FTlabels(√) not empty")
	}

	// Lemma 7.13: FTlabels(T) ⊆ Tlabels(T).
	for _, tr := range []tree.Tree{lf, lm, par, fin, tree.Done} {
		if !in.FTlabels(tr).SubsetOf(in.Tlabels(tr)) {
			t.Fatalf("FTlabels ⊄ Tlabels for %s", tree.String(p, tr))
		}
	}
}

func TestParallel(t *testing.T) {
	p := fixtures.Example22()
	in := Compute(p)
	fBody := p.Methods[0].Body
	if p.Methods[0].Name != "f" {
		fBody = p.Methods[1].Body
	}
	mainBody := p.Main().Body
	lf, lm := tree.NewLeaf(fBody), tree.NewLeaf(mainBody)

	// parallel(√) = parallel(⟨s⟩) = ∅.
	if !in.Parallel(tree.Done).Empty() || !in.Parallel(lf).Empty() {
		t.Fatalf("parallel of √ or leaf not empty")
	}

	// parallel(T1 ∥ T2) includes symcross of the first labels.
	par := &tree.Par{L: lf, R: lm}
	pp := in.Parallel(par)
	a5, _ := p.LabelByName("A5")
	s1, _ := p.LabelByName("S1")
	if !pp.Has(int(a5), int(s1)) || !pp.Has(int(s1), int(a5)) {
		t.Fatalf("parallel(∥) missing (A5,S1): %v", pp)
	}
	if pp.Len() != 2 {
		t.Fatalf("parallel(∥) = %v, want exactly the (A5,S1) pair", pp)
	}

	// parallel(T1 ▷ T2) = parallel(T1): the right side contributes
	// nothing until the left completes.
	fin := &tree.Fin{L: par, R: lm}
	if !in.Parallel(fin).Equal(pp) {
		t.Fatalf("parallel(▷) != parallel(left)")
	}

	// Nested: ((a ∥ b) ∥ c) pairs everything pointwise.
	par3 := &tree.Par{L: par, R: tree.NewLeaf(fBody)}
	p3 := in.Parallel(par3)
	if !p3.Has(int(a5), int(a5)) {
		t.Fatalf("parallel missing self-pair for two copies of f: %v", p3)
	}
}

func TestCrossHelpers(t *testing.T) {
	p := fixtures.Example22()
	in := Compute(p)
	n := p.NumLabels()
	a5, _ := p.LabelByName("A5")
	s5, _ := p.LabelByName("S5")
	s1, _ := p.LabelByName("S1")

	// Symcross.
	sc := in.Symcross(intset.Of(n, int(a5)), intset.Of(n, int(s1)))
	if !sc.Has(int(a5), int(s1)) || !sc.Has(int(s1), int(a5)) || sc.Len() != 2 {
		t.Fatalf("Symcross wrong: %v", sc)
	}

	// AddLcross.
	dst := intset.NewPairs(n)
	if !in.AddLcross(dst, a5, intset.Of(n, int(s1))) {
		t.Fatalf("AddLcross reported no change")
	}
	if !dst.Has(int(a5), int(s1)) {
		t.Fatalf("AddLcross missing pair")
	}

	// AddScross uses Slabels of the statement.
	fBody := p.Methods[0].Body
	if p.Methods[0].Name != "f" {
		fBody = p.Methods[1].Body
	}
	dst2 := intset.NewPairs(n)
	in.AddScross(dst2, fBody, intset.Of(n, int(s1)))
	if !dst2.Has(int(a5), int(s1)) || !dst2.Has(int(s5), int(s1)) {
		t.Fatalf("AddScross missing pairs: %v", dst2)
	}

	// AddTcross over a tree leaf equals AddScross (Lemma 7.18).
	dst3 := intset.NewPairs(n)
	in.AddTcross(dst3, tree.NewLeaf(fBody), intset.Of(n, int(s1)))
	if !dst3.Equal(dst2) {
		t.Fatalf("Tcross(⟨s⟩) != Scross(s)")
	}
}

func TestWhileBodySlabels(t *testing.T) {
	p := parser.MustParse(`
void main() {
  W: while (a[0] != 0) {
    B: async { I: skip; }
  }
  T: skip;
}
`)
	in := Compute(p)
	mi, _ := p.MethodIndex("main")
	wantNames(t, p, in.MethodLabels(mi), "W", "B", "I", "T")
}
