package intset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPairAddHas(t *testing.T) {
	p := NewPairs(70)
	if p.Has(1, 2) {
		t.Fatalf("Has before Add")
	}
	if !p.Add(1, 2) {
		t.Fatalf("Add reported no change")
	}
	if p.Add(1, 2) {
		t.Fatalf("second Add reported change")
	}
	if !p.Has(1, 2) || p.Has(2, 1) {
		t.Fatalf("ordered Add should not add the mirror")
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d, want 1", p.Len())
	}
}

func TestPairAddSym(t *testing.T) {
	p := NewPairs(10)
	p.AddSym(3, 7)
	if !p.Has(3, 7) || !p.Has(7, 3) {
		t.Fatalf("AddSym missing an orientation")
	}
	if !p.Symmetric() {
		t.Fatalf("Symmetric() = false after AddSym")
	}
	p.AddSym(5, 5)
	if !p.Has(5, 5) {
		t.Fatalf("diagonal AddSym missing")
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3", p.Len())
	}
}

func TestPairHasOutOfRange(t *testing.T) {
	p := NewPairs(4)
	if p.Has(-1, 0) || p.Has(0, 4) || p.Has(4, 4) {
		t.Fatalf("out-of-range Has should be false")
	}
}

// CrossSym must equal the reference definition
// symcross(A,B) = (A × B) ∪ (B × A)  — equation (37) of the paper.
func TestCrossSymReference(t *testing.T) {
	const n = 67
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		a, b := New(n), New(n)
		for i := 0; i < rng.Intn(20); i++ {
			a.Add(rng.Intn(n))
		}
		for i := 0; i < rng.Intn(20); i++ {
			b.Add(rng.Intn(n))
		}
		got := NewPairs(n)
		got.CrossSym(a, b)

		want := NewPairs(n)
		for _, i := range a.Elems() {
			for _, j := range b.Elems() {
				want.Add(i, j)
				want.Add(j, i)
			}
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: CrossSym(%v,%v) = %v, want %v", trial, a, b, got, want)
		}
		if !got.Symmetric() {
			t.Fatalf("trial %d: CrossSym result not symmetric", trial)
		}
	}
}

func TestCrossSymChangeReporting(t *testing.T) {
	const n = 32
	a := Of(n, 1, 2)
	b := Of(n, 3)
	p := NewPairs(n)
	if !p.CrossSym(a, b) {
		t.Fatalf("first CrossSym reported no change")
	}
	if p.CrossSym(a, b) {
		t.Fatalf("repeated CrossSym reported change")
	}
}

func TestCrossSymEmptyOperand(t *testing.T) {
	const n = 16
	p := NewPairs(n)
	if p.CrossSym(Of(n, 1, 2), New(n)) {
		t.Fatalf("CrossSym with empty operand changed the set")
	}
	if !p.Empty() {
		t.Fatalf("CrossSym with empty operand produced pairs: %v", p)
	}
}

func TestPairUnionSubsetEqual(t *testing.T) {
	p := NewPairs(16)
	p.AddSym(1, 2)
	q := NewPairs(16)
	q.AddSym(1, 2)
	q.AddSym(3, 4)
	if !p.SubsetOf(q) {
		t.Fatalf("p ⊆ q expected")
	}
	if q.SubsetOf(p) {
		t.Fatalf("q ⊆ p unexpected")
	}
	if !p.UnionWith(q) {
		t.Fatalf("UnionWith reported no change")
	}
	if !p.Equal(q) {
		t.Fatalf("p != q after union: %v vs %v", p, q)
	}
	if p.UnionWith(q) {
		t.Fatalf("idempotent UnionWith reported change")
	}
}

func TestPairCloneClearEach(t *testing.T) {
	p := NewPairs(8)
	p.Add(1, 2)
	p.Add(0, 7)
	c := p.Clone()
	c.Add(3, 3)
	if p.Has(3, 3) {
		t.Fatalf("mutating clone changed original")
	}
	var got [][2]int
	p.Each(func(i, j int) { got = append(got, [2]int{i, j}) })
	want := [][2]int{{0, 7}, {1, 2}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Each = %v, want %v", got, want)
	}
}

func TestPairRow(t *testing.T) {
	p := NewPairs(100)
	p.Add(5, 1)
	p.Add(5, 99)
	p.Add(6, 2)
	r := p.Row(5)
	if got := r.String(); got != "{1, 99}" {
		t.Fatalf("Row(5) = %s, want {1, 99}", got)
	}
	r.Add(50) // row copies must be independent
	if p.Has(5, 50) {
		t.Fatalf("mutating Row result changed pair set")
	}
}

func TestRowIntersects(t *testing.T) {
	p := NewPairs(64)
	p.Add(3, 10)
	if !p.RowIntersects(3, Of(64, 10, 11)) {
		t.Fatalf("RowIntersects should be true")
	}
	if p.RowIntersects(3, Of(64, 11)) {
		t.Fatalf("RowIntersects should be false")
	}
	if p.RowIntersects(4, Of(64, 10)) {
		t.Fatalf("empty row should not intersect")
	}
}

func TestPairString(t *testing.T) {
	p := NewPairs(4)
	p.Add(1, 2)
	if got := p.String(); got != "{(1,2)}" {
		t.Fatalf("String = %q", got)
	}
}

func TestQuickPairAlgebra(t *testing.T) {
	const n = 40
	mk := func(ps [][2]uint8) *PairSet {
		p := NewPairs(n)
		for _, pr := range ps {
			p.AddSym(int(pr[0])%n, int(pr[1])%n)
		}
		return p
	}
	commutative := func(xs, ys [][2]uint8) bool {
		a, b := mk(xs), mk(ys)
		ab := a.Clone()
		ab.UnionWith(b)
		ba := b.Clone()
		ba.UnionWith(a)
		return ab.Equal(ba)
	}
	if err := quick.Check(commutative, nil); err != nil {
		t.Errorf("pair union not commutative: %v", err)
	}
	symPreserved := func(xs [][2]uint8) bool {
		return mk(xs).Symmetric()
	}
	if err := quick.Check(symPreserved, nil); err != nil {
		t.Errorf("AddSym does not preserve symmetry: %v", err)
	}
}

func TestPairRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 73
	p := NewPairs(n)
	ref := map[[2]int]bool{}
	for i := 0; i < 5000; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		switch rng.Intn(2) {
		case 0:
			p.Add(a, b)
			ref[[2]int{a, b}] = true
		case 1:
			if p.Has(a, b) != ref[[2]int{a, b}] {
				t.Fatalf("step %d: Has(%d,%d) mismatch", i, a, b)
			}
		}
	}
	if p.Len() != len(ref) {
		t.Fatalf("Len = %d, ref %d", p.Len(), len(ref))
	}
}

func TestMemoryFootprint(t *testing.T) {
	p := NewPairs(128)
	// 128 rows × 2 words × 8 bytes
	if got := p.MemoryFootprint(); got != 128*2*8 {
		t.Fatalf("MemoryFootprint = %d, want %d", got, 128*2*8)
	}
}
