package intset

import (
	"math/rand"
	"testing"
)

// pairModel is the naive reference implementation the dense PairSet is
// checked against: a map of ordered pairs with the set-theoretic
// definitions of AddSym, UnionWith and CrossSym written out directly.
type pairModel map[[2]int]bool

func (m pairModel) addSym(i, j int) bool {
	changed := !m[[2]int{i, j}] || !m[[2]int{j, i}]
	m[[2]int{i, j}] = true
	m[[2]int{j, i}] = true
	return changed
}

func (m pairModel) unionWith(o pairModel) bool {
	changed := false
	for k := range o {
		if !m[k] {
			m[k] = true
			changed = true
		}
	}
	return changed
}

func (m pairModel) crossSym(a, b []int) bool {
	changed := false
	for _, i := range a {
		for _, j := range b {
			if !m[[2]int{i, j}] {
				m[[2]int{i, j}] = true
				changed = true
			}
			if !m[[2]int{j, i}] {
				m[[2]int{j, i}] = true
				changed = true
			}
		}
	}
	return changed
}

func (m pairModel) equalPairSet(t *testing.T, p *PairSet) {
	t.Helper()
	if p.Len() != len(m) {
		t.Fatalf("Len() = %d, model has %d pairs", p.Len(), len(m))
	}
	for k := range m {
		if !p.Has(k[0], k[1]) {
			t.Fatalf("model pair (%d,%d) missing from PairSet", k[0], k[1])
		}
	}
}

// randomSet returns a random subset of {0,…,n-1} with the given
// density, as both a Set and its element slice. density 0 exercises
// the empty-operand fast paths.
func randomSet(rng *rand.Rand, n int, density float64) (*Set, []int) {
	s := New(n)
	var elems []int
	for e := 0; e < n; e++ {
		if rng.Float64() < density {
			s.Add(e)
			elems = append(elems, e)
		}
	}
	return s, elems
}

// TestPairSetPropertyModel drives PairSet.CrossSym, UnionWith and
// AddSym against the map model on seeded random set pairs across
// several universe sizes, including the empty-operand and self-cross
// edge cases the word-level fast paths special-case. Every operation's
// change report must agree with the model's, and the full contents
// must agree after every step.
func TestPairSetPropertyModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	universes := []int{1, 3, 17, 64, 65, 130}
	const rounds = 200

	for _, n := range universes {
		p := NewPairs(n)
		model := pairModel{}
		for round := 0; round < rounds; round++ {
			// Density 0 forces empty operands regularly.
			density := []float64{0, 0.05, 0.3, 0.9}[rng.Intn(4)]
			a, aElems := randomSet(rng, n, density)
			b, bElems := randomSet(rng, n, []float64{0, 0.1, 0.5}[rng.Intn(3)])

			switch rng.Intn(5) {
			case 0: // symmetric cross of two fresh sets
				got := p.CrossSym(a, b)
				want := model.crossSym(aElems, bElems)
				if got != want {
					t.Fatalf("n=%d round=%d: CrossSym changed=%v, model=%v", n, round, got, want)
				}
			case 1: // self-cross: A × A
				got := p.CrossSym(a, a)
				want := model.crossSym(aElems, aElems)
				if got != want {
					t.Fatalf("n=%d round=%d: self CrossSym changed=%v, model=%v", n, round, got, want)
				}
				// Repeating the identical call adds nothing and must
				// report no change.
				if p.CrossSym(a, a) {
					t.Fatalf("n=%d round=%d: repeated self CrossSym reported change", n, round)
				}
			case 2: // AddSym of a random pair
				i, j := rng.Intn(n), rng.Intn(n)
				got := p.AddSym(i, j)
				want := model.addSym(i, j)
				if got != want {
					t.Fatalf("n=%d round=%d: AddSym(%d,%d) changed=%v, model=%v", n, round, i, j, got, want)
				}
			case 3: // UnionWith an independently-built pair set
				q := NewPairs(n)
				qModel := pairModel{}
				q.CrossSym(a, b)
				qModel.crossSym(aElems, bElems)
				got := p.UnionWith(q)
				want := model.unionWith(qModel)
				if got != want {
					t.Fatalf("n=%d round=%d: UnionWith changed=%v, model=%v", n, round, got, want)
				}
			case 4: // cross, mutate an operand, cross again: the
				// repeat must add the mutated operand's new pairs.
				p.CrossSym(a, b)
				model.crossSym(aElems, bElems)
				e := rng.Intn(n)
				if a.Add(e) {
					aElems = append(aElems, e)
				}
				got := p.CrossSym(a, b)
				want := model.crossSym(aElems, bElems)
				if got != want {
					t.Fatalf("n=%d round=%d: post-mutation CrossSym changed=%v, model=%v", n, round, got, want)
				}
			}
			model.equalPairSet(t, p)
		}
	}
}

// TestSetCountInvariants checks the incrementally-maintained
// population count against recomputation across every mutating op.
func TestSetCountInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	recount := func(s *Set) int {
		c := 0
		s.Each(func(int) { c++ })
		return c
	}
	for _, n := range []int{1, 64, 100} {
		s := New(n)
		o, _ := randomSet(rng, n, 0.4)
		for i := 0; i < 300; i++ {
			switch rng.Intn(5) {
			case 0:
				s.Add(rng.Intn(n))
			case 1:
				s.Remove(rng.Intn(n))
			case 2:
				s.UnionWith(o)
			case 3:
				s.IntersectWith(o)
			case 4:
				s.Clear()
			}
			if s.Len() != recount(s) {
				t.Fatalf("n=%d: cached Len %d != recount %d", n, s.Len(), recount(s))
			}
			if s.Empty() != (recount(s) == 0) {
				t.Fatalf("n=%d: Empty() inconsistent", n)
			}
		}
	}
}

// TestNewBatch checks slab-backed sets behave like independent sets.
func TestNewBatch(t *testing.T) {
	sets := NewBatch(100, 5)
	if len(sets) != 5 {
		t.Fatalf("len = %d", len(sets))
	}
	sets[0].Add(3)
	sets[1].Add(99)
	for i, s := range sets {
		if s.Universe() != 100 {
			t.Fatalf("set %d universe %d", i, s.Universe())
		}
	}
	if sets[0].Has(99) || sets[1].Has(3) || !sets[0].Has(3) || !sets[1].Has(99) {
		t.Fatal("batch sets share bits")
	}
	if sets[2].Len() != 0 {
		t.Fatal("untouched batch set non-empty")
	}
	if NewBatch(4, 0) != nil {
		t.Fatal("NewBatch(n, 0) != nil")
	}
}
