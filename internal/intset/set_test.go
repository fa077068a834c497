package intset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if !s.Empty() {
		t.Fatalf("New(100) not empty: %v", s)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if s.Universe() != 100 {
		t.Fatalf("Universe = %d, want 100", s.Universe())
	}
}

func TestNewZeroUniverse(t *testing.T) {
	s := New(0)
	if !s.Empty() || s.Len() != 0 {
		t.Fatalf("zero-universe set should be empty")
	}
	if s.Has(0) {
		t.Fatalf("Has(0) on empty universe should be false")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddHasRemove(t *testing.T) {
	s := New(130) // spans three words
	for _, e := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Has(e) {
			t.Fatalf("Has(%d) before Add", e)
		}
		if !s.Add(e) {
			t.Fatalf("Add(%d) reported no change", e)
		}
		if s.Add(e) {
			t.Fatalf("second Add(%d) reported change", e)
		}
		if !s.Has(e) {
			t.Fatalf("Has(%d) after Add", e)
		}
	}
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
	if !s.Remove(64) {
		t.Fatalf("Remove(64) reported no change")
	}
	if s.Remove(64) {
		t.Fatalf("second Remove(64) reported change")
	}
	if s.Has(64) {
		t.Fatalf("Has(64) after Remove")
	}
	if s.Len() != 7 {
		t.Fatalf("Len = %d after Remove, want 7", s.Len())
	}
}

func TestHasOutOfRange(t *testing.T) {
	s := Of(10, 3)
	if s.Has(-1) || s.Has(10) || s.Has(100) {
		t.Fatalf("Has out of range should be false")
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Add out of range did not panic")
		}
	}()
	New(10).Add(10)
}

func TestUnionWith(t *testing.T) {
	a := Of(200, 1, 5, 100)
	b := Of(200, 5, 150, 199)
	if !a.UnionWith(b) {
		t.Fatalf("UnionWith reported no change")
	}
	want := []int{1, 5, 100, 150, 199}
	got := a.Sorted()
	if len(got) != len(want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("union = %v, want %v", got, want)
		}
	}
	if a.UnionWith(b) {
		t.Fatalf("idempotent UnionWith reported change")
	}
}

func TestIntersectAndDifference(t *testing.T) {
	a := Of(64, 1, 2, 3, 40)
	b := Of(64, 2, 3, 50)
	c := a.Clone()
	c.IntersectWith(b)
	if got := c.String(); got != "{2, 3}" {
		t.Fatalf("intersect = %s, want {2, 3}", got)
	}
}

func TestSubsetEqual(t *testing.T) {
	a := Of(64, 1, 2)
	b := Of(64, 1, 2, 3)
	if !a.SubsetOf(b) {
		t.Fatalf("a ⊆ b expected")
	}
	if b.SubsetOf(a) {
		t.Fatalf("b ⊆ a unexpected")
	}
	if a.Equal(b) {
		t.Fatalf("a == b unexpected")
	}
	if !a.Equal(a.Clone()) {
		t.Fatalf("a == clone(a) expected")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Of(64, 1)
	b := a.Clone()
	b.Add(2)
	if a.Has(2) {
		t.Fatalf("mutating clone changed original")
	}
}

func TestClear(t *testing.T) {
	a := Of(64, 1, 2, 3)
	a.Clear()
	if !a.Empty() {
		t.Fatalf("Clear left elements: %v", a)
	}
}

func TestEachOrder(t *testing.T) {
	a := Of(200, 150, 3, 64, 63)
	var got []int
	a.Each(func(e int) { got = append(got, e) })
	want := []int{3, 63, 64, 150}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Each order = %v, want %v", got, want)
		}
	}
}

func TestStringEmpty(t *testing.T) {
	if got := New(5).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

func TestMismatchedUniversePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("mismatched UnionWith did not panic")
		}
	}()
	New(10).UnionWith(New(20))
}

// Property: union is commutative, associative, idempotent, and has the
// empty set as identity.
func TestQuickSetAlgebra(t *testing.T) {
	const n = 96
	mk := func(elems []uint8) *Set {
		s := New(n)
		for _, e := range elems {
			s.Add(int(e) % n)
		}
		return s
	}
	commutative := func(xs, ys []uint8) bool {
		a, b := mk(xs), mk(ys)
		ab := a.Clone()
		ab.UnionWith(b)
		ba := b.Clone()
		ba.UnionWith(a)
		return ab.Equal(ba)
	}
	if err := quick.Check(commutative, nil); err != nil {
		t.Errorf("union not commutative: %v", err)
	}
	associative := func(xs, ys, zs []uint8) bool {
		a, b, c := mk(xs), mk(ys), mk(zs)
		l := a.Clone()
		l.UnionWith(b)
		l.UnionWith(c)
		bc := b.Clone()
		bc.UnionWith(c)
		r := a.Clone()
		r.UnionWith(bc)
		return l.Equal(r)
	}
	if err := quick.Check(associative, nil); err != nil {
		t.Errorf("union not associative: %v", err)
	}
	idempotent := func(xs []uint8) bool {
		a := mk(xs)
		b := a.Clone()
		b.UnionWith(a)
		return b.Equal(a)
	}
	if err := quick.Check(idempotent, nil); err != nil {
		t.Errorf("union not idempotent: %v", err)
	}
	identity := func(xs []uint8) bool {
		a := mk(xs)
		b := a.Clone()
		changed := b.UnionWith(New(n))
		return !changed && b.Equal(a)
	}
	if err := quick.Check(identity, nil); err != nil {
		t.Errorf("empty not identity: %v", err)
	}
}

// Property: Len agrees with a reference count and Elems round-trips.
func TestQuickLenElems(t *testing.T) {
	f := func(xs []uint16) bool {
		const n = 300
		s := New(n)
		ref := map[int]bool{}
		for _, x := range xs {
			e := int(x) % n
			s.Add(e)
			ref[e] = true
		}
		if s.Len() != len(ref) {
			return false
		}
		for _, e := range s.Elems() {
			if !ref[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 257
	s := New(n)
	ref := map[int]bool{}
	for i := 0; i < 5000; i++ {
		e := rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			s.Add(e)
			ref[e] = true
		case 1:
			s.Remove(e)
			delete(ref, e)
		case 2:
			if s.Has(e) != ref[e] {
				t.Fatalf("step %d: Has(%d) = %v, ref %v", i, e, s.Has(e), ref[e])
			}
		}
	}
	if s.Len() != len(ref) {
		t.Fatalf("final Len = %d, ref %d", s.Len(), len(ref))
	}
}
