package constraints

import (
	"math/rand"
	"slices"
	"testing"

	"fx10/internal/intset"
	"fx10/internal/syntax"
)

// checkBag fails unless b is a sorted, duplicate-free run holding
// exactly the pairs of want.
func checkBag(t *testing.T, what string, b pairBag, want *intset.PairSet) {
	t.Helper()
	for k := 1; k < len(b); k++ {
		if b[k] <= b[k-1] {
			t.Fatalf("%s: run not strictly increasing at %d: %#x after %#x", what, k, b[k], b[k-1])
		}
	}
	if got := b.toPairSet(want.Universe()); !got.Equal(want) || len(b) != want.Len() {
		t.Fatalf("%s: bag %v (%d pairs), oracle %v", what, got, len(b), want)
	}
}

// randomBag returns a bag of up to k random pairs over n labels, built
// through unionWith, and the same pairs as an oracle pair set.
func randomBag(rng *rand.Rand, n, k int) (pairBag, *intset.PairSet) {
	var b pairBag
	oracle := intset.NewPairs(n)
	for c := rng.Intn(k + 1); c > 0; c-- {
		i, j := rng.Intn(n), rng.Intn(n)
		b.unionWith(pairBag{pairKey(i, j)})
		oracle.Add(i, j)
	}
	return b, oracle
}

func randomSet(rng *rand.Rand, n int) *intset.Set {
	s := intset.New(n)
	for c := rng.Intn(n + 1); c > 0; c-- {
		s.Add(rng.Intn(n))
	}
	return s
}

// TestPairBagMatchesPairSet checks every bag operation against
// intset.PairSet: random unions, crossSym and crossLabel with and
// without a phase vector, and monotone and non-monotone remaps. Inputs must come out
// unchanged, since solved bags are shared.
func TestPairBagMatchesPairSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		n := 1 + rng.Intn(40)

		x, xo := randomBag(rng, n, 3*n)
		y, yo := randomBag(rng, n, 3*n)
		checkBag(t, "random bag", x, xo)
		x0, y0 := slices.Clone(x), slices.Clone(y)
		u := x
		changed := u.unionWith(y)
		uo := xo.Clone()
		if want := uo.UnionWith(yo); changed != want {
			t.Fatalf("unionWith reported change %v, oracle %v", changed, want)
		}
		checkBag(t, "union", u, uo)
		if !slices.Equal(x, x0) || !slices.Equal(y, y0) {
			t.Fatal("unionWith modified an operand")
		}

		a, bb := randomSet(rng, n), randomSet(rng, n)
		var phase []int32
		if iter%2 == 1 {
			phase = make([]int32, n)
			for i := range phase {
				phase[i] = int32(rng.Intn(4)) - 1 // -1 is an unknown phase
			}
		}
		unordered := func(i, j int) bool {
			return phase == nil || phase[i] < 0 || phase[j] < 0 || phase[i] == phase[j]
		}
		want := yo.Clone()
		a.Each(func(i int) {
			bb.Each(func(j int) {
				if unordered(i, j) {
					want.AddSym(i, j)
				}
			})
		})
		c := y
		changed = c.crossSym(a, bb, phase)
		if changed != !want.Equal(yo) {
			t.Fatalf("crossSym reported change %v, oracle %v", changed, !want.Equal(yo))
		}
		checkBag(t, "crossSym", c, want)
		if !slices.Equal(y, y0) {
			t.Fatal("crossSym modified its receiver's old run")
		}

		// crossLabel(l, B) is symcross({l}, B), and cross dispatches an
		// Lcross term to it.
		l := rng.Intn(n)
		sym := intset.NewPairs(n)
		sym.CrossSym(intset.Of(n, l), bb)
		want = yo.Clone()
		sym.Each(func(i, j int) {
			if unordered(i, j) {
				want.Add(i, j)
			}
		})
		c = y
		changed = c.crossLabel(l, bb, phase)
		if changed != !want.Equal(yo) {
			t.Fatalf("crossLabel reported change %v, oracle %v", changed, !want.Equal(yo))
		}
		checkBag(t, "crossLabel", c, want)
		c = y
		c.cross(&CrossTerm{Kind: KLcross, Label: syntax.Label(l), Var: 0}, []*intset.Set{bb}, phase)
		checkBag(t, "cross(Lcross)", c, want)
		if !slices.Equal(y, y0) {
			t.Fatal("crossLabel modified its receiver's old run")
		}

		// A monotone remap (an injection that keeps label order), then
		// an arbitrary permutation.
		m := n + rng.Intn(10)
		mono := rng.Perm(m)[:n]
		slices.Sort(mono)
		perm := rng.Perm(n)
		for _, remap := range [][]int{mono, perm} {
			got, ok := remapBag(x, remap)
			if !ok {
				t.Fatal("remapBag rejected a total remap")
			}
			want := intset.NewPairs(m)
			xo.Each(func(i, j int) { want.Add(remap[i], remap[j]) })
			checkBag(t, "remap", got, want)
		}
		if !slices.Equal(x, x0) {
			t.Fatal("remapBag modified its source")
		}
		if len(x) > 0 {
			partial := slices.Clone(perm)
			partial[int(x[0]>>32)] = -1
			if _, ok := remapBag(x, partial); ok {
				t.Fatal("remapBag accepted an unmapped label")
			}
		}
	}
}
