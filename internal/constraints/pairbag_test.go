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

// checkCross checks one product emitter against its oracle prod: it
// appends exactly prod, as one sorted run, after whatever its buffer
// holds or into a nil buffer, and phased's fold of that run into y
// gives y ∪ prod and reports change.
func checkCross(t *testing.T, what string, x, y pairBag, yo, prod *intset.PairSet, emit func(pairBag) pairBag) {
	t.Helper()
	prefix := slices.Clone(x)
	buf := emit(prefix)
	if !slices.Equal(buf[:len(x)], x) {
		t.Fatalf("%s: overwrote the buffer's earlier runs", what)
	}
	checkBag(t, what+" run", buf[len(x):], prod)
	run := emit(nil)
	checkBag(t, what+" run from nil", run, prod)
	want := yo.Clone()
	want.UnionWith(prod)
	c := y
	if changed := c.unionWith(run); changed != !want.Equal(yo) {
		t.Fatalf("%s: fold reported change %v, oracle %v", what, changed, !want.Equal(yo))
	}
	checkBag(t, what+" folded", c, want)
}

// TestPairBagMatchesPairSet checks every bag operation against
// intset.PairSet: random unions, crossSym and crossLabel with and
// without a phase vector, and monotone and non-monotone remaps. Inputs
// must come out unchanged, since solved bags are shared.
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
		prod := intset.NewPairs(n)
		a.Each(func(i int) {
			bb.Each(func(j int) {
				if unordered(i, j) {
					prod.AddSym(i, j)
				}
			})
		})
		checkCross(t, "crossSym", x, y, yo, prod, func(buf pairBag) pairBag { return crossSym(buf, a, bb, phase) })

		// crossLabel(l, B) is symcross({l}, B), and emitCross dispatches
		// an Lcross term to it.
		l := rng.Intn(n)
		sym := intset.NewPairs(n)
		sym.CrossSym(intset.Of(n, l), bb)
		prod = intset.NewPairs(n)
		sym.Each(func(i, j int) {
			if unordered(i, j) {
				prod.Add(i, j)
			}
		})
		checkCross(t, "crossLabel", x, y, yo, prod, func(buf pairBag) pairBag { return crossLabel(buf, l, bb, phase) })
		ct := &CrossTerm{Kind: KLcross, Label: syntax.Label(l), Var: 0}
		checkCross(t, "emitCross(Lcross)", x, y, yo, prod, func(buf pairBag) pairBag { return emitCross(buf, ct, []*intset.Set{bb}, phase) })
		if !slices.Equal(y, y0) {
			t.Fatal("a cross product modified its receiver's old run")
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

// TestRunMergerMatchesPairSet checks the merger topo builds each
// method SCC's value with: any mix of product runs and stored bags
// merges to their union, a value one stored bag already holds is that
// bag, a fresh value has cap == len, and no input run changes. One
// merger is reused throughout, as topo reuses it across SCCs.
func TestRunMergerMatchesPairSet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var m runMerger
	for iter := 0; iter < 500; iter++ {
		n := 1 + rng.Intn(30)
		var phase []int32
		if iter%3 == 2 {
			phase = make([]int32, n)
			for i := range phase {
				phase[i] = int32(rng.Intn(3)) - 1
			}
		}
		want := intset.NewPairs(n)
		var stored, clones []pairBag
		for k := rng.Intn(6); k > 0; k-- {
			b, bo := randomBag(rng, n, 2*n)
			stored, clones = append(stored, b), append(clones, slices.Clone(b))
			want.UnionWith(bo)
			m.bag(b)
		}
		var sets []*intset.Set
		for k := rng.Intn(8); k > 0; k-- {
			sets = append(sets, randomSet(rng, n))
		}
		for k := 0; k < len(sets); k++ {
			ct := CrossTerm{Kind: KLcross, Label: syntax.Label(rng.Intn(n)), Var: SetVar(k)}
			if k%2 == 1 {
				ct = CrossTerm{Kind: KSymcross, Const: randomSet(rng, n), Var: SetVar(k)}
			}
			want.UnionWith(emitCross(nil, &ct, sets, phase).toPairSet(n))
			m.cross(&ct, sets, phase)
		}
		got, fresh := m.union()
		checkBag(t, "merged", got, want)
		if fresh && cap(got) != len(got) {
			t.Fatalf("fresh value has cap %d for %d pairs", cap(got), len(got))
		}
		held, shared := false, false
		for _, b := range stored {
			if len(b) > 0 && len(b) == want.Len() {
				held = true
				shared = shared || !fresh && &got[:1][0] == &b[:1][0]
			}
		}
		if held != shared {
			t.Fatalf("a stored bag holds the whole union: %v; the value is one: %v", held, shared)
		}
		if !held && want.Len() > 0 && !fresh {
			t.Fatal("value no stored bag holds came back unfresh")
		}
		for k := range stored {
			if !slices.Equal(stored[k], clones[k]) {
				t.Fatal("merge modified a stored bag")
			}
		}
	}
}
