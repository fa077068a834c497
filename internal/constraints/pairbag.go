package constraints

import (
	"slices"

	"fx10/internal/intset"
)

// pairBag is a sparse set of ordered label pairs, used for the m
// variables of the constraint solver: a sorted, duplicate-free run of
// pairKey(i, j) keys. The analysis generates one m variable per
// statement; at benchmark scale (thousands of labels) a dense n×n
// bitmap per variable would need gigabytes, while the number of
// distinct pairs actually flowing through the system is small. Level
// 2 of the constraints only unions bags and adds symcross products,
// so a sorted run costs 8 bytes per pair, one allocation per bag and
// linear merges. Final results are converted to dense intset.PairSet.
//
// A bag is immutable once it is stored in a Solution: topo aliases
// one bag across a copy-elided chain of variables and SolveDelta
// shares bags across Solutions. Every operation below that changes a
// bag therefore points it at a new (or another stored) run and never
// writes into, or appends onto, the old one.
type pairBag []uint64

func pairKey(i, j int) uint64 {
	return uint64(uint32(i))<<32 | uint64(uint32(j))
}

// unionWith sets b to b ∪ o and reports change. When o already holds
// all of b, b takes o's run itself.
func (b *pairBag) unionWith(o pairBag) bool {
	x := *b
	n := unionLen(x, o)
	switch n {
	case len(x):
		return false
	case len(o):
		*b = o
		return true
	}
	out := make(pairBag, 0, n)
	i, j := 0, 0
	for i < len(x) && j < len(o) {
		switch {
		case x[i] < o[j]:
			out = append(out, x[i])
			i++
		case x[i] > o[j]:
			out = append(out, o[j])
			j++
		default:
			out = append(out, x[i])
			i++
			j++
		}
	}
	out = append(out, x[i:]...)
	*b = append(out, o[j:]...)
	return true
}

// unionLen returns |a ∪ b| for two sorted runs.
func unionLen(a, b pairBag) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
		n++
	}
	return n + len(a) - i + len(b) - j
}

// crossSym adds (A × B) ∪ (B × A) and reports change, skipping pairs
// the phase analysis proves ordered: when phase[i] and phase[j] are
// both known and different, the single clock serializes them and they
// can never run in parallel. phase is nil for clock-free programs
// (no filtering). This is the ONE place pairs enter the level-2
// system — level 2 is otherwise pure union — so filtering here makes
// every solving strategy (and the delta solver) compute exactly the
// phase-refined least solution, preserving cross-strategy
// bit-identity.
//
// The product is emitted in key order, row i of it being B when
// i ∈ A \ B, A when i ∈ B \ A and A ∪ B when i ∈ A ∩ B, then merged.
func (b *pairBag) crossSym(a, bb *intset.Set, phase []int32) bool {
	if a.Empty() || bb.Empty() {
		return false // both products are empty (O(1) on cached counts)
	}
	u := a.Clone()
	u.UnionWith(bb)
	as, bs, us := a.Elems(), bb.Elems(), u.Elems()
	both := len(as) + len(bs) - len(us)
	prod := make(pairBag, 0, (len(us)-len(bs))*len(bs)+(len(us)-len(as))*len(as)+both*len(us))
	for _, i := range us {
		row := us
		switch inA, inB := a.Has(i), bb.Has(i); {
		case !inB:
			row = bs
		case !inA:
			row = as
		}
		pi := int32(-1)
		if phase != nil {
			pi = phase[i]
		}
		for _, j := range row {
			if pi >= 0 {
				if pj := phase[j]; pj >= 0 && pj != pi {
					continue // provably ordered by the clock
				}
			}
			prod = append(prod, pairKey(i, j))
		}
	}
	return b.unionWith(prod)
}

// remapBag translates every pair of src through remap, reporting false
// if any coordinate is unmapped. Labels are numbered in source order,
// so the remap of an edit's reused labels is usually monotone and the
// translated run comes out sorted; it is sorted only when it does not.
func remapBag(src pairBag, remap []int) (pairBag, bool) {
	out := make(pairBag, len(src))
	sorted := true
	for k, key := range src {
		i, j := remap[int(key>>32)], remap[int(uint32(key))]
		if i < 0 || j < 0 {
			return nil, false
		}
		out[k] = pairKey(i, j)
		if k > 0 && out[k] <= out[k-1] {
			sorted = false
		}
	}
	if !sorted {
		slices.Sort(out)
		out = slices.Compact(out)
	}
	return out, true
}

// toPairSet converts to a dense pair set over universe n.
func (b pairBag) toPairSet(n int) *intset.PairSet {
	out := intset.NewPairs(n)
	for _, k := range b {
		out.Add(int(k>>32), int(uint32(k)))
	}
	return out
}
