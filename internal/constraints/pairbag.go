package constraints

import (
	"slices"

	"fx10/internal/intset"
	"fx10/internal/syntax"
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
// A bag, like a set, is immutable once it is stored in a Solution:
// topo gives every method of a call-graph SCC the SCC's one bag, a
// caller whose value adds nothing to a callee's takes the callee's
// bag, and SolveDelta shares bags across Solutions (it copies seeded
// sets into sets of its own). Every operation below that changes a
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
	switch n := unionLen(x, o); n {
	case len(x):
		return false
	case len(o):
		*b = o
	default:
		*b = appendUnion(make(pairBag, 0, n), x, o)
	}
	return true
}

// appendUnion appends a ∪ b, two sorted runs, to dst as one sorted
// run.
func appendUnion(dst, a, b pairBag) pairBag {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
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

// emitCross appends the product of cross term ct, whose variable
// operand's value in setVals is final, to buf as one sorted run:
// phased folds each run into its bag with unionWith, and topo merges
// them into a method's value with runMerger. It skips pairs the phase
// analysis proves ordered: when phase[i] and phase[j] are both known
// and different, the single clock serializes them and they can never
// run in parallel. phase is nil for clock-free programs (no
// filtering). This is the ONE place pairs enter the level-2 system —
// level 2 is otherwise pure union — so filtering here makes every
// solving strategy (and the delta solver) compute exactly the
// phase-refined least solution, preserving cross-strategy
// bit-identity. An Lcross term carries its label instead of a
// singleton set, so it costs no dense set. A nil buf gets a run of
// exactly the product's unfiltered capacity.
func emitCross(buf pairBag, ct *CrossTerm, setVals []*intset.Set, phase []int32) pairBag {
	if ct.Kind == KLcross {
		return crossLabel(buf, int(ct.Label), setVals[ct.Var], phase)
	}
	return crossSym(buf, ct.Const, setVals[ct.Var], phase)
}

// crossSym appends (A × B) ∪ (B × A) under emitCross's phase filter.
// The product is emitted in key order, row i of it being B when
// i ∈ A \ B, A when i ∈ B \ A and A ∪ B when i ∈ A ∩ B.
func crossSym(buf pairBag, a, bb *intset.Set, phase []int32) pairBag {
	if a.Empty() || bb.Empty() {
		return buf // both products are empty (O(1) on cached counts)
	}
	u := a.Clone()
	u.UnionWith(bb)
	as, bs, us := a.Elems(), bb.Elems(), u.Elems()
	both := len(as) + len(bs) - len(us)
	if buf == nil { // a run phased stores keeps no spare capacity
		buf = make(pairBag, 0, (len(us)-len(bs))*len(bs)+(len(us)-len(as))*len(as)+both*len(us))
	}
	for _, i := range us {
		row := us
		switch inA, inB := a.Has(i), bb.Has(i); {
		case !inB:
			row = bs
		case !inA:
			row = as
		}
		pi := phaseAt(phase, syntax.Label(i))
		for _, j := range row {
			if phaseOK(phase, pi, j) { // else provably ordered by the clock
				buf = append(buf, pairKey(i, j))
			}
		}
	}
	return buf
}

// crossLabel appends Lcross(l, B) = ({l} × B) ∪ (B × {l}) under
// emitCross's phase filter. In key order that is (j, l) for j ∈ B
// below l, then row l (which is B whether or not l ∈ B), then (j, l)
// for j ∈ B above l: at most 2·|B| keys.
func crossLabel(buf pairBag, l int, bb *intset.Set, phase []int32) pairBag {
	if bb.Empty() {
		return buf // O(1) on the cached count; no word to scan
	}
	pl := phaseAt(phase, syntax.Label(l))
	if buf == nil {
		buf = make(pairBag, 0, 2*bb.Len())
	}
	bb.Each(func(j int) {
		if j < l && phaseOK(phase, pl, j) {
			buf = append(buf, pairKey(j, l))
		}
	})
	bb.Each(func(j int) {
		if phaseOK(phase, pl, j) {
			buf = append(buf, pairKey(l, j))
		}
	})
	bb.Each(func(j int) {
		if j > l && phaseOK(phase, pl, j) {
			buf = append(buf, pairKey(j, l))
		}
	})
	return buf
}

// runMerger builds one level-2 value from sorted runs of two kinds:
// cross-term products, emitted back to back into its scratch buffer,
// and bags already stored in the solution. One merger serves a whole
// pass, so its two buffers grow to the largest value and are reused.
type runMerger struct {
	runs, stored []pairBag
	buf, alt     pairBag
}

// cross emits cross term ct's product as one run.
func (m *runMerger) cross(ct *CrossTerm, setVals []*intset.Set, phase []int32) {
	n := len(m.buf)
	if m.buf = emitCross(m.buf, ct, setVals, phase); len(m.buf) > n {
		m.runs = append(m.runs, m.buf[n:len(m.buf):len(m.buf)])
	}
}

// bag adds a stored run.
func (m *runMerger) bag(b pairBag) {
	if len(b) > 0 {
		m.runs, m.stored = append(m.runs, b), append(m.stored, b)
	}
}

// union merges every run in one balanced pass and empties the merger.
// Each round merges the runs pairwise into the other buffer, so a key
// is copied once per round, ⌈log₂ runs⌉ times (folding stored runs in
// one at a time would copy the growing value once per run). It returns
// a stored run that holds the whole union (fresh false), or else a new
// run with cap == len: no stored value keeps scratch capacity.
func (m *runMerger) union() (out pairBag, fresh bool) {
	runs, src, dst, total := m.runs, m.buf, m.alt, 0
	for _, r := range runs {
		total += len(r)
	}
	for len(runs) > 1 {
		if cap(dst) < total { // one allocation, not a doubling series
			dst = make(pairBag, 0, total)
		}
		dst = dst[:0]
		n := 0
		for i := 0; i < len(runs); i += 2 {
			lo := len(dst)
			if i+1 < len(runs) {
				dst = appendUnion(dst, runs[i], runs[i+1])
			} else {
				dst = append(dst, runs[i]...) // the next round overwrites src
			}
			runs[n] = dst[lo:len(dst):len(dst)]
			n++
		}
		runs, src, dst = runs[:n], dst, src
	}
	stored := m.stored
	m.runs, m.stored, m.buf, m.alt = runs[:0], stored[:0], src[:0], dst
	if len(runs) == 0 {
		return nil, false
	}
	for _, b := range stored {
		if len(b) == len(runs[0]) {
			return b, false
		}
	}
	return append(make(pairBag, 0, len(runs[0])), runs[0]...), true
}

// phaseOK reports whether label j may pair with a label of phase code
// pi: unless both phases are known and differ.
func phaseOK(phase []int32, pi int32, j int) bool {
	return pi < 0 || phase[j] < 0 || phase[j] == pi
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
