package intset

import (
	"fmt"
	"math/bits"
	"strings"
)

// PairSet is a dense bit-matrix set over pairs drawn from the universe
// {0, …, n-1} × {0, …, n-1}. It represents the may-happen-in-parallel
// sets M of the analysis: membership of (l1, l2) means the instructions
// labeled l1 and l2 may happen in parallel.
//
// The analysis only ever constructs symmetric pair sets (symcross
// always adds both orientations), but PairSet itself does not enforce
// symmetry; AddSym and CrossSym are the symmetric insertion operations.
type PairSet struct {
	n     int      // universe size per coordinate
	w     int      // words per row
	words []uint64 // n rows of w words, row-major
	count int      // cached population count (ordered pairs)
}

// NewPairs returns an empty pair set over {0,…,n-1} × {0,…,n-1}.
func NewPairs(n int) *PairSet {
	if n < 0 {
		panic(fmt.Sprintf("intset: negative universe size %d", n))
	}
	w := wordsFor(n)
	return &PairSet{n: n, w: w, words: make([]uint64, n*w)}
}

// Universe returns the per-coordinate universe size.
func (p *PairSet) Universe() int { return p.n }

func (p *PairSet) checkPair(i, j int) {
	if i < 0 || i >= p.n || j < 0 || j >= p.n {
		panic(fmt.Sprintf("intset: pair (%d,%d) outside universe [0,%d)^2", i, j, p.n))
	}
}

// row returns the word slice for row i.
func (p *PairSet) row(i int) []uint64 {
	return p.words[i*p.w : (i+1)*p.w]
}

// Add inserts the ordered pair (i, j) and reports whether the set changed.
func (p *PairSet) Add(i, j int) bool {
	p.checkPair(i, j)
	r := p.row(i)
	w, b := j/wordBits, uint(j%wordBits)
	old := r[w]
	nw := old | (1 << b)
	if nw == old {
		return false
	}
	r[w] = nw
	p.count++
	return true
}

// AddSym inserts both (i, j) and (j, i); it reports whether the set changed.
func (p *PairSet) AddSym(i, j int) bool {
	a := p.Add(i, j)
	b := p.Add(j, i)
	return a || b
}

// Has reports whether the ordered pair (i, j) is in the set.
func (p *PairSet) Has(i, j int) bool {
	if i < 0 || i >= p.n || j < 0 || j >= p.n {
		return false
	}
	return p.row(i)[j/wordBits]&(1<<uint(j%wordBits)) != 0
}

// CrossSym adds symcross(A, B) = (A × B) ∪ (B × A) to the set and
// reports whether the set changed. A and B must share the pair set's
// universe. Each Lcross, Scross and Tcross in the paper is a
// CrossSym with particular arguments; the solvers emit them into
// sparse pair bags instead, so CrossSym serves parallel(T) in the
// explorers and the type system.
//
// An empty operand makes both products empty and skips the
// O(|A|·n/64 + |B|·n/64) word sweep entirely.
func (p *PairSet) CrossSym(a, b *Set) bool {
	if a.n != p.n || b.n != p.n {
		panic(fmt.Sprintf("intset: CrossSym universe mismatch (%d, %d, %d)", a.n, b.n, p.n))
	}
	if a.count == 0 || b.count == 0 {
		return false
	}
	changed := false
	a.Each(func(i int) {
		r := p.row(i)
		for k, w := range b.words {
			old := r[k]
			nw := old | w
			if nw != old {
				r[k] = nw
				p.count += bits.OnesCount64(nw &^ old)
				changed = true
			}
		}
	})
	b.Each(func(i int) {
		r := p.row(i)
		for k, w := range a.words {
			old := r[k]
			nw := old | w
			if nw != old {
				r[k] = nw
				p.count += bits.OnesCount64(nw &^ old)
				changed = true
			}
		}
	})
	return changed
}

// UnionWith adds every pair of q to p and reports whether p changed.
// An empty q and an already-saturated p short-circuit on the cached
// population counts.
func (p *PairSet) UnionWith(q *PairSet) bool {
	if p.n != q.n {
		panic(fmt.Sprintf("intset: mismatched pair universes %d and %d", p.n, q.n))
	}
	if q.count == 0 || p.count == p.n*p.n {
		return false
	}
	changed := false
	for i, w := range q.words {
		old := p.words[i]
		nw := old | w
		if nw != old {
			p.words[i] = nw
			p.count += bits.OnesCount64(nw &^ old)
			changed = true
		}
	}
	return changed
}

// Clone returns an independent copy of p.
func (p *PairSet) Clone() *PairSet {
	c := &PairSet{n: p.n, w: p.w, words: make([]uint64, len(p.words)), count: p.count}
	copy(c.words, p.words)
	return c
}

// Len returns the number of ordered pairs in the set (O(1): the
// population count is maintained incrementally).
func (p *PairSet) Len() int { return p.count }

// UnorderedLen counts the pairs (i, j) with i ≤ j: the unordered
// pairs of a symmetric set.
func (p *PairSet) UnorderedLen() int {
	n := 0
	p.Each(func(i, j int) {
		if i <= j {
			n++
		}
	})
	return n
}

// Empty reports whether the set has no pairs.
func (p *PairSet) Empty() bool { return p.count == 0 }

// Equal reports whether p and q contain the same pairs.
func (p *PairSet) Equal(q *PairSet) bool {
	if p.n != q.n {
		return false
	}
	for i, w := range p.words {
		if w != q.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every pair of p is in q.
func (p *PairSet) SubsetOf(q *PairSet) bool {
	if p.n != q.n {
		panic(fmt.Sprintf("intset: mismatched pair universes %d and %d", p.n, q.n))
	}
	for i, w := range p.words {
		if w&^q.words[i] != 0 {
			return false
		}
	}
	return true
}

// Symmetric reports whether (i,j) ∈ p implies (j,i) ∈ p.
func (p *PairSet) Symmetric() bool {
	ok := true
	p.Each(func(i, j int) {
		if !p.Has(j, i) {
			ok = false
		}
	})
	return ok
}

// Each calls f on every ordered pair in row-major order.
func (p *PairSet) Each(f func(i, j int)) {
	for i := 0; i < p.n; i++ {
		r := p.row(i)
		for wi, w := range r {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				f(i, wi*wordBits+b)
				w &= w - 1
			}
		}
	}
}

// Pairs returns all ordered pairs in row-major order.
func (p *PairSet) Pairs() [][2]int {
	out := make([][2]int, 0, p.Len())
	p.Each(func(i, j int) { out = append(out, [2]int{i, j}) })
	return out
}

// Row returns the set of js with (i, j) in p, as a fresh Set.
func (p *PairSet) Row(i int) *Set {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("intset: row %d outside universe [0,%d)", i, p.n))
	}
	s := New(p.n)
	copy(s.words, p.row(i))
	for _, w := range s.words {
		s.count += bits.OnesCount64(w)
	}
	return s
}

// RowIntersects reports whether row i of p has any element in common
// with the set b.
func (p *PairSet) RowIntersects(i int, b *Set) bool {
	if b.n != p.n {
		panic(fmt.Sprintf("intset: RowIntersects universe mismatch %d and %d", b.n, p.n))
	}
	r := p.row(i)
	for k, w := range b.words {
		if r[k]&w != 0 {
			return true
		}
	}
	return false
}

// String renders the set as "{(i,j), …}".
func (p *PairSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	p.Each(func(i, j int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "(%d,%d)", i, j)
	})
	b.WriteByte('}')
	return b.String()
}

// MemoryFootprint returns the approximate number of bytes used by the
// pair set's backing storage. The solver uses this for the space column
// of Figure 8.
func (p *PairSet) MemoryFootprint() int { return len(p.words) * 8 }
