// Package intset provides dense bit-vector sets over a fixed universe
// {0, …, n-1} of small integers, plus a companion pair-set over the
// universe {0, …, n-1} × {0, …, n-1}.
//
// The may-happen-in-parallel analysis of Featherweight X10 manipulates
// sets of statement labels (R and O sets) and sets of label pairs
// (M sets). Lee and Palsberg's complexity argument (Section 5.2 of the
// paper) assumes bit-vector sets so that a union is O(n) or O(n^2) word
// operations; this package is that representation.
//
// Sets are mutable. The zero value is not useful; construct sets with
// New and pair sets with NewPairs. All sets participating in one
// analysis must share the same universe size.
package intset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// wordsFor returns the number of 64-bit words needed for n bits.
func wordsFor(n int) int {
	return (n + wordBits - 1) / wordBits
}

// Set is a dense bit-vector set over the universe {0, …, n-1}.
//
// The population count is maintained incrementally, making Len and
// Empty O(1) and enabling the empty-operand and already-full fast
// paths of UnionWith and PairSet.CrossSym.
type Set struct {
	n     int
	words []uint64
	count int // cached population count
}

// New returns an empty set over the universe {0, …, n-1}.
// It panics if n is negative.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("intset: negative universe size %d", n))
	}
	return &Set{n: n, words: make([]uint64, wordsFor(n))}
}

// NewBatch returns k independent empty sets over {0, …, n-1} backed
// by a single slab allocation (one words array, one Set array). A
// fixpoint solver that knows up front how many variables it solves
// allocates 3 objects instead of 2k; the sets are otherwise ordinary
// and never observably shared.
func NewBatch(n, k int) []*Set {
	if n < 0 {
		panic(fmt.Sprintf("intset: negative universe size %d", n))
	}
	if k <= 0 {
		return nil
	}
	w := wordsFor(n)
	slab := make([]uint64, k*w)
	sets := make([]Set, k)
	out := make([]*Set, k)
	for i := range sets {
		sets[i] = Set{n: n, words: slab[i*w : (i+1)*w : (i+1)*w]}
		out[i] = &sets[i]
	}
	return out
}

// Of returns a set over the universe {0, …, n-1} containing the given
// elements.
func Of(n int, elems ...int) *Set {
	s := New(n)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Universe returns the universe size n the set was created with.
func (s *Set) Universe() int { return s.n }

// check panics if e is outside the universe.
func (s *Set) check(e int) {
	if e < 0 || e >= s.n {
		panic(fmt.Sprintf("intset: element %d outside universe [0,%d)", e, s.n))
	}
}

// Add inserts e into the set and reports whether the set changed.
func (s *Set) Add(e int) bool {
	s.check(e)
	w, b := e/wordBits, uint(e%wordBits)
	old := s.words[w]
	nw := old | (1 << b)
	if nw == old {
		return false
	}
	s.words[w] = nw
	s.count++
	return true
}

// Remove deletes e from the set and reports whether the set changed.
func (s *Set) Remove(e int) bool {
	s.check(e)
	w, b := e/wordBits, uint(e%wordBits)
	old := s.words[w]
	nw := old &^ (1 << b)
	if nw == old {
		return false
	}
	s.words[w] = nw
	s.count--
	return true
}

// Has reports whether e is in the set.
func (s *Set) Has(e int) bool {
	if e < 0 || e >= s.n {
		return false
	}
	return s.words[e/wordBits]&(1<<uint(e%wordBits)) != 0
}

// UnionWith adds every element of t to s and reports whether s changed.
// The sets must share a universe size. An empty t and an already-full
// s are detected from the cached population counts without touching
// the words.
func (s *Set) UnionWith(t *Set) bool {
	s.sameUniverse(t)
	if t.count == 0 || s.count == s.n {
		return false
	}
	changed := false
	for i, w := range t.words {
		old := s.words[i]
		nw := old | w
		if nw != old {
			s.words[i] = nw
			s.count += bits.OnesCount64(nw &^ old)
			changed = true
		}
	}
	return changed
}

// IntersectWith removes from s every element not in t and reports
// whether s changed.
func (s *Set) IntersectWith(t *Set) bool {
	s.sameUniverse(t)
	changed := false
	for i, w := range t.words {
		old := s.words[i]
		nw := old & w
		if nw != old {
			s.words[i] = nw
			s.count -= bits.OnesCount64(old &^ nw)
			changed = true
		}
	}
	return changed
}

func (s *Set) sameUniverse(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("intset: mismatched universes %d and %d", s.n, t.n))
	}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words)), count: s.count}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with the contents of t. The sets must share a
// universe size.
func (s *Set) CopyFrom(t *Set) {
	s.sameUniverse(t)
	copy(s.words, t.words)
	s.count = t.count
}

// CopyFromFit overwrites s with the contents of t, which may have a
// different universe size. It reports false — leaving s in an
// unspecified state — when t contains an element outside s's
// universe; word-level copying makes the success path O(words), so a
// solver reusing values across programs of slightly different sizes
// need not decode elements one by one.
func (s *Set) CopyFromFit(t *Set) bool {
	if s.n == t.n {
		s.CopyFrom(t)
		return true
	}
	k := len(s.words)
	if len(t.words) < k {
		k = len(t.words)
	}
	copy(s.words[:k], t.words[:k])
	for i := k; i < len(s.words); i++ {
		s.words[i] = 0
	}
	for _, w := range t.words[k:] {
		if w != 0 {
			return false
		}
	}
	if r := s.n % wordBits; r != 0 && t.n > s.n && k > 0 {
		if s.words[k-1]&^(1<<r-1) != 0 {
			return false
		}
	}
	s.count = t.count
	return true
}

// Clear removes all elements.
func (s *Set) Clear() {
	if s.count == 0 {
		return
	}
	for i := range s.words {
		s.words[i] = 0
	}
	s.count = 0
}

// Len returns the number of elements in the set (O(1): the population
// count is maintained incrementally).
func (s *Set) Len() int { return s.count }

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool { return s.count == 0 }

// Equal reports whether s and t contain the same elements.
func (s *Set) Equal(t *Set) bool {
	s.sameUniverse(t)
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is in t.
func (s *Set) SubsetOf(t *Set) bool {
	s.sameUniverse(t)
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Each calls f on every element in increasing order.
func (s *Set) Each(f func(e int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Elems returns the elements of s in increasing order.
func (s *Set) Elems() []int {
	out := make([]int, 0, s.Len())
	s.Each(func(e int) { out = append(out, e) })
	return out
}

// String renders the set as "{e1, e2, …}" in increasing element order.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.Each(func(e int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", e)
	})
	b.WriteByte('}')
	return b.String()
}
