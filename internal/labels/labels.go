// Package labels implements the helper functions of Figure 3 of the
// paper: Slabels, Tlabels, FSlabels, FTlabels, symcross, Lcross,
// Scross, Tcross and parallel.
//
// Slabels is the ⊆-least solution of equations (15)–(21). Because a
// method call's Slabels includes the callee body's Slabels (equation
// (21)) and methods may be mutually recursive, Slabels is computed as
// a least fixpoint over per-method label sets; statement-level sets
// are then derived on demand.
package labels

import (
	"fx10/internal/intset"
	"fx10/internal/syntax"
	"fx10/internal/tree"
)

// Info holds the computed Slabels fixpoint for one program and serves
// all helper-function queries. It is read-only once Compute returns,
// so concurrent readers need no lock.
type Info struct {
	p *syntax.Program
	// method[i] is Slabels_p(s_i) for the body s_i of method i.
	method []*intset.Set
	// Iterations is the number of fixpoint passes it took to
	// stabilize the per-method sets (≥ 1; the final no-change pass is
	// counted, matching how the paper's solver reports iterations).
	Iterations int
}

// Compute builds the Slabels fixpoint for p.
func Compute(p *syntax.Program) *Info {
	in := &Info{
		p:      p,
		method: make([]*intset.Set, len(p.Methods)),
	}
	n := p.NumLabels()
	for i := range in.method {
		in.method[i] = intset.New(n)
	}
	// Least fixpoint: method sets start empty and grow monotonically.
	for {
		in.Iterations++
		changed := false
		for i, m := range p.Methods {
			next := intset.New(n)
			in.addSlabels(next, m.Body)
			if in.method[i].UnionWith(next) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return in
}

// Program returns the program the info was computed for.
func (in *Info) Program() *syntax.Program { return in.p }

// NumLabels returns the label universe size.
func (in *Info) NumLabels() int { return in.p.NumLabels() }

// addSlabels adds Slabels_p(s) to dst using the current per-method
// approximations (equations (15)–(21)).
func (in *Info) addSlabels(dst *intset.Set, s *syntax.Stmt) {
	for cur := s; cur != nil; cur = cur.Next {
		i := cur.Instr
		dst.Add(int(i.Label()))
		switch i := i.(type) {
		case *syntax.While:
			in.addSlabels(dst, i.Body)
		case *syntax.Async:
			in.addSlabels(dst, i.Body)
		case *syntax.Finish:
			in.addSlabels(dst, i.Body)
		case *syntax.Call:
			dst.UnionWith(in.method[i.Method])
		}
	}
}

// MethodLabels returns Slabels of method mi's body. The result is
// shared; do not mutate.
func (in *Info) MethodLabels(mi int) *intset.Set { return in.method[mi] }

// Slabels returns Slabels_p(s): the labels of statements that may be
// executed during execution of s (equations (15)–(21)). The caller
// owns the result.
func (in *Info) Slabels(s *syntax.Stmt) *intset.Set {
	out := intset.New(in.p.NumLabels())
	in.addSlabels(out, s)
	return out
}

// Tlabels returns Tlabels_p(T) (equations (22)–(25)): the labels of
// statements that may execute during the execution of the tree T. The
// caller owns the result.
func (in *Info) Tlabels(t tree.Tree) *intset.Set {
	out := intset.New(in.p.NumLabels())
	in.addTlabels(out, t)
	return out
}

func (in *Info) addTlabels(dst *intset.Set, t tree.Tree) {
	switch t := t.(type) {
	case tree.DoneT:
	case *tree.Leaf:
		dst.UnionWith(in.Slabels(t.S))
	case *tree.Fin:
		in.addTlabels(dst, t.L)
		in.addTlabels(dst, t.R)
	case *tree.Par:
		in.addTlabels(dst, t.L)
		in.addTlabels(dst, t.R)
	}
}

// FSlabels returns FSlabels(s) (equations (26)–(32)): the singleton
// set holding the label of s's first instruction. The caller owns the
// result.
func (in *Info) FSlabels(s *syntax.Stmt) *intset.Set {
	out := intset.New(in.p.NumLabels())
	out.Add(int(s.Instr.Label()))
	return out
}

// FTlabels returns FTlabels(T) (equations (33)–(36)): the labels of
// statements that can execute next in T. The caller owns the result.
func (in *Info) FTlabels(t tree.Tree) *intset.Set {
	out := intset.New(in.p.NumLabels())
	in.addFTlabels(out, t)
	return out
}

func (in *Info) addFTlabels(dst *intset.Set, t tree.Tree) {
	switch t := t.(type) {
	case tree.DoneT:
	case *tree.Leaf:
		dst.Add(int(t.S.Instr.Label()))
	case *tree.Fin:
		in.addFTlabels(dst, t.L) // only the left side may step
	case *tree.Par:
		in.addFTlabels(dst, t.L)
		in.addFTlabels(dst, t.R)
	}
}

// Symcross returns symcross(A, B) = (A × B) ∪ (B × A) as a fresh pair
// set (equation (37)).
func (in *Info) Symcross(a, b *intset.Set) *intset.PairSet {
	out := intset.NewPairs(in.p.NumLabels())
	out.CrossSym(a, b)
	return out
}

// AddLcross adds Lcross(l, A) = symcross({l}, A) to dst (equation
// (38)) and reports whether dst changed.
func (in *Info) AddLcross(dst *intset.PairSet, l syntax.Label, a *intset.Set) bool {
	single := intset.Of(in.p.NumLabels(), int(l))
	return dst.CrossSym(single, a)
}

// AddScross adds Scross_p(s, A) = symcross(Slabels_p(s), A) to dst
// (equation (39)) and reports whether dst changed.
func (in *Info) AddScross(dst *intset.PairSet, s *syntax.Stmt, a *intset.Set) bool {
	return dst.CrossSym(in.Slabels(s), a)
}

// AddTcross adds Tcross_p(T, A) = symcross(Tlabels_p(T), A) to dst
// (equation (40)) and reports whether dst changed.
func (in *Info) AddTcross(dst *intset.PairSet, t tree.Tree, a *intset.Set) bool {
	return dst.CrossSym(in.Tlabels(t), a)
}

// Parallel returns parallel(T) (equations (41)–(44)): the pairs of
// labels of statements that are executing in parallel right now, i.e.
// both can take a step. The caller owns the result.
func (in *Info) Parallel(t tree.Tree) *intset.PairSet {
	out := intset.NewPairs(in.p.NumLabels())
	in.addParallel(out, t)
	return out
}

func (in *Info) addParallel(dst *intset.PairSet, t tree.Tree) {
	switch t := t.(type) {
	case tree.DoneT:
	case *tree.Leaf:
	case *tree.Fin:
		in.addParallel(dst, t.L) // parallel(T1 ▷ T2) = parallel(T1)
	case *tree.Par:
		in.addParallel(dst, t.L)
		in.addParallel(dst, t.R)
		dst.CrossSym(in.FTlabels(t.L), in.FTlabels(t.R))
	}
}
