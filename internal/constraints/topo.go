package constraints

// Topological SCC solving (the "topo" strategy): classic fixpoint
// engineering applied to the paper's constraint system. All
// right-hand sides are monotone unions, so the least solution of each
// level is determined by reachability in the dependency graph over
// its variables: condense the graph's strongly connected components
// (every variable in a cycle provably has the same least value — each
// can reach the other, so their values mutually include each other),
// solve one representative per component, and propagate component by
// component in topological order. Each constraint is then evaluated at
// most once, against already-final inputs, instead of being iterated
// or re-queued; singleton components whose right-hand side is a single
// inflow are copy-elided entirely (their value is aliased, zero
// evaluations). The worst case drops from the pass-based solver's
// O(passes × constraints) re-evaluations to one evaluation per
// constraint plus a linear Tarjan pass.
//
// Level 1 stores one set per evaluated component, held by every
// variable of the component and of a copy-elided chain aliasing it.
// Level 2 condenses the call graph instead and stores one pair bag per
// SCC, held by its methods' m variables (solveTopoL2). The least
// solution is unique (Theorems 5–6), so no variable needs a private
// copy; a stored value is never mutated (see pairbag.go).
//
// Both levels take a per-method keep mask, nil for a solve from
// scratch. SolveDelta passes the methods outside its dirty closure:
// their set variables and m summaries arrive seeded with their least
// values, so a component or SCC of kept methods takes its seeded value
// and is not evaluated. The rest is solved as usual, reading kept
// values as final inputs.

import (
	"fx10/internal/intset"
)

// graphCSR is a directed graph over nodes 0..nv-1 in compressed
// sparse row form: the out-neighbours of v are edges[off[v]:off[v+1]].
// Edges point in the direction values flow (source variable → the
// variable whose constraint reads it).
type graphCSR struct {
	off   []int32
	edges []int32
}

// tarjanSCC computes the strongly connected components of g
// (iteratively — constraint graphs reach tens of thousands of nodes,
// beyond any safe recursion budget). comp maps each node to its
// component id. Ids are assigned in reverse topological order of the
// condensation: every edge v→w with comp[v] != comp[w] has
// comp[w] < comp[v], so iterating ids from ncomp-1 down to 0 visits
// components sources-first, exactly the order single-pass propagation
// needs.
func tarjanSCC(nv int, g graphCSR) (comp []int32, ncomp int32) {
	comp = make([]int32, nv)
	index := make([]int32, nv) // 0 = unvisited, else DFS index+1
	low := make([]int32, nv)
	onStack := make([]bool, nv)
	stack := make([]int32, 0, nv)

	type frame struct {
		v  int32
		ei int32 // next out-edge offset to explore (absolute)
	}
	frames := make([]frame, 0, 64)
	var next int32

	for root := 0; root < nv; root++ {
		if index[root] != 0 {
			continue
		}
		next++
		index[root], low[root] = next, next
		stack = append(stack, int32(root))
		onStack[root] = true
		frames = append(frames, frame{v: int32(root), ei: g.off[root]})

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ei < g.off[v+1] {
				w := g.edges[f.ei]
				f.ei++
				if index[w] == 0 {
					next++
					index[w], low[w] = next, next
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w, ei: g.off[w]})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
		}
	}
	return comp, ncomp
}

// memberCSR groups nodes by component: the members of component c are
// nodes[off[c]:off[c+1]].
func memberCSR(comp []int32, ncomp int32) graphCSR {
	off := make([]int32, ncomp+1)
	for _, c := range comp {
		off[c+1]++
	}
	for c := int32(1); c <= ncomp; c++ {
		off[c] += off[c-1]
	}
	nodes := make([]int32, len(comp))
	pos := make([]int32, ncomp)
	copy(pos, off[:ncomp])
	for v, c := range comp {
		nodes[pos[c]] = int32(v)
		pos[c]++
	}
	return graphCSR{off: off, edges: nodes}
}

// l1Graph builds the level-1 dependency machinery: lhsL1[v] is the
// index of the L1 constraint defining v (every set variable is the
// LHS of exactly one; -1 guards the invariant), subSrc groups subset
// inflows by Sup in CSR form (the subset sources of v are
// subSrc.edges[subSrc.off[v]:subSrc.off[v+1]]), and g is the
// dependency graph with edges source → LHS.
func (s *System) l1Graph() (lhsL1 []int32, subSrc, g graphCSR) {
	nv := s.NumSetVars()
	lhsL1 = make([]int32, nv)
	for i := range lhsL1 {
		lhsL1[i] = -1
	}
	for ci, c := range s.L1s {
		lhsL1[c.LHS] = int32(ci)
	}

	subSrc = graphCSR{off: make([]int32, nv+1)}
	if len(s.Subsets) > 0 {
		for _, c := range s.Subsets {
			subSrc.off[c.Sup+1]++
		}
		for v := 1; v <= nv; v++ {
			subSrc.off[v] += subSrc.off[v-1]
		}
		subSrc.edges = make([]int32, len(s.Subsets))
		pos := make([]int32, nv)
		copy(pos, subSrc.off[:nv])
		for _, c := range s.Subsets {
			subSrc.edges[pos[c.Sup]] = int32(c.Sub)
			pos[c.Sup]++
		}
	}

	g = graphCSR{off: make([]int32, nv+1)}
	for _, c := range s.L1s {
		for _, v := range c.Vars {
			g.off[v+1]++
		}
	}
	for _, c := range s.Subsets {
		g.off[c.Sub+1]++
	}
	for v := 1; v <= nv; v++ {
		g.off[v] += g.off[v-1]
	}
	g.edges = make([]int32, g.off[nv])
	pos := make([]int32, nv)
	copy(pos, g.off[:nv])
	for _, c := range s.L1s {
		for _, v := range c.Vars {
			g.edges[pos[v]] = int32(c.LHS)
			pos[v]++
		}
	}
	for _, c := range s.Subsets {
		g.edges[pos[c.Sub]] = int32(c.Sup)
		pos[c.Sub]++
	}
	return lhsL1, subSrc, g
}

// solveTopoL1 computes the level-1 least solution by SCC condensation.
// keep is the per-method keep mask described at the top of the file.
func (sol *Solution) solveTopoL1(keep []bool) {
	s := sol.sys
	nv := s.NumSetVars()
	if nv == 0 {
		return
	}

	lhsL1, subSrc, g := s.l1Graph()
	comp, ncomp := tarjanSCC(nv, g)
	members := memberCSR(comp, ncomp)

	vals := make([]*intset.Set, ncomp)
	for cid := ncomp - 1; cid >= 0; cid-- {
		ms := members.edges[members.off[cid]:members.off[cid+1]]
		if keep != nil && keep[s.SetVarOwner[ms[0]]] { // closures are SCC-closed (solvedelta.go)
			vals[cid] = sol.setVals[ms[0]]
			continue
		}
		// Copy elision: a singleton whose constraint contributes no
		// constant and draws from exactly one earlier component is
		// that component's value; alias it instead of copying.
		if len(ms) == 1 {
			if src, ok := s.l1SingleInflow(ms[0], cid, comp, lhsL1, subSrc); ok {
				vals[cid] = vals[src]
				continue
			}
		}
		vals[cid] = sol.evalL1Comp(cid, ms, comp, lhsL1, subSrc, vals)
		sol.nsets++
	}

	for v := 0; v < nv; v++ {
		if keep == nil || !keep[s.SetVarOwner[v]] {
			sol.setVals[v] = vals[comp[v]]
		}
	}
}

// evalL1Comp builds one component's set from its constants and the
// (final) sets of its predecessor components.
func (sol *Solution) evalL1Comp(cid int32, ms []int32, comp, lhsL1 []int32, subSrc graphCSR, vals []*intset.Set) *intset.Set {
	s := sol.sys
	val := intset.New(s.P.NumLabels())
	for _, m := range ms {
		if ci := lhsL1[m]; ci >= 0 {
			sol.Evaluations++
			sol.checkCancel()
			c := &s.L1s[ci]
			if c.Const != nil {
				val.UnionWith(c.Const)
			}
			for _, v := range c.Vars {
				if comp[v] != cid {
					val.UnionWith(vals[comp[v]])
				}
			}
		}
		for _, src := range subSrc.edges[subSrc.off[m]:subSrc.off[m+1]] {
			sol.Evaluations++
			sol.checkCancel()
			if comp[src] != cid {
				val.UnionWith(vals[comp[src]])
			}
		}
	}
	return val
}

// l1SingleInflow reports whether set variable m (a singleton
// component cid) is a pure copy of exactly one earlier component:
// no constant, no self-loop, and all variable inflows drawn from one
// component. Returns that component.
func (s *System) l1SingleInflow(m int32, cid int32, comp []int32, lhsL1 []int32, subSrc graphCSR) (int32, bool) {
	src := int32(-1)
	ci := lhsL1[m]
	if ci >= 0 {
		c := &s.L1s[ci]
		if c.Const != nil && !c.Const.Empty() {
			return 0, false
		}
		for _, v := range c.Vars {
			vc := comp[v]
			if vc == cid {
				return 0, false // self-loop: not a pure copy
			}
			if src == -1 {
				src = vc
			} else if src != vc {
				return 0, false
			}
		}
	}
	for _, sub := range subSrc.edges[subSrc.off[m]:subSrc.off[m+1]] {
		vc := comp[sub]
		if vc == cid {
			return 0, false
		}
		if src == -1 {
			src = vc
		} else if src != vc {
			return 0, false
		}
	}
	return src, src != -1
}

// solveTopoL2 computes level 2 one call-graph SCC at a time. A
// statement's m only passes its cross terms and its successors' m up
// to the enclosing statement (equations (57)–(82)), so a method's m is
// the union of the cross terms of the level-2 constraints it owns and
// of its callees' m: all Theorem 3 and the report need. Callees
// first, an SCC's members get one shared value, the merge of their
// products and their callee SCCs' values (runMerger.union). Statement
// variables stay unsolved (Solution.bag derives one). keep is the
// per-method keep mask described at the top of the file.
func (sol *Solution) solveTopoL2(keep []bool) {
	s := sol.sys
	nm := len(s.P.Methods)
	owner := make([]int32, len(s.L2s))
	for ci := range s.L2s {
		owner[ci] = int32(s.PairVarOwner[s.L2s[ci].LHS])
	}
	owned := memberCSR(owner, int32(nm))
	comp, ncomp := tarjanSCC(nm, s.Calls.flowCSR())
	members := memberCSR(comp, ncomp)

	bags := make([]pairBag, ncomp)
	took := make([]int32, ncomp) // took[c] == cid+1: SCC cid already merges c's value
	seeds := map[*uint64]bool{}  // kept values counted so far; seeds may alias each other
	var m runMerger
	for cid := ncomp - 1; cid >= 0; cid-- {
		ms := members.edges[members.off[cid]:members.off[cid+1]]
		if keep != nil && keep[ms[0]] { // closures are SCC-closed (solvedelta.go)
			b := sol.pairVals[s.MethodM[ms[0]]]
			bags[cid] = b
			if cap(b) > 0 && !seeds[&b[:1][0]] {
				seeds[&b[:1][0]] = true
				sol.bagSlots += cap(b)
			}
			continue
		}
		sol.Evaluations++
		for _, f := range ms {
			for _, ci := range owned.edges[owned.off[f]:owned.off[f+1]] {
				sol.checkCancel()
				c := &s.L2s[ci]
				for k := range c.Crosses {
					m.cross(&c.Crosses[k], sol.setVals, s.PhaseCode)
				}
			}
			for _, g := range s.Calls.Callees(int(f)) {
				if c := comp[g]; c != cid && took[c] != cid+1 {
					took[c] = cid + 1
					m.bag(bags[c])
				}
			}
		}
		b, fresh := m.union()
		bags[cid] = b
		if fresh {
			sol.bagSlots += cap(b)
		}
	}
	for f, c := range comp {
		sol.pairVals[s.MethodM[f]] = bags[c]
	}
}
