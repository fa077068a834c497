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
// Both levels take a per-method keep mask, nil for a solve from
// scratch. SolveDelta passes the methods outside its dirty closure:
// their variables arrive seeded with their least values, so a
// component whose members all belong to kept methods takes its seeded
// value and is neither evaluated nor re-materialized. Every other
// component is solved as usual, reading kept values as final inputs.

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
	nv := len(s.SetVarNames)
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

// keptComps marks the components whose members all belong to methods
// keep marks, and counts the variables they hold. It returns nil when
// keep is nil (a solve from scratch).
func keptComps(keep []bool, owner []MethodID, comp []int32, ncomp int32) (kept []bool, nkept int) {
	if keep == nil {
		return nil, 0
	}
	kept = make([]bool, ncomp)
	for c := range kept {
		kept[c] = true
	}
	for v, c := range comp {
		if !keep[owner[v]] {
			kept[c] = false
		}
	}
	for _, c := range comp {
		if kept[c] {
			nkept++
		}
	}
	return kept, nkept
}

// solveTopoL1 computes the level-1 least solution by SCC condensation.
// keep is the per-method keep mask described at the top of the file.
func (sol *Solution) solveTopoL1(keep []bool) {
	s := sol.sys
	nv := len(s.SetVarNames)
	if nv == 0 {
		return
	}
	n := s.P.NumLabels()

	lhsL1, subSrc, g := s.l1Graph()
	comp, ncomp := tarjanSCC(nv, g)
	members := memberCSR(comp, ncomp)
	kept, nkept := keptComps(keep, s.SetVarOwner, comp, ncomp)

	// One final Set per solved variable, all drawn from a single slab:
	// the materialization below gives every variable a
	// pointer-distinct set, so callers never observe the internal
	// aliasing.
	slab := intset.NewBatch(n, nv-nkept)
	nextSet := 0

	vals := make([]*intset.Set, ncomp) // component value (maybe aliased)
	owner := make([]int32, ncomp)      // var that owns vals, -1 if aliased
	for cid := range owner {
		owner[cid] = -1
	}

	for cid := ncomp - 1; cid >= 0; cid-- {
		ms := members.edges[members.off[cid]:members.off[cid+1]]
		if kept != nil && kept[cid] {
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
		val := slab[nextSet]
		nextSet++
		sol.evalL1Comp(cid, ms, comp, lhsL1, subSrc, vals, val)
		vals[cid] = val
		owner[cid] = ms[0]
	}

	// Materialize: the owning variable keeps the component's set;
	// every other variable (SCC co-members and copy-elided aliases)
	// gets its own copy from the slab.
	for v := 0; v < nv; v++ {
		cid := comp[v]
		if kept != nil && kept[cid] {
			continue
		}
		if owner[cid] == int32(v) {
			sol.setVals[v] = vals[cid]
			continue
		}
		cp := slab[nextSet]
		nextSet++
		cp.CopyFrom(vals[cid])
		sol.setVals[v] = cp
	}
}

// evalL1Comp evaluates every level-1 constraint of one component
// against the (final) values of its predecessor components,
// accumulating into val.
func (sol *Solution) evalL1Comp(cid int32, ms []int32, comp, lhsL1 []int32, subSrc graphCSR, vals []*intset.Set, val *intset.Set) {
	s := sol.sys
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

// solveTopoL2 computes the level-2 least solution by SCC condensation.
// Level-1 is final, so every cross term is a constant; the graph is
// over pair variables only. Pair values are sparse bags, and here the
// aliasing is kept (bags are immutable once stored, and PairValue
// densifies a copy), so a copy-elided chain of m variables shares one
// bag instead of duplicating it per variable. keep is the per-method
// keep mask described at the top of the file.
func (sol *Solution) solveTopoL2(keep []bool) {
	s := sol.sys
	np := len(s.PairVarNames)
	if np == 0 {
		return
	}

	lhsL2, g := s.l2Graph()
	comp, ncomp := tarjanSCC(np, g)
	members := memberCSR(comp, ncomp)
	kept, _ := keptComps(keep, s.PairVarOwner, comp, ncomp)

	bags := make([]pairBag, ncomp)
	for cid := ncomp - 1; cid >= 0; cid-- {
		ms := members.edges[members.off[cid]:members.off[cid+1]]
		if kept != nil && kept[cid] {
			bags[cid] = sol.pairVals[ms[0]]
			continue
		}
		if len(ms) == 1 {
			if src, ok := s.l2SingleInflow(ms[0], cid, comp, lhsL2, sol.setVals); ok {
				bags[cid] = bags[src]
				continue
			}
		}
		bags[cid] = sol.evalL2Comp(cid, ms, comp, lhsL2, bags)
	}

	for v := 0; v < np; v++ {
		if kept == nil || !kept[comp[v]] {
			sol.pairVals[v] = bags[comp[v]]
		}
	}
}

// l2Graph builds the level-2 dependency machinery: lhsL2[v] is the
// index of the L2 constraint defining v (-1 if none) and g has
// dependency edges source → LHS over pair variables only (level-1 is
// final by the time level-2 runs, so cross terms contribute no
// edges).
func (s *System) l2Graph() (lhsL2 []int32, g graphCSR) {
	np := len(s.PairVarNames)
	lhsL2 = make([]int32, np)
	for i := range lhsL2 {
		lhsL2[i] = -1
	}
	for ci, c := range s.L2s {
		lhsL2[c.LHS] = int32(ci)
	}

	g = graphCSR{off: make([]int32, np+1)}
	for _, c := range s.L2s {
		for _, v := range c.Pairs {
			g.off[v+1]++
		}
	}
	for v := 1; v <= np; v++ {
		g.off[v] += g.off[v-1]
	}
	g.edges = make([]int32, g.off[np])
	pos := make([]int32, np)
	copy(pos, g.off[:np])
	for _, c := range s.L2s {
		for _, v := range c.Pairs {
			g.edges[pos[v]] = int32(c.LHS)
			pos[v]++
		}
	}
	return lhsL2, g
}

// evalL2Comp builds one component's pair bag from its cross terms and
// the (final) bags of its predecessor components.
func (sol *Solution) evalL2Comp(cid int32, ms []int32, comp, lhsL2 []int32, bags []pairBag) pairBag {
	s := sol.sys
	var bag pairBag
	for _, m := range ms {
		ci := lhsL2[m]
		if ci < 0 {
			continue
		}
		sol.Evaluations++
		sol.checkCancel()
		c := &s.L2s[ci]
		for _, ct := range c.Crosses {
			bag.crossSym(ct.Const, sol.setVals[ct.Var], s.PhaseCode)
		}
		for _, v := range c.Pairs {
			if comp[v] != cid {
				bag.unionWith(bags[comp[v]])
			}
		}
	}
	return bag
}

// l2SingleInflow reports whether pair variable m (a singleton
// component cid) is a pure copy of exactly one earlier component: no
// effective cross term (level-1 is final, so a cross with an empty
// operand is permanently empty), no self-loop, and all pair inflows
// from one component.
func (s *System) l2SingleInflow(m int32, cid int32, comp []int32, lhsL2 []int32, setVals []*intset.Set) (int32, bool) {
	ci := lhsL2[m]
	if ci < 0 {
		return 0, false
	}
	c := &s.L2s[ci]
	for _, ct := range c.Crosses {
		if ct.Const != nil && !ct.Const.Empty() && !setVals[ct.Var].Empty() {
			return 0, false
		}
	}
	src := int32(-1)
	for _, v := range c.Pairs {
		vc := comp[v]
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
