package constraints

import (
	"context"
	"time"

	"fx10/internal/intset"
	"fx10/internal/syntax"
)

// Delta solving: re-solve only the methods an edit can have affected,
// seeding everything else from a previous solution.
//
// The soundness argument rests on the method partition. Every
// variable is owned by one method (System.SetVarOwner/PairVarOwner),
// and the only constraints crossing method boundaries follow call
// edges: a call site reads the callee's oᵢ/mᵢ (context-sensitive),
// and context-insensitively the callee's rᵢ reads the call site's r.
// So a method's solved values depend only on its call-graph subtree
// (context-sensitive) or its weakly connected component
// (context-insensitive). If that region is structurally unchanged
// between the previous program and this one, the least solution
// restricted to the method's variables is unchanged too — up to the
// global label renumbering an edit elsewhere induces, which the
// per-method structural correspondence walk recovers exactly.
//
// Methods whose region may have changed form the closure: the dirty
// methods plus their transitive callers (context-sensitive; closed
// under SCCs by construction, since cycle members are mutual
// transitive callers) or their weak components over the union of the
// old and new call graphs (context-insensitive — the old graph
// matters because a removed call edge can strand stale caller-context
// labels). Every set variable and m summary outside the closure is
// seeded from the previous valuation through the label remap and is
// provably already at its least fixpoint. The closure is re-solved by
// topo's passes with the other methods kept (topo.go): their level-1
// components and call-graph SCCs take their seeded values and are
// never re-evaluated. No SCC of either kind straddles the closure
// boundary: context-sensitively a cycle through two methods makes each
// a transitive caller of the other, and context-insensitively the
// closure holds whole weak components of the call graph.
//
// Any structural surprise — a method with no same-named predecessor,
// a correspondence mismatch, a previous value mentioning a label the
// remap does not cover — widens the closure or falls back to a full
// solve. The result is bitwise-identical to solving from scratch
// (the engine's delta equivalence tests and difffuzz's incremental
// oracle check this program-by-program).

// DeltaInfo reports what SolveDelta actually did.
type DeltaInfo struct {
	// Full is true when the delta path was abandoned for a full
	// re-solve (incompatible previous solution, or a previous value
	// outside the remap's domain).
	Full bool
	// Closure lists the methods that were re-solved, ascending.
	Closure []MethodID
	// MethodsReused and MethodsResolved partition the program's
	// methods: seeded from the previous solution vs re-solved. The
	// solution's Evaluations counts the constraint evaluations of the
	// closure (or fallback) solve.
	MethodsReused, MethodsResolved int
}

// SolveDelta computes the least solution of s, reusing prev — a least
// solution of a previous version of the program — for every method
// outside the dirty closure. dirty must list every method of s.P
// whose own body differs from its same-named method in prev's program
// (callers of dirty methods need not be listed; the closure adds
// them). The returned solution is bitwise-identical to s.Solve.
func (s *System) SolveDelta(prev *Solution, dirty []MethodID) (*Solution, DeltaInfo) {
	return s.solveDelta(context.Background(), prev, dirty)
}

// solveDelta is the shared core of SolveDelta and SolveDeltaCtx. It
// unwinds with a canceledPanic when ctx is cancelled mid-solve.
func (s *System) solveDelta(ctx context.Context, prev *Solution, dirty []MethodID) (*Solution, DeltaInfo) {
	if prev == nil || prev.sys == nil || prev.sys.Mode != s.Mode || prev.sys.Calls == nil {
		return s.fullFallback(ctx)
	}
	prevSys := prev.sys
	prevP := prevSys.P
	p := s.P

	// matchNewToPrev[mi] is the index of prev's same-named method
	// (-1 when absent). Methods without a predecessor are dirty by
	// definition.
	matchNewToPrev := make([]int, len(p.Methods))
	isDirty := make([]bool, len(p.Methods))
	for _, mi := range dirty {
		if mi >= 0 && mi < len(isDirty) {
			isDirty[mi] = true
		}
	}
	for mi, m := range p.Methods {
		pj, ok := prevP.MethodIndex(m.Name)
		if !ok {
			pj = -1
			isDirty[mi] = true
		}
		matchNewToPrev[mi] = pj
	}

	// Grow the dirty set to a fixpoint: compute the closure, then try
	// to build the label correspondence for every method outside it;
	// a method that fails (its body shape differs from its same-named
	// predecessor after all) joins the dirty set and the closure is
	// recomputed. Terminates because the dirty set only grows.
	n := p.NumLabels()
	remap := make([]int, prevP.NumLabels()) // prev label → new label
	identSelf := make([]bool, len(p.Methods))
	var inClosure []bool
	for {
		if s.Mode == ContextSensitive {
			inClosure = s.Calls.CallerClosure(dirtyList(isDirty))
		} else {
			inClosure = s.componentClosureWithPrev(prevSys, isDirty, matchNewToPrev)
		}
		for i := range remap {
			remap[i] = -1
		}
		grew := false
		for mi := range p.Methods {
			if inClosure[mi] {
				continue
			}
			ident := true
			pj := matchNewToPrev[mi]
			if pj < 0 || !correspond(p.Methods[mi].Body, prevP.Methods[pj].Body, remap, &ident) ||
				len(s.SetVarsOf(mi)) != len(prevSys.SetVarsOf(pj)) {
				isDirty[mi] = true
				grew = true
				continue
			}
			// Phase agreement: the previous pair values were pruned
			// under the previous program's phase codes, so a method is
			// reusable only if every one of its labels keeps the same
			// abstract clock phase. An edit elsewhere (say an extra
			// next in main) can shift a structurally untouched helper's
			// phases; that helper joins the dirty set here and the
			// closure re-derives everything whose pruning could differ.
			if (s.PhaseCode != nil || prevSys.PhaseCode != nil) &&
				!phasesAgree(p.Methods[mi].Body, prevP.Methods[pj].Body, s.PhaseCode, prevSys.PhaseCode) {
				isDirty[mi] = true
				grew = true
				continue
			}
			identSelf[mi] = ident
		}
		if !grew {
			break
		}
	}

	// identVals[mi] means method mi's previous values can be reused
	// verbatim, with no per-element translation: its own label
	// correspondence is the identity, and so is every method's whose
	// labels can appear in its values — callees (summaries flow up)
	// and, context-insensitively, callers too (call-site context flows
	// down). Closed by fixpoint; the booleans only flip one way.
	identVals := make([]bool, len(p.Methods))
	for mi := range p.Methods {
		identVals[mi] = !inClosure[mi] && identSelf[mi]
	}
	for changed := true; changed; {
		changed = false
		for mi := range p.Methods {
			if !identVals[mi] {
				continue
			}
			ok := true
			for _, c := range s.Calls.Callees(mi) {
				if !identVals[c] {
					ok = false
					break
				}
			}
			if ok && s.Mode == ContextInsensitive {
				for _, c := range s.Calls.Callers(mi) {
					if !identVals[c] {
						ok = false
						break
					}
				}
			}
			if !ok {
				identVals[mi] = false
				changed = true
			}
		}
	}

	alloc0 := HeapAllocBytes()
	start := time.Now()

	keep := make([]bool, len(p.Methods))
	nkept := 0
	for mi, in := range inClosure {
		if !in {
			keep[mi] = true
			nkept += len(s.SetVarsOf(mi))
		}
	}
	sol := &Solution{
		sys:         s,
		setVals:     make([]*intset.Set, s.NumSetVars()),
		pairVals:    make([]pairBag, s.NumPairVars()),
		IterSlabels: s.Info.Iterations,
	}
	sol.cancel.arm(ctx)

	// Seed every kept method's set variables and m summary (topo
	// solves level 2 per method, so no statement-level m is seeded);
	// the closure is left to the topo passes, which allocate it.
	// Identity methods (identVals) reuse the values verbatim:
	// word-copied sets and the aliased bag, safe because no bag is
	// mutated once stored (pairbag.go). The rest translate through the
	// label remap. A previous value containing a label the remap does
	// not cover means influence from outside the reused region, so
	// everything is re-solved (the defensive backstop; it cannot
	// legitimately happen for the closures computed above).
	seeded := intset.NewBatch(n, nkept)
	sol.nsets = nkept
	for mi := range p.Methods {
		if !keep[mi] {
			continue
		}
		pj := matchNewToPrev[mi]
		for _, v := range s.SetVarsOf(mi) {
			sol.setVals[v] = seeded[0]
			seeded = seeded[1:]
		}
		prevSet := prevSys.SetVarsOf(pj)
		prevM := prev.pairVals[prevSys.MethodM[pj]]
		if identVals[mi] {
			ok := true
			for k, v := range s.SetVarsOf(mi) {
				if !sol.setVals[v].CopyFromFit(prev.setVals[prevSet[k]]) {
					ok = false
					break
				}
			}
			if ok {
				sol.pairVals[s.MethodM[mi]] = prevM
				continue
			}
			// An element outside the new universe: fall through to the
			// checked remap path, which re-derives or rejects it.
		}
		for k, v := range s.SetVarsOf(mi) {
			dst := sol.setVals[v]
			dst.Clear()
			if !remapSetInto(dst, prev.setVals[prevSet[k]], remap) {
				return s.fullFallback(ctx)
			}
		}
		bag, ok := remapBag(prevM, remap)
		if !ok {
			return s.fullFallback(ctx)
		}
		sol.pairVals[s.MethodM[mi]] = bag
	}

	sol.solveTopoL1(keep)
	sol.solveTopoL2(keep)

	sol.Duration = time.Since(start)
	sol.AllocBytes = HeapAllocBytes() - alloc0
	sol.footprint()

	var info DeltaInfo
	for mi := range p.Methods {
		if inClosure[mi] {
			info.Closure = append(info.Closure, mi)
			info.MethodsResolved++
		} else {
			info.MethodsReused++
		}
	}
	return sol, info
}

// fullFallback solves from scratch and reports it.
func (s *System) fullFallback(ctx context.Context) (*Solution, DeltaInfo) {
	sol := s.solve(ctx, Topo)
	info := DeltaInfo{Full: true, MethodsResolved: len(s.P.Methods)}
	for mi := range s.P.Methods {
		info.Closure = append(info.Closure, mi)
	}
	return sol, info
}

func dirtyList(isDirty []bool) []MethodID {
	var out []MethodID
	for mi, d := range isDirty {
		if d {
			out = append(out, mi)
		}
	}
	return out
}

// componentClosureWithPrev computes the context-insensitive closure:
// the weakly connected components of the dirty methods (rᵢ variables
// flow caller→callee while oᵢ/mᵢ flow callee→caller, so influence
// propagates along call edges in both directions) over the union of
// the new call graph and the previous one (prev methods
// identified with new ones by name; prev methods with no same-named
// survivor count as dirty, since whatever context they contributed is
// gone). Returned marks are over the new program's methods.
func (s *System) componentClosureWithPrev(prevSys *System, isDirty []bool, matchNewToPrev []int) []bool {
	p := s.P
	prevP := prevSys.P
	matchPrevToNew := make([]int, len(prevP.Methods))
	for i := range matchPrevToNew {
		matchPrevToNew[i] = -1
	}
	for mi, pj := range matchNewToPrev {
		if pj >= 0 {
			matchPrevToNew[pj] = mi
		}
	}

	markNew := make([]bool, len(p.Methods))
	markPrev := make([]bool, len(prevP.Methods))
	// The frontier holds new-space indices and prev-space indices
	// (offset by len(p.Methods)).
	var stack []int
	pushNew := func(mi int) {
		if !markNew[mi] {
			markNew[mi] = true
			stack = append(stack, mi)
		}
	}
	pushPrev := func(pj int) {
		if !markPrev[pj] {
			markPrev[pj] = true
			stack = append(stack, len(p.Methods)+pj)
		}
	}
	for mi, d := range isDirty {
		if d {
			pushNew(mi)
		}
	}
	for pj, mi := range matchPrevToNew {
		if mi < 0 {
			pushPrev(pj) // deleted or renamed away: its context is gone
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v < len(p.Methods) {
			for _, c := range s.Calls.Callers(v) {
				pushNew(c)
			}
			for _, c := range s.Calls.Callees(v) {
				pushNew(c)
			}
			if pj := matchNewToPrev[v]; pj >= 0 {
				pushPrev(pj)
			}
		} else {
			pj := v - len(p.Methods)
			for _, c := range prevSys.Calls.Callers(pj) {
				pushPrev(c)
			}
			for _, c := range prevSys.Calls.Callees(pj) {
				pushPrev(c)
			}
			if mi := matchPrevToNew[pj]; mi >= 0 {
				pushNew(mi)
			}
		}
	}
	return markNew
}

// correspond walks two method bodies in lockstep, checking structural
// equality (kinds, indices, expressions, callee names) and recording
// the prev→new label correspondence. It returns false on any shape
// difference; remap entries written before a failure are simply
// unused (the method joins the dirty set and the remap is rebuilt).
// ident is cleared when any label of the walk is renumbered, i.e. the
// recorded correspondence is not the identity on this body.
func correspond(a, b *syntax.Stmt, remap []int, ident *bool) bool {
	// a is the new body, b the previous one.
	for ; a != nil && b != nil; a, b = a.Next, b.Next {
		ai, bi := a.Instr, b.Instr
		if ai.Kind() != bi.Kind() {
			return false
		}
		switch x := ai.(type) {
		case *syntax.Assign:
			y := bi.(*syntax.Assign)
			if x.D != y.D || x.Rhs != y.Rhs {
				return false
			}
		case *syntax.While:
			y := bi.(*syntax.While)
			if x.D != y.D || !correspond(x.Body, y.Body, remap, ident) {
				return false
			}
		case *syntax.Async:
			y := bi.(*syntax.Async)
			if x.Place != y.Place || x.Clocked != y.Clocked || !correspond(x.Body, y.Body, remap, ident) {
				return false
			}
		case *syntax.Finish:
			if !correspond(x.Body, bi.(*syntax.Finish).Body, remap, ident) {
				return false
			}
		case *syntax.Call:
			if x.Name != bi.(*syntax.Call).Name {
				return false
			}
		}
		if bi.Label() != ai.Label() {
			*ident = false
		}
		remap[bi.Label()] = int(ai.Label())
	}
	return a == nil && b == nil
}

// phaseAt reads a label's phase code, treating a nil slice (clock-free
// system) as all-unknown.
func phaseAt(code []int32, l syntax.Label) int32 {
	if code == nil {
		return -1
	}
	return code[l]
}

// phasesAgree walks two already-corresponding bodies in lockstep and
// reports whether every label carries the same abstract phase code in
// both systems. Shapes are known equal (correspond succeeded), so the
// nested bodies line up.
func phasesAgree(a, b *syntax.Stmt, newCode, prevCode []int32) bool {
	for ; a != nil && b != nil; a, b = a.Next, b.Next {
		if phaseAt(newCode, a.Instr.Label()) != phaseAt(prevCode, b.Instr.Label()) {
			return false
		}
		if ba := syntax.Body(a.Instr); ba != nil {
			if !phasesAgree(ba, syntax.Body(b.Instr), newCode, prevCode) {
				return false
			}
		}
	}
	return true
}

// remapSetInto translates every element of src through remap into
// dst, reporting false if any element is unmapped.
func remapSetInto(dst *intset.Set, src *intset.Set, remap []int) bool {
	ok := true
	src.Each(func(e int) {
		ne := remap[e]
		if ne < 0 {
			ok = false
			return
		}
		dst.Add(ne)
	})
	return ok
}
