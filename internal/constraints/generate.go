package constraints

import (
	"fx10/internal/clocks"
	"fx10/internal/intset"
	"fx10/internal/labels"
	"fx10/internal/syntax"
)

// Generate builds the constraint system C(p) for the program behind
// in, in the given mode. Constraint shapes follow equations (57)–(82)
// (and (83)–(84) for ContextInsensitive), extended uniformly to
// statements whose final instruction is not a skip: an absent
// continuation contributes nothing to m and leaves o equal to the
// instruction's own "still running afterwards" set, mirroring the
// treatment in internal/types.
//
// Constraints are emitted in dependency-friendly order so that the
// Gauss–Seidel solver converges in few passes, as the paper's
// implementation does: methods are ordered callee-first (level-1
// information flows callee→caller through the oᵢ variables in the
// context-sensitive analysis), r constraints are emitted in pre-order
// (they flow root-to-leaf) and o/m constraints in post-order (they
// flow leaf-to-root). The context-insensitive mode adds
// caller→callee flows through the rᵢ variables, which is why it needs
// more level-1 passes (the Figure 9 effect).
//
// Every set variable is the LHS of exactly one L1 constraint and every
// pair variable of exactly one L2, and a statement adds at most three
// level-1 inflows, two cross terms and two pair inflows. So the
// constraint arrays, the variable tables and the three operand arrays
// the constraints' slices are cut from are each allocated once, at
// their final capacity.
func Generate(in *labels.Info, mode Mode) *System {
	p := in.Program()
	n, nm := p.NumLabels(), len(p.Methods)
	nset, npair := 2*n+nm, n+nm
	if mode == ContextInsensitive {
		nset += nm
	}
	s := &System{
		P:            p,
		Info:         in,
		Mode:         mode,
		L1s:          make([]L1, 0, nset),
		L2s:          make([]L2, 0, npair),
		StmtR:        make([]SetVar, n),
		StmtO:        make([]SetVar, n),
		StmtM:        make([]PairVar, n),
		MethodO:      make([]SetVar, nm),
		MethodM:      make([]PairVar, nm),
		SetVarOwner:  make([]MethodID, 0, nset),
		PairVarOwner: make([]MethodID, 0, npair),
	}
	g := &generator{
		s:       s,
		in:      in,
		vars:    make([]SetVar, 0, 3*n+2*nm),
		crosses: make([]CrossTerm, 0, 2*n),
		pairs:   make([]PairVar, 0, 2*n+nm),
	}

	// Per-method variables first, so call-site constraints can refer
	// to any method.
	if mode == ContextInsensitive {
		s.MethodR = make([]SetVar, nm)
	}
	for i := range p.Methods {
		s.MethodO[i] = g.newSetVar(i)
		s.MethodM[i] = g.newPairVar(i)
		if mode == ContextInsensitive {
			s.MethodR[i] = g.newSetVar(i)
		}
	}

	for _, i := range calleeFirstOrder(p) {
		body := p.Methods[i].Body
		g.allocStmt(body, i)
		// Equation (57) / (84): the body's R is ∅, or rᵢ when
		// context-insensitive.
		if mode == ContextInsensitive {
			g.l1(g.r(body), nil, s.MethodR[i])
			// rᵢ itself is defined only by the subset constraints
			// from call sites; give it the empty base equation.
			g.l1(s.MethodR[i], nil)
		} else {
			g.l1(g.r(body), nil)
		}

		g.genStmt(body)

		// Equations (58), (59), after the body so oᵢ/mᵢ see the
		// body's solved values within the same pass.
		g.l1(s.MethodO[i], nil, g.o(body))
		g.l2(s.MethodM[i], nil, g.m(body))
	}
	s.methodSetVars = varsByOwner[SetVar](s.SetVarOwner, nm)
	s.Calls = NewCallGraph(p)

	// Section 8 clocks: programs that use the clock get the static
	// phase analysis attached, and the solvers filter symcross through
	// its codes — two labels at known, different phases are serialized
	// by the barrier, so their pair never enters the level-2 system.
	// Clock-free programs pay nothing (nil slice disables the filter).
	if p.UsesClocks() {
		s.Phases = clocks.ComputePhases(p)
		s.PhaseCode = s.Phases.Codes()
	}
	return s
}

// calleeFirstOrder returns the method indices in reverse call-graph
// order (callees before callers where the call graph permits; cycles
// are broken at the DFS back edge). Unreachable methods follow in
// index order.
func calleeFirstOrder(p *syntax.Program) []int {
	visited := make([]bool, len(p.Methods))
	var order []int
	var visit func(int)
	visit = func(mi int) {
		if visited[mi] {
			return
		}
		visited[mi] = true
		p.Methods[mi].Body.EachDeep(func(i syntax.Instr) {
			if c, ok := i.(*syntax.Call); ok {
				visit(c.Method)
			}
		})
		order = append(order, mi)
	}
	visit(p.MainIndex)
	for mi := range p.Methods {
		visit(mi)
	}
	return order
}

// generator appends the constraints' operands to three shared arrays
// and cuts each constraint's slices from them with full slice
// expressions, so no append can write into a neighbour's operands.
type generator struct {
	s       *System
	in      *labels.Info
	vars    []SetVar
	crosses []CrossTerm
	pairs   []PairVar
}

// newSetVar allocates a set variable owned by method mi.
func (g *generator) newSetVar(mi MethodID) SetVar {
	v := SetVar(len(g.s.SetVarOwner))
	g.s.SetVarOwner = append(g.s.SetVarOwner, mi)
	return v
}

// newPairVar allocates a pair variable owned by method mi.
func (g *generator) newPairVar(mi MethodID) PairVar {
	v := PairVar(len(g.s.PairVarOwner))
	g.s.PairVarOwner = append(g.s.PairVarOwner, mi)
	return v
}

// allocStmt allocates r/o/m variables, owned by method mi, for every
// statement node (suffix) reachable from st, including nested bodies,
// in pre-order.
func (g *generator) allocStmt(st *syntax.Stmt, mi MethodID) {
	for cur := st; cur != nil; cur = cur.Next {
		l := cur.Instr.Label()
		g.s.StmtR[l] = g.newSetVar(mi)
		g.s.StmtO[l] = g.newSetVar(mi)
		g.s.StmtM[l] = g.newPairVar(mi)
		if b := syntax.Body(cur.Instr); b != nil {
			g.allocStmt(b, mi)
		}
	}
}

// r, o and m return a statement node's variables.
func (g *generator) r(st *syntax.Stmt) SetVar  { return g.s.StmtR[st.Instr.Label()] }
func (g *generator) o(st *syntax.Stmt) SetVar  { return g.s.StmtO[st.Instr.Label()] }
func (g *generator) m(st *syntax.Stmt) PairVar { return g.s.StmtM[st.Instr.Label()] }

// l1 appends LHS = const ∪ vars….
func (g *generator) l1(lhs SetVar, c *intset.Set, vars ...SetVar) {
	v0 := len(g.vars)
	g.vars = append(g.vars, vars...)
	v1 := len(g.vars)
	g.s.L1s = append(g.s.L1s, L1{LHS: lhs, Const: c, Vars: g.vars[v0:v1:v1]})
}

// l2 appends LHS = crosses ∪ pairs….
func (g *generator) l2(lhs PairVar, crosses []CrossTerm, pairs ...PairVar) {
	c0, p0 := len(g.crosses), len(g.pairs)
	g.crosses = append(g.crosses, crosses...)
	g.pairs = append(g.pairs, pairs...)
	c1, p1 := len(g.crosses), len(g.pairs)
	g.s.L2s = append(g.s.L2s, L2{LHS: lhs, Crosses: g.crosses[c0:c1:c1], Pairs: g.pairs[p0:p1:p1]})
}

// lcross builds the Lcross(l, v) cross term.
func lcross(l syntax.Label, v SetVar) CrossTerm { return CrossTerm{Kind: KLcross, Label: l, Var: v} }

// scross builds the Scross(s, v) cross term for a statement.
func (g *generator) scross(body *syntax.Stmt, v SetVar) CrossTerm {
	return CrossTerm{Kind: KScross, Label: body.Instr.Label(), Const: g.in.Slabels(body), Var: v}
}

// symcrossMethod builds symcross(Slabels(p(f)), v) for a callee.
func (g *generator) symcrossMethod(mi MethodID, v SetVar) CrossTerm {
	return CrossTerm{Kind: KSymcross, Method: mi, Const: g.in.MethodLabels(mi), Var: v}
}

// genStmt emits the constraints for the statement node cur and
// everything nested in or following it: r constraints on the way
// down, o and m constraints on the way back up. Variables must
// already be allocated.
func (g *generator) genStmt(cur *syntax.Stmt) {
	if cur == nil {
		return
	}
	s := g.s
	l := cur.Instr.Label()
	k := cur.Next
	rS, oS, mS := s.StmtR[l], s.StmtO[l], s.StmtM[l]

	switch i := cur.Instr.(type) {
	case *syntax.Skip, *syntax.Assign, *syntax.Next:
		// Equations (60)–(67); next is clock-erased (see
		// internal/types), so it constrains like a skip.
		if k != nil {
			g.l1(g.r(k), nil, rS)
			g.genStmt(k)
			g.l1(oS, nil, g.o(k))
			g.l2(mS, []CrossTerm{lcross(l, rS)}, g.m(k))
		} else {
			g.l1(oS, nil, rS)
			g.l2(mS, []CrossTerm{lcross(l, rS)})
		}

	case *syntax.While:
		// Equations (68)–(71).
		b := i.Body
		g.l1(g.r(b), nil, rS)
		g.genStmt(b)
		crosses := []CrossTerm{lcross(l, g.o(b)), g.scross(b, g.o(b))}
		if k != nil {
			g.l1(g.r(k), nil, g.o(b))
			g.genStmt(k)
			g.l1(oS, nil, g.o(k))
			g.l2(mS, crosses, g.m(b), g.m(k))
		} else {
			g.l1(oS, nil, g.o(b))
			g.l2(mS, crosses, g.m(b))
		}

	case *syntax.Async:
		// Equations (72)–(75).
		b := i.Body
		if k != nil {
			g.l1(g.r(b), g.in.Slabels(k), rS)
			g.l1(g.r(k), g.in.Slabels(b), rS)
			g.genStmt(b)
			g.genStmt(k)
			g.l1(oS, nil, g.o(k))
			g.l2(mS, []CrossTerm{lcross(l, rS)}, g.m(b), g.m(k))
		} else {
			g.l1(g.r(b), nil, rS)
			g.genStmt(b)
			g.l1(oS, g.in.Slabels(b), rS)
			g.l2(mS, []CrossTerm{lcross(l, rS)}, g.m(b))
		}

	case *syntax.Finish:
		// Equations (76)–(79).
		b := i.Body
		g.l1(g.r(b), nil, rS)
		g.genStmt(b)
		if k != nil {
			g.l1(g.r(k), nil, rS)
			g.genStmt(k)
			g.l1(oS, nil, g.o(k))
			g.l2(mS, []CrossTerm{lcross(l, rS)}, g.m(b), g.m(k))
		} else {
			g.l1(oS, nil, rS)
			g.l2(mS, []CrossTerm{lcross(l, rS)}, g.m(b))
		}

	case *syntax.Call:
		// Equations (80)–(82), plus (83) when context-insensitive.
		fi := i.Method
		if s.Mode == ContextInsensitive {
			s.Subsets = append(s.Subsets, Subset{Sup: s.MethodR[fi], Sub: rS})
		}
		crosses := []CrossTerm{lcross(l, rS), g.symcrossMethod(fi, rS)}
		if k != nil {
			g.l1(g.r(k), nil, rS, s.MethodO[fi])
			g.genStmt(k)
			g.l1(oS, nil, g.o(k))
			g.l2(mS, crosses, s.MethodM[fi], g.m(k))
		} else {
			g.l1(oS, nil, rS, s.MethodO[fi])
			g.l2(mS, crosses, s.MethodM[fi])
		}
	}
}
