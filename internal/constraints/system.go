// Package constraints implements the constraint-based type inference
// of Section 5 of the paper: constraint generation (equations
// (57)–(82)), the context-insensitive variant of Section 7 (equations
// (83)–(84)), and two solvers for the least solution (Algorithm):
// the three-phase iterative solver of Section 5.3 (Slabels, then
// level-1, then level-2), which is the reference, and the
// SCC-condensing topological solver the engine serves by default and
// incremental re-solving (SolveDelta) reuses for the dirty closure.
//
// For every statement s (every suffix position, i.e. every
// instruction) the generator introduces the set variables r_s and o_s
// and the pair variable m_s; for every method fᵢ it introduces oᵢ and
// mᵢ (and, context-insensitively, rᵢ). Level-1 constraints relate r/o
// variables; level-2 constraints define m variables from cross terms
// and other m variables.
package constraints

import (
	"fmt"
	"sort"
	"strings"

	"fx10/internal/clocks"
	"fx10/internal/intset"
	"fx10/internal/labels"
	"fx10/internal/syntax"
)

// Mode selects between the paper's context-sensitive analysis
// (Section 5) and the context-insensitive baseline (Section 7).
type Mode int

const (
	// ContextSensitive is the paper's analysis: method bodies are
	// analyzed once under R = ∅ and call sites splice in summaries.
	ContextSensitive Mode = iota
	// ContextInsensitive merges the R sets of all call sites of a
	// method into a per-method rᵢ variable (equations (83)–(84)).
	ContextInsensitive
)

func (m Mode) String() string {
	if m == ContextSensitive {
		return "context-sensitive"
	}
	return "context-insensitive"
}

// ParseMode is the inverse of Mode.String, which also accepts the
// short forms "sensitive"/"cs" and "insensitive"/"ci"; the empty
// string means ContextSensitive.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "cs", "sensitive", "context-sensitive":
		return ContextSensitive, nil
	case "ci", "insensitive", "context-insensitive":
		return ContextInsensitive, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want cs or ci)", s)
}

// SetVar indexes a level-1 (label set) variable.
type SetVar int

// PairVar indexes a level-2 (label pair set) variable.
type PairVar int

// CrossKind records which helper function a cross term prints as.
type CrossKind int

const (
	// KLcross is Lcross(l, v): the constant is the singleton {l}.
	KLcross CrossKind = iota
	// KScross is Scross_p(s, v): the constant is Slabels_p(s).
	KScross
	// KSymcross is symcross(c, v) for a general constant c (used by
	// the call rule with c = Slabels_p(p(fᵢ))).
	KSymcross
)

// CrossTerm is symcross(Const, value of Var): every cross term in the
// generated constraints has one constant and one variable operand.
type CrossTerm struct {
	Kind  CrossKind
	Name  string // display text for the constant operand
	Const *intset.Set
	Var   SetVar
}

// L1 is a level-1 constraint LHS = Const ∪ Vars[0] ∪ Vars[1] ∪ ….
// Const may be nil (empty). Every set variable is the LHS of exactly
// one L1 constraint.
type L1 struct {
	LHS   SetVar
	Const *intset.Set
	Vars  []SetVar
}

// Subset is the context-insensitive inclusion Sub ⊆ Sup (equation
// (83): r_s ⊆ rᵢ).
type Subset struct {
	Sup SetVar
	Sub SetVar
}

// L2 is a level-2 constraint
// LHS = Crosses[0] ∪ … ∪ Pairs[0] ∪ ….
// Every pair variable is the LHS of exactly one L2 constraint.
type L2 struct {
	LHS     PairVar
	Crosses []CrossTerm
	Pairs   []PairVar
}

// System is a generated constraint system.
type System struct {
	P    *syntax.Program
	Info *labels.Info
	Mode Mode

	SetVarNames  []string
	PairVarNames []string

	L1s     []L1
	Subsets []Subset
	L2s     []L2

	// Per-statement variables, keyed by statement (suffix) node.
	StmtR map[*syntax.Stmt]SetVar
	StmtO map[*syntax.Stmt]SetVar
	StmtM map[*syntax.Stmt]PairVar

	// Per-method variables, indexed like Program.Methods.
	MethodO []SetVar
	MethodM []PairVar
	// MethodR holds the rᵢ variables; only populated in
	// ContextInsensitive mode.
	MethodR []SetVar

	// The method partition: every variable is owned by exactly one
	// method (a statement variable by its enclosing method, a
	// summary variable by the method it summarizes), and Calls is
	// the cross-method dependency layer. Together they let the
	// delta solver (SolveDelta) restrict re-solving to the dirty
	// methods' closure. SetVarsOf/PairVarsOf give each method's
	// variables in ascending index order, which is deterministic in
	// the method's body structure — the correspondence delta seeding
	// relies on.
	SetVarOwner  []MethodID // owner of each SetVar
	PairVarOwner []MethodID // owner of each PairVar
	Calls        *CallGraph

	// Phases is the static clock-phase analysis of the program, set by
	// Generate iff the program uses clocks (Section 8); nil otherwise.
	// PhaseCode is its flattened form (clocks.PhaseInfo.Codes): one
	// int32 per label, the concrete phase for Known labels and -1 for
	// ⊥/⊤. The solvers consult it in crossSym — two labels with
	// non-negative different codes are barrier-ordered, so their pair
	// never enters the level-2 system.
	Phases    *clocks.PhaseInfo
	PhaseCode []int32

	methodSetVars  [][]SetVar
	methodPairVars [][]PairVar
}

// Counts returns the constraint counts reported in Figure 6: the
// number of Slabels equations (one per statement node, equations
// (15)–(21)), of level-1 constraints (including context-insensitive
// subset constraints), and of level-2 constraints.
func (s *System) Counts() (slabels, l1, l2 int) {
	return len(s.StmtM), len(s.L1s) + len(s.Subsets), len(s.L2s)
}

// NumSetVars returns the number of level-1 variables.
func (s *System) NumSetVars() int { return len(s.SetVarNames) }

// NumPairVars returns the number of level-2 variables.
func (s *System) NumPairVars() int { return len(s.PairVarNames) }

// SetVarsOf returns method mi's set variables in ascending variable
// order (shared slice; do not mutate).
func (s *System) SetVarsOf(mi MethodID) []SetVar { return s.methodSetVars[mi] }

// PairVarsOf returns method mi's pair variables in ascending variable
// order (shared slice; do not mutate).
func (s *System) PairVarsOf(mi MethodID) []PairVar { return s.methodPairVars[mi] }

// buildPartition derives the ownership tables and the call-graph
// layer after generation: a statement variable belongs to the method
// whose body contains the statement, a summary variable (oᵢ/mᵢ/rᵢ)
// to the method it summarizes.
func (s *System) buildPartition() {
	p := s.P
	s.SetVarOwner = make([]MethodID, len(s.SetVarNames))
	s.PairVarOwner = make([]MethodID, len(s.PairVarNames))
	for i := range p.Methods {
		s.SetVarOwner[s.MethodO[i]] = i
		s.PairVarOwner[s.MethodM[i]] = i
		if s.MethodR != nil {
			s.SetVarOwner[s.MethodR[i]] = i
		}
	}
	for st, v := range s.StmtR {
		mi := p.Labels[st.Instr.Label()].Method
		s.SetVarOwner[v] = mi
		s.SetVarOwner[s.StmtO[st]] = mi
		s.PairVarOwner[s.StmtM[st]] = mi
	}
	s.methodSetVars = make([][]SetVar, len(p.Methods))
	for v, mi := range s.SetVarOwner {
		s.methodSetVars[mi] = append(s.methodSetVars[mi], SetVar(v))
	}
	s.methodPairVars = make([][]PairVar, len(p.Methods))
	for v, mi := range s.PairVarOwner {
		s.methodPairVars[mi] = append(s.methodPairVars[mi], PairVar(v))
	}
	s.Calls = NewCallGraph(p)
}

// labelSetString renders a constant label set with display names.
func (s *System) labelSetString(set *intset.Set) string {
	if set == nil || set.Empty() {
		return "{}"
	}
	var elems []string
	set.Each(func(e int) { elems = append(elems, s.P.LabelName(syntax.Label(e))) })
	sort.Strings(elems)
	return "{" + strings.Join(elems, ", ") + "}"
}

// String renders the whole system in the notation of Figure 5.
func (s *System) String() string {
	var b strings.Builder
	for _, c := range s.L1s {
		fmt.Fprintf(&b, "%s = %s\n", s.SetVarNames[c.LHS], s.l1RHSString(c))
	}
	for _, c := range s.Subsets {
		fmt.Fprintf(&b, "%s ⊆ %s\n", s.SetVarNames[c.Sub], s.SetVarNames[c.Sup])
	}
	for _, c := range s.L2s {
		fmt.Fprintf(&b, "%s = %s\n", s.PairVarNames[c.LHS], s.l2RHSString(c))
	}
	return b.String()
}

func (s *System) l1RHSString(c L1) string {
	var parts []string
	if c.Const != nil && !c.Const.Empty() {
		parts = append(parts, s.labelSetString(c.Const))
	}
	for _, v := range c.Vars {
		parts = append(parts, s.SetVarNames[v])
	}
	if len(parts) == 0 {
		return "{}"
	}
	return strings.Join(parts, " ∪ ")
}

func (s *System) l2RHSString(c L2) string {
	var parts []string
	for _, ct := range c.Crosses {
		switch ct.Kind {
		case KLcross:
			parts = append(parts, fmt.Sprintf("Lcross(%s, %s)", ct.Name, s.SetVarNames[ct.Var]))
		case KScross:
			parts = append(parts, fmt.Sprintf("Scross(%s, %s)", ct.Name, s.SetVarNames[ct.Var]))
		default:
			parts = append(parts, fmt.Sprintf("symcross(%s, %s)", ct.Name, s.SetVarNames[ct.Var]))
		}
	}
	for _, v := range c.Pairs {
		parts = append(parts, s.PairVarNames[v])
	}
	if len(parts) == 0 {
		return "{}"
	}
	return strings.Join(parts, " ∪ ")
}
