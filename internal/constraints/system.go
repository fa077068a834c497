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
	"sync"

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
	// KLcross is Lcross(l, v): the constant is the singleton {l},
	// carried as the term's Label.
	KLcross CrossKind = iota
	// KScross is Scross_p(s, v): the constant is Slabels_p(s).
	KScross
	// KSymcross is symcross(c, v) for a general constant c (used by
	// the call rule with c = Slabels_p(p(fᵢ))).
	KSymcross
)

// CrossTerm is symcross(constant, value of Var): every cross term in
// the generated constraints has one constant and one variable operand.
// Const is nil for Lcross, whose constant is {Label}; Scross records
// its statement's first label, and symcross its callee's Method.
type CrossTerm struct {
	Kind   CrossKind
	Label  syntax.Label
	Method MethodID
	Const  *intset.Set
	Var    SetVar
}

// eachConst calls f on every label of the term's constant operand, in
// increasing order.
func (ct *CrossTerm) eachConst(f func(int)) {
	if ct.Kind == KLcross {
		f(int(ct.Label))
	} else if ct.Const != nil {
		ct.Const.Each(f)
	}
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

// System is a generated constraint system. It is a few flat arrays,
// each sized once by Generate: the constraints, whose operand slices
// are cut from shared backing arrays, and the variable tables below.
// Variable names exist only for printing (SetVarName, PairVarName).
type System struct {
	P    *syntax.Program
	Info *labels.Info
	Mode Mode

	L1s     []L1
	Subsets []Subset
	L2s     []L2

	// Per-statement variables, indexed by the label of the statement's
	// (suffix's) first instruction. Validate attaches every label to
	// exactly one instruction, so each label names one statement node.
	StmtR []SetVar
	StmtO []SetVar
	StmtM []PairVar

	// Per-method variables, indexed like Program.Methods.
	MethodO []SetVar
	MethodM []PairVar
	// MethodR holds the rᵢ variables; only populated in
	// ContextInsensitive mode.
	MethodR []SetVar

	// The method partition: every variable is owned by exactly one
	// method (a statement variable by its enclosing method, a
	// summary variable by the method it summarizes), and Calls is
	// the cross-method dependency layer. Together they let topo solve
	// level 2 per method and the delta solver (SolveDelta) restrict
	// re-solving to the dirty methods' closure. SetVarsOf gives each
	// method's set variables in ascending index order, which is
	// deterministic in the method's body structure — the
	// correspondence delta seeding relies on. Generate records each
	// owner as it allocates the variable, so the owner tables also
	// count the variables.
	SetVarOwner  []MethodID // owner of each SetVar
	PairVarOwner []MethodID // owner of each PairVar
	Calls        *CallGraph

	// Phases is the static clock-phase analysis of the program, set by
	// Generate iff the program uses clocks (Section 8); nil otherwise.
	// PhaseCode is its flattened form (clocks.PhaseInfo.Codes): one
	// int32 per label, the concrete phase for Known labels and -1 for
	// ⊥/⊤. The solvers consult it in emitCross — two labels with
	// non-negative different codes are barrier-ordered, so their pair
	// never enters the level-2 system.
	Phases    *clocks.PhaseInfo
	PhaseCode []int32

	methodSetVars [][]SetVar

	// The variable names, built on first use (see buildNames).
	namesOnce sync.Once
	setNames  []string
	pairNames []string
}

// Counts returns the constraint counts reported in Figure 6: the
// number of Slabels equations (one per statement node, equations
// (15)–(21)), of level-1 constraints (including context-insensitive
// subset constraints), and of level-2 constraints.
func (s *System) Counts() (slabels, l1, l2 int) {
	return len(s.StmtM), len(s.L1s) + len(s.Subsets), len(s.L2s)
}

// NumSetVars returns the number of level-1 variables.
func (s *System) NumSetVars() int { return len(s.SetVarOwner) }

// NumPairVars returns the number of level-2 variables.
func (s *System) NumPairVars() int { return len(s.PairVarOwner) }

// SetVarsOf returns method mi's set variables in ascending variable
// order (shared slice; do not mutate).
func (s *System) SetVarsOf(mi MethodID) []SetVar { return s.methodSetVars[mi] }

// varsByOwner groups variables 0..len(owner)-1 by owning method, each
// group ascending, all cut from one backing array sized by a counting
// pass.
func varsByOwner[V ~int](owner []MethodID, methods int) [][]V {
	off := make([]int, methods+1)
	for _, mi := range owner {
		off[mi+1]++
	}
	for mi := 1; mi <= methods; mi++ {
		off[mi] += off[mi-1]
	}
	all, out := make([]V, len(owner)), make([][]V, methods)
	for mi := range out {
		out[mi] = all[off[mi]:off[mi]:off[mi+1]]
	}
	for v, mi := range owner {
		out[mi] = append(out[mi], V(v))
	}
	return out
}

// isMethodM reports whether pair variable v is a method's mᵢ.
func (s *System) isMethodM(v PairVar) bool { return s.MethodM[s.PairVarOwner[v]] == v }

// walkL2 calls visit on the level-2 constraint defining v and on that
// of every pair variable reachable from v through Pairs edges into
// which enter lets the walk go; enter sees each variable once.
func (s *System) walkL2(v PairVar, visit func(*L2), enter func(PairVar) bool) {
	lhs := make([]int32, s.NumPairVars())
	for ci := range s.L2s {
		lhs[s.L2s[ci].LHS] = int32(ci)
	}
	seen := make([]bool, s.NumPairVars())
	seen[v] = true
	for stack := []PairVar{v}; len(stack) > 0; {
		c := &s.L2s[lhs[stack[len(stack)-1]]]
		stack = stack[:len(stack)-1]
		visit(c)
		for _, w := range c.Pairs {
			if !seen[w] && enter(w) {
				stack = append(stack, w)
			}
			seen[w] = true
		}
	}
}

// SetVarName returns set variable v's display name, as Figure 5
// writes it: r_/o_ and a label or method name.
func (s *System) SetVarName(v SetVar) string {
	s.buildNames()
	return s.setNames[v]
}

// PairVarName returns pair variable v's display name (m_ and a label
// or method name).
func (s *System) PairVarName(v PairVar) string {
	s.buildNames()
	return s.pairNames[v]
}

// buildNames builds both name tables once. Only printing and tests
// read them, so a system that is only solved never builds them.
func (s *System) buildNames() {
	s.namesOnce.Do(func() {
		s.setNames = make([]string, s.NumSetVars())
		s.pairNames = make([]string, s.NumPairVars())
		for i, m := range s.P.Methods {
			s.setNames[s.MethodO[i]] = "o_" + m.Name
			s.pairNames[s.MethodM[i]] = "m_" + m.Name
			if s.MethodR != nil {
				s.setNames[s.MethodR[i]] = "r_" + m.Name
			}
		}
		for l := range s.StmtR {
			name := s.P.LabelName(syntax.Label(l))
			s.setNames[s.StmtR[l]] = "r_" + name
			s.setNames[s.StmtO[l]] = "o_" + name
			s.pairNames[s.StmtM[l]] = "m_" + name
		}
	})
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
		fmt.Fprintf(&b, "%s = %s\n", s.SetVarName(c.LHS), s.l1RHSString(c))
	}
	for _, c := range s.Subsets {
		fmt.Fprintf(&b, "%s ⊆ %s\n", s.SetVarName(c.Sub), s.SetVarName(c.Sup))
	}
	for _, c := range s.L2s {
		fmt.Fprintf(&b, "%s = %s\n", s.PairVarName(c.LHS), s.l2RHSString(c))
	}
	return b.String()
}

func (s *System) l1RHSString(c L1) string {
	var parts []string
	if c.Const != nil && !c.Const.Empty() {
		parts = append(parts, s.labelSetString(c.Const))
	}
	for _, v := range c.Vars {
		parts = append(parts, s.SetVarName(v))
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
			parts = append(parts, fmt.Sprintf("Lcross(%s, %s)", s.P.LabelName(ct.Label), s.SetVarName(ct.Var)))
		case KScross:
			parts = append(parts, fmt.Sprintf("Scross(%s, %s)", s.P.LabelName(ct.Label), s.SetVarName(ct.Var)))
		default:
			parts = append(parts, fmt.Sprintf("symcross(Slabels(%s), %s)", s.P.Methods[ct.Method].Name, s.SetVarName(ct.Var)))
		}
	}
	for _, v := range c.Pairs {
		parts = append(parts, s.PairVarName(v))
	}
	if len(parts) == 0 {
		return "{}"
	}
	return strings.Join(parts, " ∪ ")
}
