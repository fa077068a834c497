package constraints

import (
	"sort"

	"fx10/internal/syntax"
)

// MethodID indexes a method, like syntax.Program.Methods.
type MethodID = int

// CallGraph is the cross-method dependency layer of a constraint
// system: one edge per distinct (caller, callee) pair. In the
// generated constraints these edges are exactly where information
// crosses method boundaries — a call site reads the callee's oᵢ/mᵢ
// summary variables (context-sensitively), and context-insensitively
// additionally feeds the call site's r into the callee's rᵢ — so the
// delta solver's invalidation closure is a graph reachability
// question over this layer.
type CallGraph struct {
	callees [][]MethodID // callees[i]: methods i calls (sorted, deduped)
	callers [][]MethodID // callers[i]: methods that call i (sorted, deduped)
}

// NewCallGraph builds the call graph of p.
func NewCallGraph(p *syntax.Program) *CallGraph {
	g := &CallGraph{
		callees: make([][]MethodID, len(p.Methods)),
		callers: make([][]MethodID, len(p.Methods)),
	}
	seen := map[[2]MethodID]bool{}
	p.EachInstr(func(mi int, i syntax.Instr) {
		c, ok := i.(*syntax.Call)
		if !ok || seen[[2]MethodID{mi, c.Method}] {
			return
		}
		seen[[2]MethodID{mi, c.Method}] = true
		g.callees[mi] = append(g.callees[mi], c.Method)
		g.callers[c.Method] = append(g.callers[c.Method], mi)
	})
	for i := range g.callees {
		sort.Ints(g.callees[i])
		sort.Ints(g.callers[i])
	}
	return g
}

// Callees returns the methods mi calls (shared slice; do not mutate).
func (g *CallGraph) Callees(mi MethodID) []MethodID { return g.callees[mi] }

// Callers returns the methods that call mi (shared slice; do not
// mutate).
func (g *CallGraph) Callers(mi MethodID) []MethodID { return g.callers[mi] }

// CallerClosure marks dirty and every transitive caller of a dirty
// method. This is the context-sensitive invalidation set: a method's
// values depend only on its call-graph subtree, so a method whose
// subtree contains no dirty method is unaffected. The closure is
// closed under SCCs by construction — every member of a cycle is a
// transitive caller of every other member.
func (g *CallGraph) CallerClosure(dirty []MethodID) []bool {
	mark := make([]bool, len(g.callees))
	var stack []MethodID
	for _, mi := range dirty {
		if mi >= 0 && mi < len(mark) && !mark[mi] {
			mark[mi] = true
			stack = append(stack, mi)
		}
	}
	for len(stack) > 0 {
		mi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range g.callers[mi] {
			if !mark[c] {
				mark[c] = true
				stack = append(stack, c)
			}
		}
	}
	return mark
}
