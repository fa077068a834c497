// Package gofront is the real-Go front end: it lowers a restricted
// Go subset onto the paper's condensed form using the stdlib
// go/parser and go/ast, so the MHP analysis can run on real-shaped
// goroutine programs instead of only the X10 corpus.
//
// The substitution table (see DESIGN.md "Front ends"):
//
//   - `go func(){…}()` and `go f()` (f a top-level func) → async;
//   - `var wg sync.WaitGroup` … `wg.Wait()` in the same block →
//     finish over the statements in between, but only when every
//     goroutine transitively spawned in that span provably registers
//     with wg (`defer wg.Done()` / trailing `wg.Done()`), so the
//     join edge claimed by finish really exists; `var g
//     errgroup.Group` … `g.Wait()` with `g.Go(func(){…})` spawns is
//     recognized the same way (errgroup tracks its own counter);
//   - `wg.Add(n)`, `wg.Done()`, `defer wg.Done()` for an active
//     group are bookkeeping of the encoding and lower to nothing;
//   - top-level `func f() {…}` → method, `f()` statements → call;
//   - for/range → loop, if/else → if, switch/type-switch/select →
//     switch, return → return;
//   - everything else — channel operations, locks, calls through
//     values, library calls — lowers to skip and is recorded in
//     condensed.Stats.Dropped, the conservative-summary fallback of
//     Might & Van Horn: constructs outside the modeled subset carry
//     no labels of this unit, so widening them to skip never removes
//     a may-happen-in-parallel pair, it only forgoes precision.
//
// The one trap is the other direction: claiming a finish that Go
// does not guarantee would *prune* pairs unsoundly. That is why a
// WaitGroup span with any untracked goroutine (a bare `go` without
// `Done`, a spawn through a function value) degrades to no finish at
// all, with a diagnostic, rather than to a finish with holes.
package gofront

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"

	"fx10/internal/condensed"
)

const (
	kindWaitGroup = "WaitGroup"
	kindErrGroup  = "errgroup"
)

// Lower parses Go source and lowers it to a condensed unit.
func Lower(src string) (*condensed.Unit, condensed.Stats, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "input.go", src, parser.SkipObjectResolution)
	if err != nil {
		return nil, condensed.Stats{}, fmt.Errorf("go: %w", err)
	}
	l := &lowerer{fset: fset, declared: map[string]bool{}, bodies: map[string]*ast.FuncDecl{}}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Body != nil {
			l.declared[fd.Name.Name] = true
			l.bodies[fd.Name.Name] = fd
		}
	}
	unit := &condensed.Unit{}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue // imports, types, package vars: data, not control
		}
		switch {
		case fd.Recv != nil:
			l.drop(fd, "method with receiver", fd.Name.Name)
		case fd.Body == nil:
			l.drop(fd, "function without body", fd.Name.Name)
		default:
			unit.Methods = append(unit.Methods, &condensed.MethodDecl{
				Name: fd.Name.Name,
				Body: l.block(fd.Body.List),
			})
		}
	}
	if len(unit.Methods) == 0 {
		return nil, condensed.Stats{}, fmt.Errorf("go: no lowerable top-level functions")
	}
	if !l.declared["main"] {
		return nil, condensed.Stats{}, fmt.Errorf("go: no main function (the analysis entry point)")
	}
	l.stats.LOC = condensed.CountLOC(src)
	return unit, l.stats, nil
}

// group is one active WaitGroup/errgroup finish scope.
type group struct {
	name string
	kind string // kindWaitGroup or kindErrGroup
}

type lowerer struct {
	fset     *token.FileSet
	declared map[string]bool          // top-level funcs lowerable as methods
	bodies   map[string]*ast.FuncDecl // their declarations, for spawn-freedom checks
	groups   []group                  // active finish scopes, innermost last
	stats    condensed.Stats
}

func (l *lowerer) drop(n ast.Node, construct, detail string) {
	line := 0
	if n != nil {
		line = l.fset.Position(n.Pos()).Line
	}
	l.stats.Dropped = append(l.stats.Dropped, condensed.Diagnostic{Line: line, Construct: construct, Detail: detail})
}

// active returns the innermost active group with the given variable
// name, or nil.
func (l *lowerer) active(name string) *group {
	for i := len(l.groups) - 1; i >= 0; i-- {
		if l.groups[i].name == name {
			return &l.groups[i]
		}
	}
	return nil
}

// block lowers a statement list, recognizing `var wg sync.WaitGroup`
// … `wg.Wait()` spans (and the errgroup analogue) as finish.
func (l *lowerer) block(stmts []ast.Stmt) []*condensed.Node {
	var out []*condensed.Node
	for i := 0; i < len(stmts); i++ {
		s := stmts[i]
		if name, kind, ok := syncGroupDecl(s); ok {
			l.stats.Stmts++ // the declaration
			j := findWait(stmts, i+1, name)
			if j < 0 {
				l.drop(s, kind+" without a same-block Wait", name)
				continue
			}
			if !l.joined(stmts[i+1:j], name, kind) {
				// A goroutine in the span may outlive Wait; a finish
				// here would prune pairs that can really happen.
				l.drop(s, kind+" span with an untracked goroutine", name)
				continue
			}
			l.groups = append(l.groups, group{name: name, kind: kind})
			body := l.block(stmts[i+1 : j])
			l.groups = l.groups[:len(l.groups)-1]
			l.stats.Stmts++ // the Wait
			out = append(out, &condensed.Node{Kind: condensed.Finish, Body: body})
			i = j
			continue
		}
		out = append(out, l.stmt(s)...)
	}
	return out
}

// stmt lowers one statement to zero or more condensed nodes.
func (l *lowerer) stmt(s ast.Stmt) []*condensed.Node {
	l.stats.Stmts++
	switch s := s.(type) {
	case *ast.GoStmt:
		return []*condensed.Node{l.spawn(s, s.Call)}
	case *ast.ExprStmt:
		return l.exprStmt(s)
	case *ast.ReturnStmt:
		return []*condensed.Node{{Kind: condensed.Return}}
	case *ast.ForStmt:
		return []*condensed.Node{{Kind: condensed.Loop, Body: l.block(s.Body.List)}}
	case *ast.RangeStmt:
		return []*condensed.Node{{Kind: condensed.Loop, Body: l.block(s.Body.List)}}
	case *ast.IfStmt:
		node := &condensed.Node{Kind: condensed.If, Body: l.block(s.Body.List)}
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			node.Else = l.block(e.List)
		case *ast.IfStmt:
			node.Else = l.stmt(e)
		}
		return []*condensed.Node{node}
	case *ast.SwitchStmt:
		return []*condensed.Node{l.switchNode(s.Body)}
	case *ast.TypeSwitchStmt:
		return []*condensed.Node{l.switchNode(s.Body)}
	case *ast.SelectStmt:
		// Branches are kept (each comm clause is a case); the blocking
		// channel rendezvous itself is ordering we drop conservatively.
		l.drop(s, "select", "")
		return []*condensed.Node{l.switchNode(s.Body)}
	case *ast.BlockStmt:
		return l.block(s.List)
	case *ast.LabeledStmt:
		return l.stmt(s.Stmt)
	case *ast.DeferStmt:
		if recv, sel, ok := selectorCall(s.Call); ok && sel == "Done" && l.active(recv) != nil {
			return nil // finish-encoding bookkeeping
		}
		l.drop(s, "defer", "")
		return skipNode()
	case *ast.SendStmt:
		l.drop(s, "channel send", "")
		return skipNode()
	case *ast.AssignStmt:
		l.assignDiag(s)
		return skipNode()
	case *ast.IncDecStmt, *ast.DeclStmt, *ast.EmptyStmt:
		return skipNode() // value-level: compute statements are skips
	case *ast.BranchStmt:
		if s.Tok == token.GOTO {
			l.drop(s, "goto", "")
		}
		// break/continue: intra-loop control flow the value-insensitive
		// analysis already over-approximates.
		return skipNode()
	default:
		l.drop(s, fmt.Sprintf("%T", s), "")
		return skipNode()
	}
}

// assignDiag flags the parts of an assignment that hide constructs we
// drop: channel receives and calls in expression position (whose
// callee's asyncs we will not see at this call site).
func (l *lowerer) assignDiag(s *ast.AssignStmt) {
	for _, rhs := range s.Rhs {
		switch e := rhs.(type) {
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				l.drop(s, "channel receive", "")
			}
		case *ast.CallExpr:
			if id, ok := e.Fun.(*ast.Ident); ok && l.declared[id.Name] {
				l.drop(s, "call in expression position", id.Name)
			}
		}
	}
}

// spawn lowers a `go` statement (or an errgroup Go argument) to an
// async node.
func (l *lowerer) spawn(s ast.Node, call *ast.CallExpr) *condensed.Node {
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		return &condensed.Node{Kind: condensed.Async, Body: l.block(fun.Body.List)}
	case *ast.Ident:
		if l.declared[fun.Name] {
			return &condensed.Node{Kind: condensed.Async, Body: []*condensed.Node{{Kind: condensed.Call, Callee: fun.Name}}}
		}
		l.drop(s, "spawn of an undeclared function", fun.Name)
	default:
		l.drop(s, "spawn through a function value", "")
	}
	// The callee is opaque: its code carries no labels of this unit,
	// so a skip body is the sound conservative summary.
	return &condensed.Node{Kind: condensed.Async, Body: []*condensed.Node{{Kind: condensed.Skip}}}
}

func (l *lowerer) exprStmt(s *ast.ExprStmt) []*condensed.Node {
	call, ok := s.X.(*ast.CallExpr)
	if !ok {
		return skipNode() // a bare expression: compute
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if l.declared[fun.Name] {
			return []*condensed.Node{{Kind: condensed.Call, Callee: fun.Name}}
		}
		l.drop(s, "library call", fun.Name)
		return skipNode()
	case *ast.SelectorExpr:
		if recv, ok := fun.X.(*ast.Ident); ok {
			if g := l.active(recv.Name); g != nil {
				switch fun.Sel.Name {
				case "Add", "Done":
					return nil // finish-encoding bookkeeping
				case "Go":
					// errgroup.Group.Go, and sync.WaitGroup.Go (Go
					// 1.25+): a spawn the group tracks by construction.
					return []*condensed.Node{l.groupGo(s, call)}
				case "Wait":
					// A Wait the scope scan did not consume (a second
					// Wait, or one inside a nested block): a join we
					// cannot prove structured.
					l.drop(s, "unstructured Wait", recv.Name)
					return skipNode()
				}
			}
			l.drop(s, "library call", recv.Name+"."+fun.Sel.Name)
			return skipNode()
		}
		l.drop(s, "library call", fun.Sel.Name)
		return skipNode()
	default:
		l.drop(s, "indirect call", "")
		return skipNode()
	}
}

// groupGo lowers `g.Go(fn)` for an active group g (errgroup.Group,
// or sync.WaitGroup on Go 1.25+): a spawn whose join the group
// tracks by construction.
func (l *lowerer) groupGo(s ast.Stmt, call *ast.CallExpr) *condensed.Node {
	if len(call.Args) == 1 {
		switch arg := call.Args[0].(type) {
		case *ast.FuncLit:
			return &condensed.Node{Kind: condensed.Async, Body: l.block(arg.Body.List)}
		case *ast.Ident:
			// g.Go(f) for a declared f: the group tracks f's own exit
			// by construction, but a goroutine spawned *inside* f would
			// escape the Wait, so the call edge is kept only when f is
			// transitively spawn-free.
			if l.declared[arg.Name] && l.spawnFree(arg.Name, map[string]bool{}) {
				return &condensed.Node{Kind: condensed.Async, Body: []*condensed.Node{{Kind: condensed.Call, Callee: arg.Name}}}
			}
		}
	}
	l.drop(s, "Go with an opaque function value", "")
	return &condensed.Node{Kind: condensed.Async, Body: []*condensed.Node{{Kind: condensed.Skip}}}
}

// spawnFree reports whether the named declared function, and every
// declared function it calls, transitively contains no goroutine
// spawn (`go` statement or a .Go method call). Spawn-free callees can
// keep their call edge inside a finish span: nothing in them can
// outlive the group's Wait.
func (l *lowerer) spawnFree(name string, visited map[string]bool) bool {
	if visited[name] {
		return true // a cycle introduces no spawn by itself
	}
	visited[name] = true
	fd := l.bodies[name]
	if fd == nil {
		return false
	}
	free := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if !free {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			free = false
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if l.declared[fun.Name] && !l.spawnFree(fun.Name, visited) {
					free = false
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Go" {
					free = false
				}
			}
		}
		return free
	})
	return free
}

func (l *lowerer) switchNode(body *ast.BlockStmt) *condensed.Node {
	node := &condensed.Node{Kind: condensed.Switch}
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			node.Cases = append(node.Cases, l.block(c.Body))
		case *ast.CommClause:
			node.Cases = append(node.Cases, l.block(c.Body))
		}
	}
	return node
}

func skipNode() []*condensed.Node {
	return []*condensed.Node{{Kind: condensed.Skip}}
}

// joined reports whether every goroutine transitively spawned in the
// span is provably awaited by the group g before its Wait: tracked
// `go func(){… g.Done() / defer g.Done() …}()` spawns, errgroup
// `g.Go(func(){…})` spawns, or spawns inside a nested well-formed
// group span of their own. Anything else — a bare go, a spawn
// through a value, a named-function spawn whose body we do not
// inspect — may outlive Wait, so the caller must not emit a finish.
func (l *lowerer) joined(stmts []ast.Stmt, name, kind string) bool {
	for i := 0; i < len(stmts); i++ {
		s := stmts[i]
		if inner, innerKind, ok := syncGroupDecl(s); ok {
			if j := findWait(stmts, i+1, inner); j >= 0 && l.joined(stmts[i+1:j], inner, innerKind) {
				i = j // a well-formed sub-span joins everything inside it
				continue
			}
			continue // inert declaration; spawns inside are checked below
		}
		if !l.joinedStmt(s, name, kind) {
			return false
		}
	}
	return true
}

func (l *lowerer) joinedStmt(s ast.Stmt, name, kind string) bool {
	switch s := s.(type) {
	case *ast.GoStmt:
		if kind != kindWaitGroup {
			return false // errgroup has no Done: a bare go escapes Wait
		}
		lit, ok := s.Call.Fun.(*ast.FuncLit)
		if !ok {
			return false // go f(): cannot prove f registers with the group
		}
		return hasDoneFor(lit.Body.List, name) && l.joined(lit.Body.List, name, kind)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if recv, sel, ok := selectorCall(call); ok && recv == name && sel == "Go" {
				// g.Go registers the spawn with the group by
				// construction; its body's own spawns must still join.
				if len(call.Args) == 1 {
					if lit, ok := call.Args[0].(*ast.FuncLit); ok {
						return l.joined(lit.Body.List, name, kind)
					}
				}
				// g.Go(f): f's own exit is tracked. groupGo keeps the
				// call edge only for spawn-free f and otherwise lowers
				// f opaquely (no unit labels inside the span), so
				// neither case can hide an unjoined labeled statement.
				return true
			}
		}
		return true
	case *ast.BlockStmt:
		return l.joined(s.List, name, kind)
	case *ast.IfStmt:
		if !l.joined(s.Body.List, name, kind) {
			return false
		}
		if s.Else != nil {
			return l.joinedStmt(s.Else, name, kind)
		}
		return true
	case *ast.ForStmt:
		return l.joined(s.Body.List, name, kind)
	case *ast.RangeStmt:
		return l.joined(s.Body.List, name, kind)
	case *ast.SwitchStmt:
		return l.joined(s.Body.List, name, kind)
	case *ast.TypeSwitchStmt:
		return l.joined(s.Body.List, name, kind)
	case *ast.SelectStmt:
		return l.joined(s.Body.List, name, kind)
	case *ast.CaseClause:
		return l.joined(s.Body, name, kind)
	case *ast.CommClause:
		return l.joined(s.Body, name, kind)
	case *ast.LabeledStmt:
		return l.joinedStmt(s.Stmt, name, kind)
	default:
		return true // no nested statements, no spawn
	}
}

// hasDoneFor reports whether a goroutine body registers its exit with
// the group: `defer name.Done()` anywhere at the top level, or a
// trailing `name.Done()` statement.
func hasDoneFor(stmts []ast.Stmt, name string) bool {
	for _, s := range stmts {
		if d, ok := s.(*ast.DeferStmt); ok {
			if recv, sel, ok := selectorCall(d.Call); ok && recv == name && sel == "Done" {
				return true
			}
		}
	}
	if len(stmts) > 0 {
		if e, ok := stmts[len(stmts)-1].(*ast.ExprStmt); ok {
			if call, ok := e.X.(*ast.CallExpr); ok {
				if recv, sel, ok := selectorCall(call); ok && recv == name && sel == "Done" {
					return true
				}
			}
		}
	}
	return false
}

// syncGroupDecl matches `var wg sync.WaitGroup` / `var g
// errgroup.Group` (single name, no initializer).
func syncGroupDecl(s ast.Stmt) (name, kind string, ok bool) {
	ds, isDecl := s.(*ast.DeclStmt)
	if !isDecl {
		return "", "", false
	}
	gd, isGen := ds.Decl.(*ast.GenDecl)
	if !isGen || gd.Tok != token.VAR || len(gd.Specs) != 1 {
		return "", "", false
	}
	vs, isVal := gd.Specs[0].(*ast.ValueSpec)
	if !isVal || len(vs.Names) != 1 || len(vs.Values) != 0 {
		return "", "", false
	}
	sel, isSel := vs.Type.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	pkg, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	switch {
	case pkg.Name == "sync" && sel.Sel.Name == "WaitGroup":
		return vs.Names[0].Name, kindWaitGroup, true
	case pkg.Name == "errgroup" && sel.Sel.Name == "Group":
		return vs.Names[0].Name, kindErrGroup, true
	}
	return "", "", false
}

// findWait returns the index ≥ from of the first same-block
// `name.Wait()` statement (bare or in a single-value assignment like
// `err := g.Wait()`), or -1.
func findWait(stmts []ast.Stmt, from int, name string) int {
	for j := from; j < len(stmts); j++ {
		switch s := stmts[j].(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if recv, sel, ok := selectorCall(call); ok && recv == name && sel == "Wait" {
					return j
				}
			}
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
					if recv, sel, ok := selectorCall(call); ok && recv == name && sel == "Wait" {
						return j
					}
				}
			}
		}
	}
	return -1
}

// selectorCall matches a call of the form recv.sel(...) with recv a
// plain identifier.
func selectorCall(call *ast.CallExpr) (recv, sel string, ok bool) {
	f, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := f.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	return id.Name, f.Sel.Name, true
}
