// Package x10 is the front end that turns an X10-like subset into the
// condensed form of internal/condensed, standing in for the X10 1.5
// compiler front end the paper's implementation used (see DESIGN.md's
// substitution table). It recognizes exactly the constructs the
// condensed form names:
//
//   - method declarations with arbitrary modifiers:
//     "public static void main(...) { ... }", "def step() { ... }";
//     optional "class Name { ... }" wrappers group methods;
//   - async (with an optional "(place)" clause marking a
//     place-switching async), clocked async, finish;
//   - next / advance, the Section 8 clock barrier;
//   - if/else, switch/case/default;
//   - for, while, do, foreach, ateach — all loops; foreach and ateach
//     desugar to a loop whose body is wrapped in an (implicit) async,
//     ateach's carrying a place switch, as the paper describes;
//   - return;
//   - calls "name(...);" to methods defined in the unit;
//   - every other statement (assignments, declarations, library
//     calls) condenses to a skip node.
//
// Expressions and loop headers are skipped as balanced-parenthesis
// text: the analysis is value-insensitive.
package x10

import (
	"fmt"

	"fx10/internal/condensed"
)

// Parse translates X10-subset source to condensed form. Its stats
// carry the source's line count only; the front-end boundary
// (internal/frontend) adds statements and dropped library calls.
func Parse(src string) (*condensed.Unit, condensed.Stats, error) {
	p := &parser{src: src, line: 1}
	unit := &condensed.Unit{}
	for {
		p.skipSpace()
		if p.eof() {
			break
		}
		if p.atClassDecl() {
			if err := p.parseClass(unit); err != nil {
				return nil, condensed.Stats{}, err
			}
			continue
		}
		m, err := p.parseMethod()
		if err != nil {
			return nil, condensed.Stats{}, err
		}
		unit.Methods = append(unit.Methods, m)
	}
	if len(unit.Methods) == 0 {
		return nil, condensed.Stats{}, fmt.Errorf("x10: no methods found")
	}
	return unit, condensed.Stats{LOC: condensed.CountLOC(src)}, nil
}

// MustParse is Parse that panics on error, for embedded workloads.
func MustParse(src string) (*condensed.Unit, condensed.Stats) {
	u, s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return u, s
}

type parser struct {
	src  string
	pos  int
	line int
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("x10: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) advance() byte {
	c := p.src[p.pos]
	p.pos++
	if c == '\n' {
		p.line++
	}
	return c
}

func (p *parser) skipSpace() {
	for !p.eof() {
		c := p.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			p.advance()
		case c == '/' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '/':
			for !p.eof() && p.peek() != '\n' {
				p.advance()
			}
		case c == '/' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '*':
			p.advance()
			p.advance()
			for !p.eof() {
				if p.peek() == '*' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '/' {
					p.advance()
					p.advance()
					break
				}
				p.advance()
			}
		default:
			return
		}
	}
}

func isWordByte(c byte) bool {
	return c == '_' || c == '$' ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

// word reads an identifier/keyword at the cursor ("" if none).
func (p *parser) word() string {
	start := p.pos
	for !p.eof() && isWordByte(p.peek()) {
		p.advance()
	}
	return p.src[start:p.pos]
}

// peekWord returns the word at the cursor without consuming it.
func (p *parser) peekWord() string {
	save, line := p.pos, p.line
	w := p.word()
	p.pos, p.line = save, line
	return w
}

func (p *parser) atWord(w string) bool { return p.peekWord() == w }

// expectByte consumes one expected byte.
func (p *parser) expectByte(c byte) error {
	p.skipSpace()
	if p.eof() || p.peek() != c {
		return p.errf("expected %q", string(c))
	}
	p.advance()
	return nil
}

// skipNonCode consumes a string literal, character literal, or
// comment at the cursor and reports whether it consumed anything.
// The expression skippers call this first so delimiters inside
// `"..."`, `'...'`, `// ...` and `/* ... */` never perturb their
// depth counting — `print("(");` is one statement, not an
// unterminated one.
func (p *parser) skipNonCode() bool {
	c := p.peek()
	switch {
	case c == '"' || c == '\'':
		quote := p.advance()
		for !p.eof() {
			c := p.advance()
			if c == '\\' && !p.eof() {
				p.advance() // escaped char, including \" and \'
				continue
			}
			if c == quote || c == '\n' {
				break // closed, or tolerate an unterminated literal at EOL
			}
		}
		return true
	case c == '/' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '/':
		for !p.eof() && p.peek() != '\n' {
			p.advance()
		}
		return true
	case c == '/' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '*':
		p.advance()
		p.advance()
		for !p.eof() {
			if p.peek() == '*' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '/' {
				p.advance()
				p.advance()
				return true
			}
			p.advance()
		}
		return true
	}
	return false
}

// skipBalanced consumes from an opening delimiter to its match.
func (p *parser) skipBalanced(open, close byte) error {
	if err := p.expectByte(open); err != nil {
		return err
	}
	depth := 1
	for !p.eof() {
		if p.skipNonCode() {
			continue
		}
		c := p.advance()
		switch c {
		case open:
			depth++
		case close:
			depth--
			if depth == 0 {
				return nil
			}
		}
	}
	return p.errf("unterminated %q", string(open))
}

// skipToSemi consumes up to and including the next ';' at depth 0.
func (p *parser) skipToSemi() error {
	depth := 0
	for !p.eof() {
		if p.skipNonCode() {
			continue
		}
		c := p.advance()
		switch c {
		case '(', '[', '{':
			depth++
		case ')', ']', '}':
			depth--
		case ';':
			if depth <= 0 {
				return nil
			}
		}
	}
	return p.errf("unterminated statement")
}

var modifiers = map[string]bool{
	"public": true, "private": true, "protected": true,
	"static": true, "final": true, "abstract": true, "native": true,
}

// atClassDecl reports whether the cursor is at a (possibly
// modifier-prefixed) class declaration, without consuming input.
func (p *parser) atClassDecl() bool {
	save, line := p.pos, p.line
	defer func() { p.pos, p.line = save, line }()
	for {
		p.skipSpace()
		w := p.word()
		switch {
		case w == "class" || w == "interface":
			return true
		case modifiers[w]:
			// keep scanning
		default:
			return false
		}
	}
}

func (p *parser) parseClass(unit *condensed.Unit) error {
	for modifiers[p.peekWord()] {
		p.word()
		p.skipSpace()
	}
	p.word() // "class" or "interface"
	p.skipSpace()
	if p.word() == "" {
		return p.errf("class name expected")
	}
	if err := p.expectByte('{'); err != nil {
		return err
	}
	for {
		p.skipSpace()
		if p.eof() {
			return p.errf("unterminated class body")
		}
		if p.peek() == '}' {
			p.advance()
			return nil
		}
		// Field declarations inside classes are skipped.
		if isField, err := p.trySkipField(); err != nil {
			return err
		} else if isField {
			continue
		}
		m, err := p.parseMethod()
		if err != nil {
			return err
		}
		unit.Methods = append(unit.Methods, m)
	}
}

// trySkipField consumes a field declaration (words ending in ';'
// before any '(' or '{') and reports whether it did.
func (p *parser) trySkipField() (bool, error) {
	save, line := p.pos, p.line
	depth := 0
	for !p.eof() {
		if p.skipNonCode() {
			continue
		}
		c := p.advance()
		switch c {
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case '{':
			if depth == 0 { // a method body: rewind
				p.pos, p.line = save, line
				return false, nil
			}
			depth++
		case '}':
			depth--
		case ';':
			if depth == 0 {
				return true, nil
			}
		}
	}
	p.pos, p.line = save, line
	return false, p.errf("unterminated declaration")
}

// parseMethod parses "[modifiers…] name ( args ) { body }".
func (p *parser) parseMethod() (*condensed.MethodDecl, error) {
	var name string
	for {
		p.skipSpace()
		w := p.word()
		if w == "" {
			return nil, p.errf("method declaration expected")
		}
		// Array-bracketed types like int[:rank==1] may follow a word.
		p.skipSpace()
		if !p.eof() && p.peek() == '[' {
			if err := p.skipBalanced('[', ']'); err != nil {
				return nil, err
			}
			continue
		}
		if !p.eof() && p.peek() == '(' {
			name = w
			break
		}
	}
	if err := p.skipBalanced('(', ')'); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &condensed.MethodDecl{Name: name, Body: body}, nil
}

// parseBlock parses "{ stmt* }" into a node list.
func (p *parser) parseBlock() ([]*condensed.Node, error) {
	if err := p.expectByte('{'); err != nil {
		return nil, err
	}
	var out []*condensed.Node
	for {
		p.skipSpace()
		if p.eof() {
			return nil, p.errf("unterminated block")
		}
		if p.peek() == '}' {
			p.advance()
			return out, nil
		}
		nodes, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, nodes...)
	}
}

// blockOrStmt parses either a braced block or a single statement.
func (p *parser) blockOrStmt() ([]*condensed.Node, error) {
	p.skipSpace()
	if !p.eof() && p.peek() == '{' {
		return p.parseBlock()
	}
	return p.parseStmt()
}

// parseStmt parses one statement into condensed nodes.
func (p *parser) parseStmt() ([]*condensed.Node, error) {
	p.skipSpace()
	switch p.peekWord() {
	case "async":
		p.word()
		return p.finishAsync(false)

	case "clocked":
		p.word()
		p.skipSpace()
		if p.peekWord() != "async" {
			return nil, p.errf("expected \"async\" after \"clocked\"")
		}
		p.word()
		return p.finishAsync(true)

	case "next", "advance":
		// The clock barrier (Section 8); X10 writes it "next;", later
		// dialects "advance;". Both condense to an Advance node.
		p.word()
		if err := p.skipToSemi(); err != nil {
			return nil, err
		}
		return []*condensed.Node{{Kind: condensed.Advance}}, nil

	case "finish":
		p.word()
		body, err := p.blockOrStmt()
		if err != nil {
			return nil, err
		}
		return []*condensed.Node{{Kind: condensed.Finish, Body: body}}, nil

	case "if":
		p.word()
		if err := p.skipBalanced('(', ')'); err != nil {
			return nil, err
		}
		then, err := p.blockOrStmt()
		if err != nil {
			return nil, err
		}
		node := &condensed.Node{Kind: condensed.If, Body: then}
		p.skipSpace()
		if p.atWord("else") {
			p.word()
			els, err := p.blockOrStmt()
			if err != nil {
				return nil, err
			}
			node.Else = els
		}
		return []*condensed.Node{node}, nil

	case "for", "while":
		p.word()
		if err := p.skipBalanced('(', ')'); err != nil {
			return nil, err
		}
		body, err := p.blockOrStmt()
		if err != nil {
			return nil, err
		}
		return []*condensed.Node{{Kind: condensed.Loop, Body: body}}, nil

	case "do":
		p.word()
		body, err := p.blockOrStmt()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.peekWord() == "while" {
			p.word()
			if err := p.skipBalanced('(', ')'); err != nil {
				return nil, err
			}
			if err := p.skipToSemi(); err != nil {
				return nil, err
			}
		}
		return []*condensed.Node{{Kind: condensed.Loop, Body: body}}, nil

	case "foreach", "ateach":
		kw := p.word()
		if err := p.skipBalanced('(', ')'); err != nil {
			return nil, err
		}
		body, err := p.blockOrStmt()
		if err != nil {
			return nil, err
		}
		place := 0
		if kw == "ateach" {
			place = 1
		}
		// The implicit async wrapping the loop body (paper, Section 6).
		async := &condensed.Node{Kind: condensed.Async, Body: body, Place: place}
		return []*condensed.Node{{Kind: condensed.Loop, Body: []*condensed.Node{async}}}, nil

	case "switch":
		p.word()
		if err := p.skipBalanced('(', ')'); err != nil {
			return nil, err
		}
		return p.parseSwitchBody()

	case "return":
		p.word()
		if err := p.skipToSemi(); err != nil {
			return nil, err
		}
		return []*condensed.Node{{Kind: condensed.Return}}, nil

	case "":
		// Not word-initial (e.g. "{" nested block or stray token).
		if p.peek() == '{' {
			return p.parseBlock()
		}
		if err := p.skipToSemi(); err != nil {
			return nil, err
		}
		return []*condensed.Node{{Kind: condensed.Skip}}, nil

	default:
		// A call "name(...);" or an arbitrary compute statement.
		save, line := p.pos, p.line
		w := p.word()
		p.skipSpace()
		if !p.eof() && p.peek() == '(' {
			if err := p.skipBalanced('(', ')'); err != nil {
				return nil, err
			}
			p.skipSpace()
			if !p.eof() && p.peek() == ';' {
				p.advance()
				return []*condensed.Node{{Kind: condensed.Call, Callee: w}}, nil
			}
		}
		// Not a plain call: consume the rest of the statement.
		p.pos, p.line = save, line
		if err := p.skipToSemi(); err != nil {
			return nil, err
		}
		return []*condensed.Node{{Kind: condensed.Skip}}, nil
	}
}

// finishAsync parses the remainder of an async statement (the "async"
// keyword, and "clocked" if present, already consumed): an optional
// place clause and the body.
func (p *parser) finishAsync(clocked bool) ([]*condensed.Node, error) {
	place := 0
	p.skipSpace()
	if !p.eof() && p.peek() == '(' {
		if err := p.skipBalanced('(', ')'); err != nil {
			return nil, err
		}
		place = 1 // the concrete place is value-level; 1 marks "switched"
	}
	body, err := p.blockOrStmt()
	if err != nil {
		return nil, err
	}
	return []*condensed.Node{{Kind: condensed.Async, Body: body, Place: place, Clocked: clocked}}, nil
}

// parseSwitchBody parses "{ case x: stmts… default: stmts… }".
func (p *parser) parseSwitchBody() ([]*condensed.Node, error) {
	if err := p.expectByte('{'); err != nil {
		return nil, err
	}
	node := &condensed.Node{Kind: condensed.Switch}
	var cur []*condensed.Node
	flush := func() {
		if cur != nil {
			node.Cases = append(node.Cases, cur)
			cur = nil
		}
	}
	for {
		p.skipSpace()
		if p.eof() {
			return nil, p.errf("unterminated switch")
		}
		if p.peek() == '}' {
			p.advance()
			flush()
			return []*condensed.Node{node}, nil
		}
		switch p.peekWord() {
		case "case":
			flush()
			p.word()
			for !p.eof() && p.peek() != ':' {
				if p.skipNonCode() {
					continue
				}
				p.advance()
			}
			if err := p.expectByte(':'); err != nil {
				return nil, err
			}
			cur = []*condensed.Node{}
		case "default":
			flush()
			p.word()
			if err := p.expectByte(':'); err != nil {
				return nil, err
			}
			cur = []*condensed.Node{}
		case "break":
			p.word()
			if err := p.skipToSemi(); err != nil {
				return nil, err
			}
		default:
			nodes, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			if cur == nil {
				return nil, p.errf("statement before first case")
			}
			cur = append(cur, nodes...)
		}
	}
}

// ResolveCalls rewrites Call nodes whose callee is not defined in the
// unit into Skip nodes (library calls condense to skips, as in the
// paper's implementation), and returns the number rewritten.
func ResolveCalls(u *condensed.Unit) int {
	return len(ResolveCallsNamed(u))
}

// ResolveCallsNamed is ResolveCalls, but returns the callee name of
// each rewritten call (in source order, duplicates preserved) so the
// front-end boundary can report them as lowering diagnostics.
func ResolveCallsNamed(u *condensed.Unit) []string {
	defined := map[string]bool{}
	for _, m := range u.Methods {
		defined[m.Name] = true
	}
	var names []string
	var walk func(block []*condensed.Node)
	walk = func(block []*condensed.Node) {
		for _, nd := range block {
			if nd.Kind == condensed.Call && !defined[nd.Callee] {
				names = append(names, nd.Callee)
				nd.Kind = condensed.Skip
				nd.Callee = ""
			}
			walk(nd.Body)
			walk(nd.Else)
			for _, cs := range nd.Cases {
				walk(cs)
			}
		}
	}
	for _, m := range u.Methods {
		walk(m.Body)
	}
	return names
}
