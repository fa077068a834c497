package parser

import (
	"fmt"
	"strconv"
	"strings"

	"fx10/internal/syntax"
)

// DefaultArrayLen is the array length used when a program omits the
// "array n;" header.
const DefaultArrayLen = 16

// Parse parses FX10 source text into a validated Program.
func Parse(src string) (*syntax.Program, error) {
	p := &parser{lx: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p.parseProgram()
}

// MustParse is Parse that panics on error, for tests, examples and
// embedded workloads.
func MustParse(src string) *syntax.Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

type parser struct {
	lx  *lexer
	tok token
	b   *syntax.Builder
	// stmts holds the instructions of every block being parsed, the
	// innermost last; a block takes its own off when it closes.
	stmts []syntax.Instr
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{Line: p.tok.line, Col: p.tok.col, Msg: fmt.Sprintf(format, args...)}
}

// expect consumes a token of the given kind (and text, if non-empty).
func (p *parser) expect(kind tokKind, text string) (token, error) {
	if p.tok.kind != kind || (text != "" && p.tok.text != text) {
		what := text
		if what == "" {
			what = [...]string{
				tokEOF: "end of input", tokIdent: "identifier", tokInt: "integer",
				tokLBrace: "'{'", tokRBrace: "'}'", tokLParen: "'('", tokRParen: "')'",
				tokLBrack: "'['", tokRBrack: "']'", tokSemi: "';'", tokColon: "':'",
				tokAssign: "'='", tokPlus: "'+'", tokNotEq: "'!='", tokKeyword: "keyword",
			}[kind]
		} else {
			what = "'" + what + "'"
		}
		return token{}, p.errf("expected %s, found %s", what, p.tok)
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

func (p *parser) atKeyword(kw string) bool {
	return p.tok.kind == tokKeyword && p.tok.text == kw
}

func (p *parser) parseProgram() (*syntax.Program, error) {
	arrayLen := DefaultArrayLen
	if p.atKeyword("array") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		n, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi, ""); err != nil {
			return nil, err
		}
		arrayLen = n
	}
	p.b = syntax.NewBuilder(arrayLen)
	// An instruction ends with ';' or opens a block: their count sizes
	// the label table, give or take the method bodies. A label takes
	// about 4 bytes of source at the least (`f();`), which bounds the
	// guess when comments are full of ';'.
	src := p.lx.src
	p.b.GrowLabels(min(strings.Count(src, ";")+strings.Count(src, "{"), len(src)/4))
	sawMethod := false
	for p.tok.kind != tokEOF {
		if err := p.parseMethod(); err != nil {
			return nil, err
		}
		sawMethod = true
	}
	if !sawMethod {
		return nil, p.errf("program has no methods")
	}
	return p.b.Program()
}

func (p *parser) parseMethod() error {
	if _, err := p.expect(tokKeyword, "void"); err != nil {
		return err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return err
	}
	if _, err := p.expect(tokLParen, ""); err != nil {
		return err
	}
	if _, err := p.expect(tokRParen, ""); err != nil {
		return err
	}
	body, err := p.parseBlock()
	if err != nil {
		return err
	}
	if err := p.b.AddMethod(name.text, body); err != nil {
		return p.errf("%v", err)
	}
	return nil
}

// parseBlock parses "{ stmt* }". An empty block desugars to a single
// unlabeled skip.
func (p *parser) parseBlock() (*syntax.Stmt, error) {
	if _, err := p.expect(tokLBrace, ""); err != nil {
		return nil, err
	}
	base := len(p.stmts)
	for p.tok.kind != tokRBrace {
		if p.tok.kind == tokEOF {
			return nil, p.errf("unexpected end of input in block")
		}
		i, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.stmts = append(p.stmts, i)
	}
	if err := p.advance(); err != nil { // consume '}'
		return nil, err
	}
	if len(p.stmts) == base {
		p.stmts = append(p.stmts, p.b.Skip(""))
	}
	body := p.b.Stmts(p.stmts[base:]...)
	p.stmts = p.stmts[:base]
	return body, nil
}

// parseStmt parses one optionally labeled instruction.
func (p *parser) parseStmt() (syntax.Instr, error) {
	label := ""
	if p.tok.kind == tokIdent {
		// Either "label :" or "callee ( )".
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokColon {
			if err := p.advance(); err != nil {
				return nil, err
			}
			label = name
		} else {
			return p.finishCall(label, name)
		}
	}
	switch {
	case p.atKeyword("skip"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi, ""); err != nil {
			return nil, err
		}
		return p.b.Skip(label), nil

	case p.atKeyword("a"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		d, err := p.parseIndex()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokAssign, ""); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi, ""); err != nil {
			return nil, err
		}
		return p.b.Assign(label, d, e), nil

	case p.atKeyword("while"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLParen, ""); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "a"); err != nil {
			return nil, err
		}
		d, err := p.parseIndex()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokNotEq, ""); err != nil {
			return nil, err
		}
		zero, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		if zero != 0 {
			return nil, p.errf("while guard must compare against 0, found %d", zero)
		}
		if _, err := p.expect(tokRParen, ""); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return p.b.While(label, d, body), nil

	case p.atKeyword("next"), p.atKeyword("advance"):
		// "advance" is X10's spelling of the clock barrier; the
		// analyzed subset accepts it as a synonym for "next".
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi, ""); err != nil {
			return nil, err
		}
		return p.b.Next(label), nil

	case p.atKeyword("clocked"), p.atKeyword("async"):
		clocked := p.atKeyword("clocked")
		if clocked {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if !p.atKeyword("async") {
				return nil, p.errf("expected 'async' after 'clocked', found %s", p.tok)
			}
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		place := 0
		if p.atKeyword("at") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokLParen, ""); err != nil {
				return nil, err
			}
			q, err := p.parseInt()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen, ""); err != nil {
				return nil, err
			}
			place = q
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		var instr syntax.Instr
		switch {
		case clocked:
			instr = p.b.ClockedAsync(label, body)
		case place != 0:
			instr = p.b.AsyncAt(label, place, body)
		default:
			instr = p.b.Async(label, body)
		}
		if clocked && place != 0 {
			instr.(*syntax.Async).Place = place
		}
		return instr, nil

	case p.atKeyword("finish"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return p.b.Finish(label, body), nil

	case p.tok.kind == tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.finishCall(label, name)
	}
	return nil, p.errf("expected an instruction, found %s", p.tok)
}

// finishCall parses the "( ) ;" suffix of a method call whose callee
// name has already been consumed.
func (p *parser) finishCall(label, callee string) (syntax.Instr, error) {
	if _, err := p.expect(tokLParen, ""); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen, ""); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSemi, ""); err != nil {
		return nil, err
	}
	return p.b.Call(label, callee), nil
}

// parseIndex parses "[ INT ]".
func (p *parser) parseIndex() (int, error) {
	if _, err := p.expect(tokLBrack, ""); err != nil {
		return 0, err
	}
	n, err := p.parseInt()
	if err != nil {
		return 0, err
	}
	if _, err := p.expect(tokRBrack, ""); err != nil {
		return 0, err
	}
	return n, nil
}

// parseExpr parses e := INT | a [ INT ] + 1.
func (p *parser) parseExpr() (syntax.Expr, error) {
	if p.tok.kind == tokInt {
		c, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		return syntax.Const{C: int64(c)}, nil
	}
	if p.atKeyword("a") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		d, err := p.parseIndex()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPlus, ""); err != nil {
			return nil, err
		}
		one, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		if one != 1 {
			return nil, p.errf("array lookup may only add 1, found %d", one)
		}
		return syntax.Plus{D: d}, nil
	}
	return nil, p.errf("expected an expression, found %s", p.tok)
}

func (p *parser) parseInt() (int, error) {
	t, err := p.expect(tokInt, "")
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.errf("bad integer %q", t.text)
	}
	return n, nil
}
