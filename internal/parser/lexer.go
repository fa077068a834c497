// Package parser turns concrete FX10 source text into the abstract
// syntax of internal/syntax.
//
// The concrete grammar (extended BNF; [x] optional, {x} repeated):
//
//	program  := ["array" INT ";"] method {method}
//	method   := "void" IDENT "(" ")" block
//	block    := "{" {stmt} "}"
//	stmt     := [IDENT ":"] instr
//	instr    := "skip" ";"
//	          | "a" "[" INT "]" "=" expr ";"
//	          | "while" "(" "a" "[" INT "]" "!=" "0" ")" block
//	          | ["clocked"] "async" ["at" "(" INT ")"] block
//	          | "finish" block
//	          | ("next" | "advance") ";"
//	          | IDENT "(" ")" ";"
//	expr     := INT | "a" "[" INT "]" "+" "1"
//
// Line comments ("// …") and block comments ("/* … */") are ignored.
// An empty block is sugar for a block containing a single unlabeled
// skip, since FX10 statements are non-empty. The optional "at (q)"
// clause on async is the Section 8 places extension; plain FX10
// programs never use it. If the "array n;" header is omitted the array
// length defaults to 16.
package parser

import (
	"fmt"
	"unicode"
	"unicode/utf8"
)

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokLBrace  // {
	tokRBrace  // }
	tokLParen  // (
	tokRParen  // )
	tokLBrack  // [
	tokRBrack  // ]
	tokSemi    // ;
	tokColon   // :
	tokAssign  // =
	tokPlus    // +
	tokNotEq   // !=
	tokKeyword // one of the reserved words
)

var keywords = map[string]bool{
	"array": true, "void": true, "skip": true, "while": true,
	"async": true, "finish": true, "at": true, "a": true,
	"clocked": true, "next": true, "advance": true,
}

// punct maps each single-byte punctuation token to its kind; tokEOF
// marks every other byte.
var punct = [256]tokKind{
	'{': tokLBrace, '}': tokRBrace, '(': tokLParen, ')': tokRParen,
	'[': tokLBrack, ']': tokRBrack, ';': tokSemi, ':': tokColon,
	'=': tokAssign, '+': tokPlus,
}

// token is one lexical token with its source position.
type token struct {
	kind tokKind
	text string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lexer scans FX10 source into tokens.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

// Error is a parse or scan error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

func (lx *lexer) errf(line, col int, format string, args ...any) error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (lx *lexer) peekByte() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

// peekRune returns the character at pos and its size: a byte when
// ASCII, else a UTF-8 rune, or utf8.RuneError and 1 for an invalid byte.
func (lx *lexer) peekRune() (rune, int) {
	if c := lx.peekByte(); c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(lx.src[lx.pos:])
}

// advance consumes one character (a whole UTF-8 rune, or one invalid
// byte); columns count characters.
func (lx *lexer) advance() {
	_, size := lx.peekRune()
	if lx.src[lx.pos] == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	lx.pos += size
}

// skipSpace consumes whitespace and comments; it reports an error for
// an unterminated block comment.
func (lx *lexer) skipSpace() error {
	for lx.pos < len(lx.src) {
		c := lx.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for lx.pos < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			startLine, startCol := lx.line, lx.col
			lx.advance()
			lx.advance()
			closed := false
			for lx.pos+1 < len(lx.src)+1 && lx.pos < len(lx.src) {
				if lx.peekByte() == '*' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return lx.errf(startLine, startCol, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

// Identifiers follow Go's rule: a letter or '_', then letters, digits
// or '_'. Integer literals are ASCII digits.
func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentCont(r rune) bool  { return isIdentStart(r) || unicode.IsDigit(r) }
func isDigit(r rune) bool      { return '0' <= r && r <= '9' }

// next scans the next token.
func (lx *lexer) next() (token, error) {
	if err := lx.skipSpace(); err != nil {
		return token{}, err
	}
	line, col := lx.line, lx.col
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	r, size := lx.peekRune()
	start := lx.pos
	switch {
	case isIdentStart(r):
		for lx.pos < len(lx.src) {
			if r, _ := lx.peekRune(); !isIdentCont(r) {
				break
			}
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		kind := tokIdent
		if keywords[text] {
			kind = tokKeyword
		}
		return token{kind: kind, text: text, line: line, col: col}, nil
	case isDigit(r):
		for lx.pos < len(lx.src) && isDigit(rune(lx.peekByte())) {
			lx.advance()
		}
		return token{kind: tokInt, text: lx.src[start:lx.pos], line: line, col: col}, nil
	case r == utf8.RuneError && size == 1:
		return token{}, lx.errf(line, col, "invalid UTF-8 byte %#x", lx.src[start])
	}
	c := lx.peekByte()
	lx.advance()
	if k := punct[c]; k != tokEOF {
		return token{kind: k, text: lx.src[start:lx.pos], line: line, col: col}, nil
	}
	if c == '!' {
		if lx.peekByte() == '=' {
			lx.advance()
			return token{kind: tokNotEq, text: "!=", line: line, col: col}, nil
		}
		return token{}, lx.errf(line, col, "unexpected character '!'")
	}
	return token{}, lx.errf(line, col, "unexpected character %q", lx.src[start:lx.pos])
}

// lexAll scans the whole input, for tests.
func lexAll(src string) ([]token, error) {
	lx := newLexer(src)
	var out []token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
