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
	"strings"
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

// keywordKind returns tokKeyword for a reserved word and tokIdent for
// any other identifier.
func keywordKind(text string) tokKind {
	switch text {
	case "array", "void", "skip", "while", "async", "finish", "at", "a",
		"clocked", "next", "advance":
		return tokKeyword
	}
	return tokIdent
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

// skipSpace consumes whitespace and comments; it reports an error for
// an unterminated block comment. Columns count characters, so a
// comment's text counts its UTF-8 runes (an invalid byte is one).
func (lx *lexer) skipSpace() error {
	for lx.pos < len(lx.src) {
		switch c := lx.src[lx.pos]; {
		case c == '\n':
			lx.pos++
			lx.line++
			lx.col = 1
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
			lx.col++
		case c == '/' && strings.HasPrefix(lx.src[lx.pos:], "//"):
			end := strings.IndexByte(lx.src[lx.pos:], '\n')
			if end < 0 {
				end = len(lx.src) - lx.pos
			}
			lx.skipTo(lx.pos + end)
		case c == '/' && strings.HasPrefix(lx.src[lx.pos:], "/*"):
			end := strings.Index(lx.src[lx.pos+2:], "*/")
			if end < 0 {
				return lx.errf(lx.line, lx.col, "unterminated block comment")
			}
			lx.skipTo(lx.pos + 2 + end + 2)
		default:
			return nil
		}
	}
	return nil
}

// skipTo moves to byte offset end, past text that may span lines.
func (lx *lexer) skipTo(end int) {
	text := lx.src[lx.pos:end]
	if nl := strings.LastIndexByte(text, '\n'); nl >= 0 {
		lx.line += strings.Count(text, "\n")
		lx.col = 1
		text = text[nl+1:]
	}
	lx.col += utf8.RuneCountInString(text)
	lx.pos = end
}

// Identifiers follow Go's rule: a letter or '_', then letters, digits
// or '_'. Integer literals are ASCII digits. ASCII input is scanned
// byte by byte; a non-ASCII character is decoded as a rune.
func isIdentStart(r rune) bool     { return r == '_' || unicode.IsLetter(r) }
func isIdentCont(r rune) bool      { return isIdentStart(r) || unicode.IsDigit(r) }
func isDigit(c byte) bool          { return '0' <= c && c <= '9' }
func isIdentStartByte(c byte) bool { return 'a' <= c|0x20 && c|0x20 <= 'z' || c == '_' }

// scanIdent consumes the identifier that starts at pos.
func (lx *lexer) scanIdent() {
	for lx.pos < len(lx.src) {
		if c := lx.src[lx.pos]; c < utf8.RuneSelf {
			if !isIdentStartByte(c) && !isDigit(c) {
				return
			}
			lx.pos++
		} else {
			r, size := utf8.DecodeRuneInString(lx.src[lx.pos:])
			if !isIdentCont(r) {
				return
			}
			lx.pos += size
		}
		lx.col++
	}
}

// next scans the next token.
func (lx *lexer) next() (token, error) {
	if err := lx.skipSpace(); err != nil {
		return token{}, err
	}
	line, col := lx.line, lx.col
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	start := lx.pos
	c := lx.src[start]
	switch {
	case isIdentStartByte(c):
		lx.scanIdent()
		text := lx.src[start:lx.pos]
		return token{kind: keywordKind(text), text: text, line: line, col: col}, nil
	case isDigit(c):
		for lx.pos++; lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]); lx.pos++ {
		}
		lx.col += lx.pos - start
		return token{kind: tokInt, text: lx.src[start:lx.pos], line: line, col: col}, nil
	case c >= utf8.RuneSelf:
		r, size := utf8.DecodeRuneInString(lx.src[start:])
		switch {
		case isIdentStart(r):
			lx.scanIdent()
			text := lx.src[start:lx.pos]
			return token{kind: keywordKind(text), text: text, line: line, col: col}, nil
		case r == utf8.RuneError && size == 1:
			return token{}, lx.errf(line, col, "invalid UTF-8 byte %#x", c)
		}
		return token{}, lx.errf(line, col, "unexpected character %q", lx.src[start:start+size])
	}
	lx.pos++
	lx.col++
	if k := punct[c]; k != tokEOF {
		return token{kind: k, text: lx.src[start:lx.pos], line: line, col: col}, nil
	}
	if c == '!' {
		if lx.pos < len(lx.src) && lx.src[lx.pos] == '=' {
			lx.pos++
			lx.col++
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
