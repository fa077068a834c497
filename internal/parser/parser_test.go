package parser

import (
	"strings"
	"testing"

	"fx10/internal/syntax"
)

// example22 is the Section 2.2 program in concrete syntax.
const example22 = `
array 4;

void f() {
  A5: async { S5: skip; }
}

void main() {
  S1: finish {
    A3: async { S3: skip; }
    C1: f();
  }
  S2: finish {
    C2: f();
    A4: async { S4: skip; }
  }
}
`

func TestParseExample22(t *testing.T) {
	p, err := Parse(example22)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.ArrayLen != 4 {
		t.Fatalf("ArrayLen = %d, want 4", p.ArrayLen)
	}
	if len(p.Methods) != 2 {
		t.Fatalf("methods = %d, want 2", len(p.Methods))
	}
	if p.Main().Name != "main" {
		t.Fatalf("main = %q", p.Main().Name)
	}
	for _, name := range []string{"S1", "S2", "S3", "S4", "S5", "A3", "A4", "A5", "C1", "C2"} {
		if _, ok := p.LabelByName(name); !ok {
			t.Fatalf("label %s missing", name)
		}
	}
	s1, _ := p.LabelByName("S1")
	if p.Labels[s1].Kind != syntax.KindFinish {
		t.Fatalf("S1 kind = %v", p.Labels[s1].Kind)
	}
}

func TestParseAllInstructionForms(t *testing.T) {
	src := `
array 8;
void helper() { skip; }
void main() {
  skip;
  a[0] = 42;
  a[1] = a[0] + 1;
  W: while (a[1] != 0) {
    a[1] = 0;
  }
  async { skip; }
  async at (2) { skip; }
  finish { helper(); }
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var kinds []syntax.Kind
	p.Main().Body.Each(func(i syntax.Instr) { kinds = append(kinds, i.Kind()) })
	want := []syntax.Kind{
		syntax.KindSkip, syntax.KindAssign, syntax.KindAssign,
		syntax.KindWhile, syntax.KindAsync, syntax.KindAsync, syntax.KindFinish,
	}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	// The place annotation must be preserved.
	var places []int
	p.Main().Body.Each(func(i syntax.Instr) {
		if a, ok := i.(*syntax.Async); ok {
			places = append(places, a.Place)
		}
	})
	if len(places) != 2 || places[0] != 0 || places[1] != 2 {
		t.Fatalf("places = %v, want [0 2]", places)
	}
	// Assignment payloads.
	var rhs []string
	p.Main().Body.Each(func(i syntax.Instr) {
		if as, ok := i.(*syntax.Assign); ok {
			rhs = append(rhs, as.Rhs.String())
		}
	})
	if len(rhs) != 2 || rhs[0] != "42" || rhs[1] != "a[0] + 1" {
		t.Fatalf("rhs = %v", rhs)
	}
}

func TestDefaultArrayLen(t *testing.T) {
	p := MustParse(`void main() { skip; }`)
	if p.ArrayLen != DefaultArrayLen {
		t.Fatalf("ArrayLen = %d, want %d", p.ArrayLen, DefaultArrayLen)
	}
}

func TestEmptyBlockDesugarsToSkip(t *testing.T) {
	p := MustParse(`void main() { async { } }`)
	a := p.Main().Body.Instr.(*syntax.Async)
	if a.Body == nil || a.Body.Instr.Kind() != syntax.KindSkip {
		t.Fatalf("empty async body should desugar to skip")
	}
}

func TestComments(t *testing.T) {
	src := `
// leading comment
array 2; // trailing
/* block
   comment */
void main() {
  skip; /* inline */ skip;
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Main().Body.Len() != 2 {
		t.Fatalf("body len = %d, want 2", p.Main().Body.Len())
	}
}

func TestRoundTripPrintParse(t *testing.T) {
	for _, src := range []string{
		example22,
		// Non-ASCII identifiers, which the lexer decodes as UTF-8.
		"void main() { Lé: skip; }",
		"void main() { résumé(); } void résumé() { Ω1: a[0] = 1; }",
	} {
		p := MustParse(src)
		printed := syntax.Print(p)
		q, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of Print output failed: %v\n%s", err, printed)
		}
		if syntax.Print(q) != printed {
			t.Fatalf("Print/Parse not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", printed, syntax.Print(q))
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no methods", `array 4;`, "no methods"},
		{"missing main", `void f() { skip; }`, "main"},
		{"undefined call", `void main() { g(); }`, "undefined method"},
		{"bad guard const", `void main() { while (a[0] != 1) { skip; } }`, "compare against 0"},
		{"bad plus const", `void main() { a[0] = a[0] + 2; }`, "may only add 1"},
		{"index out of range", `array 2; void main() { a[5] = 1; }`, "array index"},
		{"unterminated comment", "void main() { /* skip; }", "unterminated"},
		{"stray char", `void main() { skip; $ }`, "unexpected character"},
		{"lone bang", `void main() { a[0] ! }`, "unexpected character"},
		{"missing semi", `void main() { skip }`, "expected"},
		{"duplicate method", `void main() { skip; } void main() { skip; }`, "duplicate"},
		{"duplicate label", `void main() { X: skip; X: skip; }`, "label"},
		{"eof in block", `void main() { skip;`, "unexpected end of input"},
		{"keyword as callee", `void main() { while(); }`, "expected"},
		// A non-letter after an identifier is named whole, not by its
		// second byte.
		{"non-letter character", `void main() { L©: skip; }`, `1:16: unexpected character "©"`},
		{"invalid UTF-8", "void main() { L\xc3: skip; }", "1:16: invalid UTF-8 byte 0xc3"},
		// Columns count characters: the '$' is the 18th.
		{"column after é", `void main() { é: $ }`, `1:18: unexpected character "$"`},
		// A tab is one column, and so is a carriage return; a line
		// feed starts the next line.
		{"tabs", "void main() {\n\t\tskip; $ }", `2:9: unexpected character "$"`},
		{"CRLF", "void main() {\r\n  skip;\r\n  $\r\n}", `3:3: unexpected character "$"`},
		// A block comment counts its lines, then the characters after
		// its last line feed.
		{"multi-line block comment", "void main() { /* one\n two\n é */ skip; $ }", `3:13: unexpected character "$"`},
		{"unterminated after é", "void é() { /* x\n", "1:12: unterminated block comment"},
		{"error after non-ASCII identifier", "void résumé() { skip; }\nvoid main() { résumé() }", `2:24: expected ';', found "}"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %q, want it to contain %q", err.Error(), tc.want)
			}
		})
	}
}

func TestErrorPositions(t *testing.T) {
	_, err := Parse("void main() {\n  skip\n}")
	if err == nil {
		t.Fatalf("want error")
	}
	pe, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T, want *Error", err)
	}
	if pe.Line != 3 { // the '}' where ';' was expected
		t.Fatalf("error line = %d, want 3 (%v)", pe.Line, err)
	}
}

func TestLexAll(t *testing.T) {
	toks, err := lexAll(`x1: a[0] = a[1] + 1; // c`)
	if err != nil {
		t.Fatalf("lexAll: %v", err)
	}
	var kinds []tokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	want := []tokKind{
		tokIdent, tokColon, tokKeyword, tokLBrack, tokInt, tokRBrack,
		tokAssign, tokKeyword, tokLBrack, tokInt, tokRBrack, tokPlus,
		tokInt, tokSemi, tokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds[%d] = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustParse did not panic on bad input")
		}
	}()
	MustParse("not a program")
}

func TestLabeledCall(t *testing.T) {
	p := MustParse(`
void f() { skip; }
void main() { C: f(); }
`)
	c, ok := p.LabelByName("C")
	if !ok {
		t.Fatalf("label C missing")
	}
	if p.Labels[c].Kind != syntax.KindCall {
		t.Fatalf("C kind = %v, want call", p.Labels[c].Kind)
	}
}

func TestMutualRecursionParses(t *testing.T) {
	p := MustParse(`
void main() { even(); }
void even() { odd(); }
void odd() { even(); }
`)
	if len(p.Methods) != 3 {
		t.Fatalf("methods = %d", len(p.Methods))
	}
}
