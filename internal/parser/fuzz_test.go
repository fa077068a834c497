package parser

import (
	"testing"

	"fx10/internal/syntax"
)

// FuzzParse checks that the parser never panics, and that every
// accepted program validates and round-trips through the printer.
// Run with `go test -fuzz FuzzParse ./internal/parser` to explore; the
// seed corpus runs in every normal `go test`.
func FuzzParse(f *testing.F) {
	seeds := []string{
		example22, // the package-level test fixture
		"array 1; void main() { skip; }",
		"void main() { a[0] = a[1] + 1; }",
		"void main() { while (a[0] != 0) { async { next; } } }",
		"void main() { clocked async at (2) { finish { skip; } } }",
		"void f() { g(); } void g() { f(); } void main() { f(); }",
		"", "array", "array 4", "void", "void main() {",
		"void main() { X: }", "void main() { a[] = 1; }",
		"void main() { /* ", "void main() { // x", "}{", "!!",
		"void main() { S: S: skip; }",
		"void main() { Lé: skip; } void résumé() { skip; }",
		"void main() { L\xc3: skip; L©: skip; }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if verr := syntax.Validate(p); verr != nil {
			t.Fatalf("accepted program fails validation: %v\n%s", verr, src)
		}
		printed := syntax.Print(p)
		q, rerr := Parse(printed)
		if rerr != nil {
			t.Fatalf("printed form does not reparse: %v\n%s", rerr, printed)
		}
		if syntax.Print(q) != printed {
			t.Fatalf("print/parse not a fixpoint:\n%s", printed)
		}
	})
}
