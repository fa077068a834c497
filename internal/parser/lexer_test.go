package parser

import (
	"testing"

	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// Scanning allocates nothing: every token's text is a slice of the
// source, so parse cost stays proportional to the input.
func TestLexerNextDoesNotAllocate(t *testing.T) {
	for _, b := range workloads.All() {
		src := syntax.Print(b.Program())
		lx := newLexer(src)
		allocs := testing.AllocsPerRun(3, func() {
			*lx = lexer{src: src, line: 1, col: 1}
			for {
				tok, err := lx.next()
				if err != nil {
					t.Fatalf("%s: %v", b.Name, err)
				}
				if tok.kind == tokEOF {
					return
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: lexing %d bytes made %.0f allocations, want 0", b.Name, len(src), allocs)
		}
	}
}
