package syntax_test

import (
	"fmt"
	"strings"
	"testing"

	"fx10/internal/parser"
	"fx10/internal/progen"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// fmtPrint is the fmt-based printer Print replaced, kept as the
// reference for the canonical form that Program.Hash sums.
func fmtPrint(p *syntax.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "array %d;\n\n", p.ArrayLen)
	for mi, m := range p.Methods {
		if mi > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "void %s() {\n", m.Name)
		fmtPrintStmt(&b, p, m.Body, 1)
		b.WriteString("}\n")
	}
	return b.String()
}

func fmtPrintStmt(b *strings.Builder, p *syntax.Program, s *syntax.Stmt, depth int) {
	for cur := s; cur != nil; cur = cur.Next {
		fmtPrintInstr(b, p, cur.Instr, depth)
	}
}

func fmtPrintInstr(b *strings.Builder, p *syntax.Program, i syntax.Instr, depth int) {
	ind := strings.Repeat("  ", depth)
	lbl := p.LabelName(i.Label())
	switch i := i.(type) {
	case *syntax.Skip:
		fmt.Fprintf(b, "%s%s: skip;\n", ind, lbl)
	case *syntax.Assign:
		fmt.Fprintf(b, "%s%s: a[%d] = %s;\n", ind, lbl, i.D, i.Rhs)
	case *syntax.While:
		fmt.Fprintf(b, "%s%s: while (a[%d] != 0) {\n", ind, lbl, i.D)
		fmtPrintStmt(b, p, i.Body, depth+1)
		fmt.Fprintf(b, "%s}\n", ind)
	case *syntax.Async:
		kw := "async"
		if i.Clocked {
			kw = "clocked async"
		}
		if i.Place != 0 {
			fmt.Fprintf(b, "%s%s: %s at (%d) {\n", ind, lbl, kw, i.Place)
		} else {
			fmt.Fprintf(b, "%s%s: %s {\n", ind, lbl, kw)
		}
		fmtPrintStmt(b, p, i.Body, depth+1)
		fmt.Fprintf(b, "%s}\n", ind)
	case *syntax.Finish:
		fmt.Fprintf(b, "%s%s: finish {\n", ind, lbl)
		fmtPrintStmt(b, p, i.Body, depth+1)
		fmt.Fprintf(b, "%s}\n", ind)
	case *syntax.Call:
		fmt.Fprintf(b, "%s%s: %s();\n", ind, lbl, i.Name)
	case *syntax.Next:
		fmt.Fprintf(b, "%s%s: next;\n", ind, lbl)
	default:
		fmt.Fprintf(b, "%s%s: ???;\n", ind, lbl)
	}
}

// TestPrintMatchesFmtReference requires Print to write exactly the
// bytes of the fmt-based reference printer on the paper corpus, 500
// programs of each progen configuration, four 3,000-label programs and
// a program with places (which progen never emits), so that no
// program's content hash moves.
func TestPrintMatchesFmtReference(t *testing.T) {
	progs := []*syntax.Program{parser.MustParse(`
array 4;
void main() {
  F: finish {
    A: async at (2) { W: a[1] = a[0] + 1; }
    B: clocked async at (1) { X: next; helper(); }
    C: clocked async { V: a[2] = 7; }
  }
  L: while (a[3] != 0) { S: skip; }
}
void helper() { H: a[0] = 3; }
`)}
	for _, wl := range workloads.All() {
		progs = append(progs, wl.Program())
	}
	for _, cfg := range []progen.Config{progen.Default(), progen.Finite(), progen.ClockedFinite()} {
		for seed := int64(0); seed < 500; seed++ {
			progs = append(progs, progen.Generate(seed, cfg))
		}
	}
	for seed := int64(0); seed < 4; seed++ {
		progs = append(progs, progen.GenerateHuge(seed, progen.Huge(3000)))
	}
	for k, p := range progs {
		if got, want := syntax.Print(p), fmtPrint(p); got != want {
			t.Fatalf("program %d: Print differs from the fmt reference:\n%s\nwant:\n%s", k, got, want)
		}
		for _, m := range p.Methods {
			var want strings.Builder
			fmtPrintStmt(&want, p, m.Body, 0)
			if got := syntax.PrintStmt(p, m.Body); got != want.String() {
				t.Fatalf("program %d: PrintStmt(%s) = %q, want %q", k, m.Name, got, want.String())
			}
		}
	}
	if !strings.Contains(syntax.Print(progs[0]), "B: clocked async at (1) {") {
		t.Fatalf("place program printed without its place:\n%s", syntax.Print(progs[0]))
	}
}
