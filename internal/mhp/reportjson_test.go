package mhp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fx10/internal/condensed"
	"fx10/internal/constraints"
	"fx10/internal/engine"
	"fx10/internal/frontend"
	"fx10/internal/parser"
	"fx10/internal/progen"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// checkReportJSON compares ReportJSON with encoding/json's rendering
// of Report, the oracle, for both prefixes it serves: the daemon's
// "  " (a report one level deep in its envelope) and the CLI's "",
// which WriteJSON ends with json.Encoder's newline. The daemon's
// program cache charges an entry its report's capacity, so the
// capacity must equal the length.
func checkReportJSON(t *testing.T, what string, r *Result) {
	t.Helper()
	rep := r.Report()
	for _, prefix := range []string{"  ", ""} {
		want, err := json.MarshalIndent(rep, prefix, "  ")
		if err != nil {
			t.Fatal(err)
		}
		got := r.ReportJSON(prefix)
		if at := firstDiff(got, want); !bytes.Equal(got, want) {
			t.Fatalf("%s, prefix %q: ReportJSON differs from MarshalIndent at byte %d of %d\n got: %.300s\nwant: %.300s",
				what, prefix, at, len(want), got[at:], want[at:])
		}
		if cap(got) != len(got) {
			t.Errorf("%s, prefix %q: ReportJSON capacity %d, length %d", what, prefix, cap(got), len(got))
		}
	}
	var enc, cli bytes.Buffer
	e := json.NewEncoder(&enc)
	e.SetIndent("", "  ")
	if err := e.Encode(rep); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&cli); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cli.Bytes(), enc.Bytes()) {
		t.Errorf("%s: WriteJSON differs from json.Encoder at byte %d", what, firstDiff(cli.Bytes(), enc.Bytes()))
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func TestReportJSONMatchesMarshalIndent(t *testing.T) {
	check := func(what string, p *syntax.Program) {
		t.Helper()
		for _, mode := range bothModes {
			checkReportJSON(t, fmt.Sprintf("%s/%s", what, mode), MustAnalyze(p, mode))
		}
	}
	for _, wl := range workloads.All() {
		check(wl.Name, wl.Program())
	}
	for seed := int64(0); seed < 40; seed++ {
		check(fmt.Sprintf("progen finite %d", seed), progen.Generate(seed, progen.Finite()))
		check(fmt.Sprintf("progen clocked %d", seed), progen.Generate(seed, progen.ClockedFinite()))
	}
	check("huge3000", progen.GenerateHuge(0, progen.Huge(3000)))
	for _, name := range []string{"fanout.fx10", "phased.fx10", "spinflag.fx10"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		check(name, parser.MustParse(string(src)))
	}

	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "goprograms", "workerpool.go"))
	if err != nil {
		t.Fatal(err)
	}
	u, _, err := frontend.Lower("go", "workerpool.go", string(src))
	if err != nil {
		t.Fatal(err)
	}
	p, err := condensed.Lower(u)
	if err != nil {
		t.Fatal(err)
	}
	check("go workerpool", p)

	// Every registered strategy, and a delta solve, leave main's pair
	// run in the solution the writer walks.
	for _, wl := range workloads.All() {
		for _, strategy := range engine.Strategies() {
			e := engine.MustNew(engine.Config{Strategy: strategy, CacheSize: -1})
			base, err := e.Analyze(engine.Job{Name: wl.Name, Program: wl.Program()})
			if err != nil {
				t.Fatal(err)
			}
			checkReportJSON(t, wl.Name+"/"+strategy, FromEngine(base))
			delta, err := e.AnalyzeDelta(base, progen.MutateMethod(wl.Program(), 0, 1))
			if err != nil {
				t.Fatal(err)
			}
			checkReportJSON(t, wl.Name+"/"+strategy+"/delta", FromEngine(delta))
		}
	}
}

// TestReportJSONEdgeCases covers the labels encoding/json escapes and
// the members Report leaves nil: no pairs, no races, an empty O.
func TestReportJSONEdgeCases(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"one skip, no pairs", "void main() { S: skip; }"},
		{"pairs without races", "void main() { A: async { S: skip; } T: skip; }"},
		{"empty outlives under finish", "array 2;\nvoid f() { F: finish { A: async { W: a[0] = 1; } } }\nvoid main() { C: f(); R: a[0] = 2; }"},
		{"non-ASCII labels", "array 2;\nvoid main() { Lé: async { Wé: a[0] = 1; } Rö: a[0] = a[0] + 1; }"},
		{"clocked, non-ASCII", "array 2;\nvoid main() { Ä: clocked async { W: a[0] = 1; N: next; } M: next; R: a[0] = 2; }"},
	} {
		checkReportJSON(t, tc.name, MustAnalyze(parser.MustParse(tc.src), constraints.ContextSensitive))
	}

	// The FX10 grammar admits only identifiers, so names that need
	// escaping come from the builder, as another front end may give.
	b := syntax.NewBuilder(4)
	b.MustAddMethod("main", b.Stmts(
		b.Async(`A<&>"\`, b.Stmts(b.Assign("W ", 1, syntax.Const{C: 1}))),
		b.Async("B\t\x01", b.Stmts(b.Assign("V\xff", 1, syntax.Plus{D: 1}))),
		b.Call("C", "h<i>"),
	))
	b.MustAddMethod("h<i>", b.Stmts(b.Async("H", b.Stmts(b.Skip("K")))))
	checkReportJSON(t, "escaped names", MustAnalyze(b.MustProgram(), constraints.ContextSensitive))
}
