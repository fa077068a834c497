package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fx10/internal/engine"
	"fx10/internal/parser"
	"fx10/internal/syntax"
)

func TestExitCodeClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil-ish generic", fmt.Errorf("boom"), 1},
		{"parse", &parser.Error{Line: 3, Col: 7, Msg: "expected ';'"}, 2},
		{"wrapped parse", fmt.Errorf("loading: %w", &parser.Error{Line: 1, Col: 1, Msg: "x"}), 2},
		{"clock misuse", &syntax.ClockUseError{Label: "N", Async: "A", Method: "main"}, 2},
		{"wrapped clock misuse", fmt.Errorf("loading: %w", &syntax.ClockUseError{Label: "N", Async: "A", Method: "main"}), 2},
		{"unknown strategy", &engine.UnknownStrategyError{Name: "bogus"}, 2},
		{"wrapped unknown strategy", fmt.Errorf("mhp: %w", &engine.UnknownStrategyError{Name: "bogus"}), 2},
		{"analysis", &engine.AnalysisError{Name: "p", Value: "kaboom"}, 3},
		{"wrapped analysis", fmt.Errorf("corpus: %w", &engine.AnalysisError{Name: "p", Value: "kaboom"}), 3},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("%s: exitCode = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestMHPUnknownStrategyExitCode drives the real mhp subcommand with
// a strategy name that is not registered: the error must classify as
// exit 2 (bad invocation, not a failed analysis) and list every
// registered strategy so the user can correct the flag.
func TestMHPUnknownStrategyExitCode(t *testing.T) {
	src := filepath.Join(t.TempDir(), "ok.fx10")
	if err := os.WriteFile(src, []byte("array 2;\nvoid main() { L: a[0] = 1; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"mhp", "-strategy", "no-such-solver", src})
	if err == nil {
		t.Fatal("mhp accepted an unregistered strategy")
	}
	if got := exitCode(err); got != 2 {
		t.Errorf("unknown strategy maps to exit %d, want 2 (err: %v)", got, err)
	}
	for _, name := range []string{"no-such-solver", "phased", "topo"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not mention %q: %v", name, err)
		}
	}
}

// TestMHPParseErrorExitCode drives the real mhp subcommand at a file
// that does not parse and checks the error classifies as exit 2.
func TestMHPParseErrorExitCode(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.fx10")
	if err := os.WriteFile(bad, []byte("array 2;\nvoid main() { async }"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"mhp", bad})
	if err == nil {
		t.Fatal("mhp accepted a malformed program")
	}
	if got := exitCode(err); got != 2 {
		t.Errorf("parse failure maps to exit %d, want 2 (err: %v)", got, err)
	}
}

// A barrier inside an unclocked async must be rejected statically by
// every subcommand that loads a program — exit code 2, not a panic or
// a runtime error. "advance" is the X10 spelling of "next".
func TestAdvanceOutsideClockedContextExitCode(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "unclocked_advance.fx10")
	src := "array 2;\nvoid main() {\n  async { N: advance; }\n  next;\n}\n"
	if err := os.WriteFile(bad, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"mhp", "run", "clocked", "check", "print"} {
		err := run([]string{sub, bad})
		if err == nil {
			t.Fatalf("%s accepted advance inside an unclocked async", sub)
		}
		if got := exitCode(err); got != 2 {
			t.Errorf("%s: clock misuse maps to exit %d, want 2 (err: %v)", sub, got, err)
		}
	}

	// The same barrier inside a *clocked* async is legal.
	good := filepath.Join(t.TempDir(), "clocked_advance.fx10")
	src = "array 2;\nvoid main() {\n  clocked async { N: advance; }\n  next;\n}\n"
	if err := os.WriteFile(good, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"check", good}); err != nil {
		t.Errorf("check rejected a legal clocked advance: %v", err)
	}
}
