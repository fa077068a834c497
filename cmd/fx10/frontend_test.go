package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fx10/internal/condensed"
	"fx10/internal/frontend"
)

const goFanOut = `package main

import "sync"

func work() {}

func main() {
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}
`

// TestCmdMHPGoFile is the README quickstart: `fx10 mhp main.go`
// analyzes a real Go file through the front-end boundary.
func TestCmdMHPGoFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "main.go")
	if err := os.WriteFile(path, []byte(goFanOut), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"mhp", path},
		{"mhp", "-lang", "go", path},
		{"mhp", "-lang", "golang", path}, // alias
		{"check", path},
		{"print", path},
		{"exec", path},
	} {
		if err := run(args); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

// TestParseSourceRouting pins where each (lang, path) the CLI passes
// to frontend.Program lands, and the exit code of each failure.
func TestParseSourceRouting(t *testing.T) {
	core := "array 2;\nvoid main() { L: a[0] = 1; }\n"
	x10src := "void main() { async { skip; } }\n"

	for _, tc := range []struct{ lang, path, src, want string }{
		{"", "prog.fx10", core, "fx10"},
		{"fx10", "-", core, "fx10"},
		{"", "prog.x10", x10src, "x10"},
		{"go", "-", goFanOut, "go"},
	} {
		if _, lang, err := frontend.Program(tc.lang, tc.path, tc.src); err != nil || lang != tc.want {
			t.Errorf("Program(%q, %q) = %q, %v; want %q", tc.lang, tc.path, lang, err, tc.want)
		}
	}

	// Stdin with no -lang: no extension to detect on, must classify as
	// an input error (exit 2), not crash or mis-parse.
	_, _, err := frontend.Program("", "-", goFanOut)
	var ae *frontend.AmbiguousInputError
	if !errors.As(err, &ae) || exitCode(err) != 2 {
		t.Errorf("ambiguous stdin: got %v (exit %d), want *AmbiguousInputError/2", err, exitCode(err))
	}

	// Forcing the wrong language is a parse error, exit 2.
	_, _, err = frontend.Program("go", "prog.fx10", core)
	var pe *frontend.ParseError
	if !errors.As(err, &pe) || exitCode(err) != 2 {
		t.Errorf("core source as -lang go: got %v (exit %d), want *ParseError/2", err, exitCode(err))
	}

	// Unknown language, exit 2.
	_, _, err = frontend.Program("rust", "x.rs", "fn main() {}")
	var ue *frontend.UnknownLanguageError
	if !errors.As(err, &ue) || exitCode(err) != 2 {
		t.Errorf("unknown -lang: got %v (exit %d), want *UnknownLanguageError/2", err, exitCode(err))
	}
}

// TestFrontendParseErrorText pins the line fx10 prints (main's
// "fx10:" prefix, then the error) for a file a front end cannot
// parse: the front end's own message, which names its language once.
func TestFrontendParseErrorText(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ name, src, want string }{
		{"bad.go", "package main\nfunc main( {\n", "fx10: go: input.go:2:12: expected ')', found '{'"},
		{"bad.x10", "void main() {\n  async {", "fx10: x10: line 2: unterminated block"},
	} {
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, []byte(tc.src), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"check", path})
		if err == nil {
			t.Fatalf("%s: check accepted a malformed file", tc.name)
		}
		if got := strings.TrimSuffix(fmt.Sprintln("fx10:", err), "\n"); got != tc.want || exitCode(err) != 2 {
			t.Errorf("%s: printed %q (exit %d), want %q (exit 2)", tc.name, got, exitCode(err), tc.want)
		}
	}
}

// TestExitCodeFrontendClasses extends the exit-code table with the
// front-end error classes.
func TestExitCodeFrontendClasses(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"frontend parse", &frontend.ParseError{Lang: "go", Err: errors.New("syntax")}, 2},
		{"wrapped frontend parse", fmt.Errorf("load: %w", &frontend.ParseError{Lang: "x10", Err: errors.New("x")}), 2},
		{"unknown language", &frontend.UnknownLanguageError{Lang: "rust"}, 2},
		{"ambiguous input", &frontend.AmbiguousInputError{Path: "-"}, 2},
		{"lowering", &condensed.LoweringError{Err: errors.New("duplicate method")}, 3},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("%s: exitCode = %d, want %d", tc.name, got, tc.want)
		}
	}
}
