package frontend

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fx10/internal/condensed"
)

func TestLookup(t *testing.T) {
	for _, lang := range []string{"x10", "go", "golang", " Go ", "X10"} {
		f, err := Lookup(lang)
		if err != nil {
			t.Errorf("Lookup(%q): %v", lang, err)
			continue
		}
		if f.Name() != "x10" && f.Name() != "go" {
			t.Errorf("Lookup(%q) = %q", lang, f.Name())
		}
	}
	_, err := Lookup("rust")
	var ue *UnknownLanguageError
	if !errors.As(err, &ue) {
		t.Fatalf("Lookup(rust) = %v, want *UnknownLanguageError", err)
	}
	if len(ue.Known) == 0 || !strings.Contains(ue.Error(), "go") {
		t.Fatalf("error does not list known languages: %v", ue)
	}
}

func TestNames(t *testing.T) {
	names := Names()
	want := []string{"go", "x10"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v (sorted)", names, want)
		}
	}
}

func TestDetect(t *testing.T) {
	cases := []struct {
		path, want string
	}{
		{"prog.x10", "x10"},
		{"dir/main.go", "go"},
	}
	for _, tc := range cases {
		f, err := Detect(tc.path)
		if err != nil {
			t.Errorf("Detect(%q): %v", tc.path, err)
			continue
		}
		if f.Name() != tc.want {
			t.Errorf("Detect(%q) = %q, want %q", tc.path, f.Name(), tc.want)
		}
	}
	for _, path := range []string{"-", "", "prog.txt", "prog.fx10"} {
		_, err := Detect(path)
		var ae *AmbiguousInputError
		if !errors.As(err, &ae) {
			t.Errorf("Detect(%q) = %v, want *AmbiguousInputError", path, err)
		}
	}
}

func TestLowerParseErrorCarriesLang(t *testing.T) {
	_, _, err := Lower("go", "", "not go")
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Lang != "go" {
		t.Fatalf("Lower(go, bad) = %v, want *ParseError{Lang: go}", err)
	}
	_, _, err = Lower("", "bad.x10", "void broken() { async {")
	if !errors.As(err, &pe) || pe.Lang != "x10" {
		t.Fatalf("Lower(detected x10, bad) = %v, want *ParseError{Lang: x10}", err)
	}
}

func TestStatsCoverage(t *testing.T) {
	if c := (Stats{}).Coverage(); c != 1 {
		t.Fatalf("empty coverage = %v, want 1", c)
	}
	s := Stats{Stmts: 4, Dropped: []Diagnostic{{Construct: "select"}}}
	if c := s.Coverage(); c != 0.75 {
		t.Fatalf("coverage = %v, want 0.75", c)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Line: 3, Construct: "library call", Detail: "fmt.Println"}
	if got := d.String(); got != "line 3: library call fmt.Println" {
		t.Fatalf("String() = %q", got)
	}
	if got := (Diagnostic{Construct: "select"}).String(); got != "select" {
		t.Fatalf("String() = %q", got)
	}
}

// TestContractOnTrickyCorpus is the front-end contract test over the
// shared tricky corpus (testdata/tricky): every file must detect by
// extension, lower without error through the registry, survive the
// condensed→core lowering, and report honest stats (Stmts > 0,
// coverage in [0, 1]).
func TestContractOnTrickyCorpus(t *testing.T) {
	dir := "../../testdata/tricky"
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		t.Run(e.Name(), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			u, st, err := Lower("", path, string(data))
			if err != nil {
				t.Fatalf("Lower: %v", err)
			}
			if st.Stmts <= 0 {
				t.Fatalf("stats: %+v", st)
			}
			if c := st.Coverage(); c < 0 || c > 1 {
				t.Fatalf("coverage out of range: %v", c)
			}
			p, err := condensed.Lower(u)
			if err != nil {
				t.Fatalf("condensed.Lower: %v", err)
			}
			if p.Main() == nil {
				t.Fatal("lowered program has no main")
			}
		})
		n++
	}
	if n < 4 {
		t.Fatalf("corpus has only %d files", n)
	}
}
