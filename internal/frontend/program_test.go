package frontend

import (
	"os"
	"path/filepath"
	"testing"

	"fx10/internal/condensed"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// Sources that exactly one of the three parsers accepts, so a
// routing case can tell which one ran.
var routingSources = map[string]string{
	"fx10": "array 2;\nvoid main() { L: a[0] = 1; }\n",
	"x10":  "public static void main(String[] args) { finish { async { work(); } } }\n",
	"go":   "package main\n\nfunc main() {\n\tgo work()\n}\n\nfunc work() {}\n",
}

// errClass names the typed class of an error Program returned, "ok"
// for nil, or "" for an error of no class the callers map.
func errClass(err error) string {
	switch err.(type) {
	case nil:
		return "ok"
	case *UnknownLanguageError:
		return "unknown"
	case *AmbiguousInputError:
		return "ambiguous"
	case *ParseError:
		return "parse"
	case *condensed.LoweringError:
		return "lowering"
	case *syntax.ClockUseError:
		return "clock"
	}
	return ""
}

// TestProgramRouting pins, for each (lang, path), which parser or
// front end Program runs, the canonical language it returns and the
// class of its error. Each routed case feeds all three routing
// sources: the one of the expected language must build, and the other
// two must fail to parse.
func TestProgramRouting(t *testing.T) {
	routed := []struct{ lang, path, want string }{
		{"", "", "fx10"},
		{"", "x.fx10", "fx10"},
		{"fx10", "", "fx10"},
		{"fx10", "x.fx10", "fx10"},
		{"fx10", "-", "fx10"},
		{"FX10", "", "fx10"},
		{"FX10", "x.fx10", "fx10"},
		{"FX10", "-", "fx10"},
		{"", "prog.x10", "x10"},
		{"x10", "", "x10"},
		{"x10", "-", "x10"},
		{"", "main.go", "go"},
		{"go", "", "go"},
		{"go", "x.fx10", "go"},
		{"golang", "-", "go"},
		{" Go ", "", "go"},
	}
	for _, tc := range routed {
		for lang, src := range routingSources {
			p, got, err := Program(tc.lang, tc.path, src)
			switch {
			case lang == tc.want && (err != nil || p == nil || got != tc.want):
				t.Errorf("Program(%q, %q) on %s source = %q, %v; want %q", tc.lang, tc.path, lang, got, err, tc.want)
			case lang != tc.want && errClass(err) != "parse":
				t.Errorf("Program(%q, %q) on %s source: error %v, want a *ParseError", tc.lang, tc.path, lang, err)
			case got != tc.want:
				t.Errorf("Program(%q, %q) on %s source returned language %q, want %q", tc.lang, tc.path, lang, got, tc.want)
			}
		}
	}
	if p, _, err := Program("", "", routingSources["fx10"]); err != nil {
		t.Fatal(err)
	} else if _, ok := p.LabelByName("L"); !ok {
		t.Error("core FX10 lost its source label names")
	}

	failing := []struct{ name, lang, path, src, class string }{
		{"unknown language", "rust", "", routingSources["go"], "unknown"},
		{"stdin without -lang", "", "-", routingSources["go"], "ambiguous"},
		{"unclaimed extension", "", "x.txt", routingSources["go"], "ambiguous"},
		{"go without main", "go", "", "package main\n\nfunc work() {}\n", "parse"},
		{"fx10 without main", "", "", "void f() { skip; }\n", "parse"},
		{"duplicate methods", "x10", "", "void f() { skip; }\nvoid f() { skip; }\nvoid main() { f(); }\n", "lowering"},
		{"next in unclocked async", "x10", "", "void main() { async { next; } }\n", "clock"},
		{"core next in unclocked async", "", "", "void main() { async { N: next; } }\n", "clock"},
	}
	for _, tc := range failing {
		p, _, err := Program(tc.lang, tc.path, tc.src)
		if got := errClass(err); got != tc.class || p != nil {
			t.Errorf("%s: error %v (class %q), want class %q", tc.name, err, got, tc.class)
		}
	}
}

// fuzzRoutes are the (lang, path) pairs FuzzProgram's language byte
// selects from.
var fuzzRoutes = []struct{ lang, path string }{
	{"", ""}, {"fx10", ""}, {"x10", ""}, {"go", ""},
	{"", "f.x10"}, {"", "f.go"}, {"", "-"}, {"rust", ""},
}

// FuzzProgram feeds arbitrary source to Program under every route. It
// must never panic, every error must be of one of the typed classes
// the daemon maps to 400 or 422, and a program it returns must pass
// the clock-use check.
func FuzzProgram(f *testing.F) {
	for _, dir := range []string{"tricky", "goprograms"} {
		paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", dir, "*"))
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			route := uint8(2) // x10
			if filepath.Ext(path) == ".go" {
				route = 3
			}
			f.Add(route, string(data))
		}
	}
	for _, b := range workloads.All() {
		f.Add(uint8(2), b.Source())
	}
	for _, src := range routingSources {
		f.Add(uint8(0), src)
	}
	f.Fuzz(func(t *testing.T, route uint8, src string) {
		r := fuzzRoutes[int(route)%len(fuzzRoutes)]
		p, lang, err := Program(r.lang, r.path, src)
		if errClass(err) == "" {
			t.Fatalf("Program(%q, %q): untyped error %T: %v", r.lang, r.path, err, err)
		}
		if err != nil {
			return
		}
		if lang != "fx10" && lang != "x10" && lang != "go" {
			t.Fatalf("Program(%q, %q): language %q", r.lang, r.path, lang)
		}
		if cerr := syntax.CheckClockUse(p); cerr != nil {
			t.Fatalf("Program(%q, %q) returned a program that fails the clock-use check: %v", r.lang, r.path, cerr)
		}
	})
}
