package main

import (
	"os"
	"strings"
	"testing"
)

func captureRun(t *testing.T, figure string) (string, error) {
	t.Helper()
	return captureRunParallel(t, figure, 1)
}

func captureRunParallel(t *testing.T, figure string, parallel int) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var sb strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, rerr := r.Read(buf)
			sb.Write(buf[:n])
			if rerr != nil {
				break
			}
		}
		done <- sb.String()
	}()
	ferr := run(figure, parallel, "", "", 5, "../../testdata/goprograms")
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

func TestExamplesFigure(t *testing.T) {
	out, err := captureRun(t, "examples")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Contains(out, "MISMATCH") {
		t.Fatalf("worked example mismatch:\n%s", out)
	}
	if !strings.Contains(out, "example-2.1: MATCHES PAPER") ||
		!strings.Contains(out, "example-2.2: MATCHES PAPER") {
		t.Fatalf("examples output malformed:\n%s", out)
	}
}

func TestFigure5(t *testing.T) {
	out, err := captureRun(t, "5")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "r_S13 = {S2} ∪ r_S1") {
		t.Fatalf("figure 5 output malformed:\n%s", out)
	}
}

func TestFigures6And7(t *testing.T) {
	out, err := captureRun(t, "6,7")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, frag := range []string{"Figure 6", "Figure 7", "plasma", "151/151"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("output missing %q", frag)
		}
	}
}

func TestFigures8And9(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark analysis")
	}
	out, err := captureRun(t, "8,9")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, frag := range []string{"Figure 8", "Figure 9", "context-insensitive", "mg"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("output missing %q", frag)
		}
	}
}

func TestUnknownFigure(t *testing.T) {
	_, err := captureRun(t, "42")
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	if !strings.Contains(err.Error(), `"42"`) {
		t.Fatalf("error does not name the bad figure: %v", err)
	}
	for _, f := range figures {
		if !strings.Contains(err.Error(), f) {
			t.Fatalf("error does not list figure %q: %v", f, err)
		}
	}
	// A typo next to valid selections must fail too, before any
	// section runs.
	if _, err := captureRun(t, "examples,solvr"); err == nil {
		t.Fatal("typoed figure next to a valid one accepted")
	}
}

// TestFigureListsAgree pins satellite concerns: every figure the run
// dispatcher handles must be in the figures slice and vice versa, and
// the "all" selection must be a subset of it.
func TestFigureListsAgree(t *testing.T) {
	known := map[string]bool{}
	for _, f := range figures {
		known[f] = true
	}
	if len(known) != len(figures) {
		t.Fatal("duplicate entries in figures")
	}
	for _, f := range allFigures {
		if !known[f] {
			t.Fatalf("all selects %q which is not a known figure", f)
		}
	}
	help := figureList()
	for _, f := range figures {
		if !strings.Contains(help, f) {
			t.Fatalf("figureList() missing %q: %s", f, help)
		}
	}
}

func TestSolverSection(t *testing.T) {
	if testing.Short() {
		t.Skip("full strategy sweep")
	}
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()

	path := t.TempDir() + "/bench.json"
	if err := run("solver", 1, "", path, 5, ""); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("benchjson not written: %v", err)
	}
	for _, frag := range []string{`"strategy": "topo"`, `"benchmark": "mg"`, `"ns_per_op"`, `"evaluations"`, `"allocs_per_op"`, `"num_cpu"`, `"gomaxprocs"`, `"footprint_bytes"`, `"benchmark": "huge3000"`,
		`"generate_ns_per_op"`, `"generate_bytes_per_op"`, `"generate_allocs_per_op"`, `"commit"`, `"dirty"`,
		`"ns_p25"`, `"ns_p75"`, `"unresolved"`} {
		if !strings.Contains(string(data), frag) {
			t.Fatalf("benchjson missing %q:\n%s", frag, data)
		}
	}
}

func TestIncrementalSection(t *testing.T) {
	if testing.Short() {
		t.Skip("full edit sweep")
	}
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()

	path := t.TempDir() + "/bench.json"
	if err := run("incremental", 1, "phased", path, 5, ""); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("benchjson not written: %v", err)
	}
	for _, frag := range []string{`"strategy": "phased"`, `"benchmark": "mg"`, `"delta_ns_per_op"`, `"strict_subset_edits"`, `"identical": true`} {
		if !strings.Contains(string(data), frag) {
			t.Fatalf("benchjson missing %q:\n%s", frag, data)
		}
	}
}

func TestUnknownStrategy(t *testing.T) {
	err := run("incremental", 1, "no-such-solver", "", 5, "")
	if err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if !strings.Contains(err.Error(), "no-such-solver") || !strings.Contains(err.Error(), "phased") {
		t.Fatalf("error does not name the strategy and the registered names: %v", err)
	}
}

func TestClockedSection(t *testing.T) {
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()

	n := 8
	if testing.Short() {
		n = 3
	}
	path := t.TempDir() + "/bench.json"
	if err := run("clocked", 1, "", path, n, ""); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("benchjson not written: %v", err)
	}
	for _, frag := range []string{`"name": "phased"`, `"blind_pairs"`, `"aware_pairs"`, `"pruned"`, `"strictly_fewer"`, `"num_cpu"`, `"gomaxprocs"`} {
		if !strings.Contains(string(data), frag) {
			t.Fatalf("benchjson missing %q:\n%s", frag, data)
		}
	}
}

func TestCorpusSection(t *testing.T) {
	if testing.Short() {
		t.Skip("two full corpus sweeps")
	}
	out, err := captureRunParallel(t, "corpus", 4)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, frag := range []string{"Corpus engine", "workers: 4", "speedup", "identical to sequential: true"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("corpus output missing %q:\n%s", frag, out)
		}
	}
}

func TestGofrontSection(t *testing.T) {
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()

	path := t.TempDir() + "/bench.json"
	if err := run("gofront", 1, "", path, 5, "../../testdata/goprograms"); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("benchjson not written: %v", err)
	}
	for _, frag := range []string{`"file": "fanout.go"`, `"file": "leaky.go"`, `"coverage"`, `"cs_pairs"`, `"observed_pairs"`, `"num_cpu"`, `"gomaxprocs"`} {
		if !strings.Contains(string(data), frag) {
			t.Fatalf("benchjson missing %q:\n%s", frag, data)
		}
	}
}
