package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs f with stdout redirected and returns what it printed.
// A concurrent reader drains the pipe so large outputs cannot block
// the writer.
func capture(t *testing.T, f func() error) (string, error) {
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
	ferr := f()
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

const fanout = "../../testdata/fanout.fx10"
const spinflag = "../../testdata/spinflag.fx10"

func TestCmdRun(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"run", fanout}) })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "done=true") || !strings.Contains(out, "result a[0]=1") {
		t.Fatalf("unexpected output: %s", out)
	}
}

func TestCmdRunTraceRandom(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"run", "-trace", "-sched", "random", "-seed", "5", fanout})
	})
	if err != nil {
		t.Fatalf("run -trace: %v", err)
	}
	if !strings.Contains(out, ">>") { // a finish tree appears in the trace
		t.Fatalf("trace missing tree rendering: %s", out)
	}
	if !strings.Contains(out, "done=true") {
		t.Fatalf("trace did not finish: %s", out)
	}
}

func TestCmdRunInitialArray(t *testing.T) {
	// Arm the spin loop's flag from the command line... it is armed by
	// the program; instead check -a plumbs through on fanout.
	out, err := capture(t, func() error { return run([]string{"run", "-a", "0,0,0,0,9", fanout}) })
	if err != nil {
		t.Fatalf("run -a: %v", err)
	}
	if !strings.Contains(out, "9") {
		t.Fatalf("initial array not used: %s", out)
	}
}

func TestCmdExec(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"exec", fanout}) })
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if !strings.Contains(out, "result a[0]=1") {
		t.Fatalf("unexpected output: %s", out)
	}
}

func TestCmdMHP(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"mhp", "-races", spinflag}) })
	if err != nil {
		t.Fatalf("mhp: %v", err)
	}
	for _, frag := range []string{"MHP pairs", "(W, L)", "race candidates", "a[0]: Z vs L"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("mhp output missing %q:\n%s", frag, out)
		}
	}
}

func TestCmdMHPModesAndPlaces(t *testing.T) {
	if _, err := capture(t, func() error { return run([]string{"mhp", "-mode", "ci", spinflag}) }); err != nil {
		t.Fatalf("mhp -mode ci: %v", err)
	}
	if _, err := capture(t, func() error { return run([]string{"mhp", "-places", spinflag}) }); err != nil {
		t.Fatalf("mhp -places: %v", err)
	}
	if _, err := capture(t, func() error { return run([]string{"mhp", "-mode", "bogus", spinflag}) }); err == nil {
		t.Fatalf("bogus mode accepted")
	}
}

func TestCmdConstraints(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"constraints", fanout}) })
	if err != nil {
		t.Fatalf("constraints: %v", err)
	}
	if !strings.Contains(out, "m_F = Lcross(F, r_F)") {
		t.Fatalf("constraints output missing finish constraint:\n%s", out)
	}
	if !strings.Contains(out, "Slabels") {
		t.Fatalf("constraints header missing:\n%s", out)
	}
}

func TestCmdExplore(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"explore", fanout}) })
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if !strings.Contains(out, "complete=true") || !strings.Contains(out, "exact MHP pairs") {
		t.Fatalf("explore output malformed:\n%s", out)
	}
}

func TestCmdPrintAndCheck(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"print", fanout}) })
	if err != nil {
		t.Fatalf("print: %v", err)
	}
	if !strings.Contains(out, "F: finish {") {
		t.Fatalf("print output malformed:\n%s", out)
	}
	out, err = capture(t, func() error { return run([]string{"check", fanout}) })
	if err != nil || !strings.Contains(out, "ok:") {
		t.Fatalf("check: %v / %s", err, out)
	}
}

func TestCmdErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"bogus"},
		{"run"},                          // missing file
		{"run", "/nonexistent.fx10"},     // unreadable
		{"run", "-sched", "wat", fanout}, // bad scheduler
		{"mhp"},                          // missing file
	}
	for _, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Fatalf("args %v unexpectedly succeeded", args)
		}
	}
}

func TestCmdRunDivergenceReported(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spin.fx10")
	src := "array 1;\nvoid main() {\n  a[0] = 1;\n  while (a[0] != 0) { skip; }\n}\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := capture(t, func() error { return run([]string{"run", "-steps", "100", path}) })
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("divergence not reported: %v", err)
	}
}

func TestParseArray(t *testing.T) {
	got, err := parseArray("1, 2,3")
	if err != nil || len(got) != 3 || got[2] != 3 {
		t.Fatalf("parseArray: %v %v", got, err)
	}
	if _, err := parseArray("1,x"); err == nil {
		t.Fatalf("bad csv accepted")
	}
	if got, err := parseArray(""); err != nil || got != nil {
		t.Fatalf("empty csv: %v %v", got, err)
	}
}

const phased = "../../testdata/phased.fx10"

func TestCmdClocked(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"clocked", "-seed", "3", phased}) })
	if err != nil {
		t.Fatalf("clocked: %v", err)
	}
	if !strings.Contains(out, "phases=1") {
		t.Fatalf("clocked output missing phase count: %s", out)
	}
	// The barrier guarantees both cross-phase reads.
	if !strings.Contains(out, "a=[1 1 2 2") {
		t.Fatalf("clocked result wrong: %s", out)
	}
}

func TestCmdMHPClockAwareByDefault(t *testing.T) {
	full, err := capture(t, func() error { return run([]string{"mhp", phased}) })
	if err != nil {
		t.Fatalf("mhp: %v", err)
	}
	if strings.Contains(full, "(WL, RR)") {
		t.Fatalf("default analysis kept a cross-phase pair:\n%s", full)
	}
	if !strings.Contains(full, "(WL, WR)") {
		t.Fatalf("default analysis dropped a same-phase pair:\n%s", full)
	}
	if !strings.Contains(full, "pruned") {
		t.Fatalf("default analysis does not report pruned pairs:\n%s", full)
	}
}

func TestCmdMHPJSON(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"mhp", "-json", spinflag}) })
	if err != nil {
		t.Fatalf("mhp -json: %v", err)
	}
	if !strings.Contains(out, `"mhpPairs"`) || !strings.Contains(out, `"raceCandidates"`) {
		t.Fatalf("json output malformed:\n%s", out)
	}
}
