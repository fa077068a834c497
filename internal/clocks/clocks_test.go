package clocks

import (
	"errors"
	"testing"

	"fx10/internal/parser"
	"fx10/internal/syntax"
)

// phased is the canonical split-phase program: two clocked workers
// write in phase 0, read each other's value in phase 1.
const phased = `
array 8;

void main() {
  C1: clocked async {
    W1: a[0] = 1;
    N1: next;
    R1: a[2] = a[1] + 1;
  }
  C2: clocked async {
    W2: a[1] = 1;
    N2: next;
    R2: a[3] = a[0] + 1;
  }
  N0: next;
  D: a[4] = 9;
}
`

func mustRun(t *testing.T, src string, seed int64) Result {
	t.Helper()
	p := parser.MustParse(src)
	res, err := Run(p, nil, seed, 100_000)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return res
}

// The barrier guarantees the phase-1 reads observe the phase-0
// writes, under every schedule.
func TestBarrierOrdersPhases(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		res := mustRun(t, phased, seed)
		if res.Array[2] != 2 || res.Array[3] != 2 {
			t.Fatalf("seed %d: phase-1 reads missed phase-0 writes: %v", seed, res.Array)
		}
		if res.Phases < 1 {
			t.Fatalf("seed %d: no barrier release recorded", seed)
		}
	}
}

// Erasing the clock (the core machine semantics) admits executions
// the barrier forbids: run under the unclocked goroutine-free formal
// semantics and find a final state the clocked semantics cannot
// produce. This validates that the barrier actually constrains.
func TestErasureIsStrictlyWeaker(t *testing.T) {
	p := parser.MustParse(phased)
	// Under clock semantics a[3] is always 2; under erasure R2 may
	// read a[0] before W1 runs, giving a[3] = 1.
	found := false
	for seed := int64(0); seed < 400 && !found; seed++ {
		st := runErased(t, p, seed)
		if st[3] == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("erased semantics never produced the unsynchronized outcome")
	}
}

func runErased(t *testing.T, p *syntax.Program, seed int64) []int64 {
	t.Helper()
	// Use the clocked interpreter itself but with registration
	// stripped, which is exactly clock erasure.
	q := parser.MustParse(eraseClocks(p))
	res, err := Run(q, nil, seed, 100_000)
	if err != nil {
		t.Fatalf("erased run: %v", err)
	}
	return res.Array
}

// eraseClocks prints the program with clocked asyncs downgraded and
// nexts dropped (replaced by skip via the core printer round trip).
func eraseClocks(p *syntax.Program) string {
	// Cheap and robust: print, then textually erase the extension
	// keywords. "clocked async" → "async"; "next;" → "skip;".
	src := syntax.Print(p)
	out := ""
	for _, line := range splitLines(src) {
		line = replaceAll(line, "clocked async", "async")
		line = replaceAll(line, "next;", "skip;")
		out += line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

func replaceAll(s, old, new string) string {
	for {
		i := index(s, old)
		if i < 0 {
			return s
		}
		s = s[:i] + new + s[i+len(old):]
	}
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// A registered activity that terminates early must not block the
// barrier for the others.
func TestTerminatedActivityLeavesClock(t *testing.T) {
	src := `
array 4;
void main() {
  clocked async {
    a[0] = 1;
  }
  clocked async {
    next;
    a[1] = a[0] + 1;
  }
  next;
  a[2] = 5;
}
`
	for seed := int64(0); seed < 50; seed++ {
		res := mustRun(t, src, seed)
		if res.Array[2] != 5 {
			t.Fatalf("seed %d: main never passed the barrier: %v", seed, res.Array)
		}
	}
}

// Multiple barriers advance the phase counter.
func TestMultiplePhases(t *testing.T) {
	src := `
array 4;
void main() {
  clocked async {
    next;
    next;
    next;
    a[0] = 1;
  }
  next;
  next;
  next;
  a[1] = 2;
}
`
	res := mustRun(t, src, 3)
	if res.Phases != 3 {
		t.Fatalf("phases = %d, want 3", res.Phases)
	}
}

// next in an unregistered activity is the dynamic error X10 raises.
func TestUnclockedNextError(t *testing.T) {
	src := `
array 2;
void main() {
  async {
    N: next;
  }
  next;
}
`
	p := parser.MustParse(src)
	// The error is scheduling-dependent only in *when* it fires, not
	// whether: try several seeds, each must fail.
	for seed := int64(0); seed < 10; seed++ {
		_, err := Run(p, nil, seed, 100_000)
		if !errors.Is(err, ErrUnclockedNext) {
			t.Fatalf("seed %d: err = %v, want ErrUnclockedNext", seed, err)
		}
	}
}

// A registered activity blocked in a finish whose clocked child waits
// at the barrier is the classic clock/finish deadlock; it must be
// detected, not hung.
func TestClockFinishDeadlockDetected(t *testing.T) {
	src := `
array 2;
void main() {
  finish {
    clocked async {
      next;
      a[0] = 1;
    }
  }
  next;
}
`
	p := parser.MustParse(src)
	for seed := int64(0); seed < 10; seed++ {
		_, err := Run(p, nil, seed, 100_000)
		if !errors.Is(err, ErrClockDeadlock) {
			t.Fatalf("seed %d: err = %v, want ErrClockDeadlock", seed, err)
		}
	}
}

// Fuel exhaustion reports rather than spins.
func TestClockedFuel(t *testing.T) {
	src := `
array 2;
void main() {
  a[0] = 1;
  while (a[0] != 0) { skip; }
}
`
	p := parser.MustParse(src)
	if _, err := Run(p, nil, 1, 500); !errors.Is(err, ErrFuel) {
		t.Fatalf("err = %v, want ErrFuel", err)
	}
}

// Finish inside clocked programs still joins correctly when no clock
// interaction occurs.
func TestFinishInsideClockedProgram(t *testing.T) {
	src := `
array 4;
void main() {
  clocked async {
    finish {
      async { a[0] = 7; }
    }
    a[1] = a[0] + 1;
    next;
  }
  next;
  a[2] = a[1] + 1;
}
`
	for seed := int64(0); seed < 50; seed++ {
		res := mustRun(t, src, seed)
		if res.Array[1] != 8 || res.Array[2] != 9 {
			t.Fatalf("seed %d: %v", seed, res.Array)
		}
	}
}

// The interpreter agrees with the core semantics on clock-free
// programs.
func TestAgreesWithCoreOnClockFree(t *testing.T) {
	src := `
array 4;
void main() {
  finish {
    async { a[0] = 1; }
    async { a[1] = 2; }
  }
  a[2] = a[0] + 1;
}
`
	for seed := int64(0); seed < 30; seed++ {
		res := mustRun(t, src, seed)
		if res.Array[0] != 1 || res.Array[1] != 2 || res.Array[2] != 2 {
			t.Fatalf("seed %d: %v", seed, res.Array)
		}
	}
}

// --- phase analysis ---

func phaseOf(t *testing.T, pi *PhaseInfo, p *syntax.Program, name string) Phase {
	t.Helper()
	l, ok := p.LabelByName(name)
	if !ok {
		t.Fatalf("label %s missing", name)
	}
	return pi.PhaseOf(l)
}

func TestPhaseAnalysisPhased(t *testing.T) {
	p := parser.MustParse(phased)
	pi := ComputePhases(p)
	wantKnown := map[string]int{
		"C1": 0, "C2": 0, "N0": 0, // spawns and main's barrier at phase 0
		"W1": 0, "W2": 0, "N1": 0, "N2": 0,
		"R1": 1, "R2": 1, // after one barrier
		"D": 1, // main after its next
	}
	for name, want := range wantKnown {
		ph := phaseOf(t, pi, p, name)
		got, ok := ph.IsKnown()
		if !ok || got != want {
			t.Errorf("phase(%s) = %v, want %d", name, ph, want)
		}
	}
}

func TestPhaseUnknownCases(t *testing.T) {
	p := parser.MustParse(`
array 4;
void main() {
  U: async {
    V: a[0] = 1;
  }
  W: while (a[1] != 0) {
    L: next;
  }
  Z: a[2] = 1;
}
`)
	pi := ComputePhases(p)
	// Inside an unregistered async: unknown.
	if _, ok := phaseOf(t, pi, p, "V").IsKnown(); ok {
		t.Fatalf("phase(V) should be unknown")
	}
	// The loop, and everything inside and after it, is unknown: the
	// loop test runs again after each barrier.
	if _, ok := phaseOf(t, pi, p, "W").IsKnown(); ok {
		t.Fatalf("phase(W) should be unknown")
	}
	if _, ok := phaseOf(t, pi, p, "L").IsKnown(); ok {
		t.Fatalf("phase(L) should be unknown")
	}
	if _, ok := phaseOf(t, pi, p, "Z").IsKnown(); ok {
		t.Fatalf("phase(Z) should be unknown")
	}
	// The async spawn itself is at phase 0.
	if got, ok := phaseOf(t, pi, p, "U").IsKnown(); !ok || got != 0 {
		t.Fatalf("phase(U) = %v", phaseOf(t, pi, p, "U"))
	}
}

func TestPhaseThroughCallsAndMerging(t *testing.T) {
	p := parser.MustParse(`
array 4;
void stepper() {
  SN: next;
}
void worker() {
  WX: a[0] = 1;
}
void main() {
  A: worker();
  N: stepper();
  B: worker();
  C: a[1] = 1;
}
`)
	pi := ComputePhases(p)
	// worker is called at phases 0 and 1: its labels merge to unknown.
	if _, ok := phaseOf(t, pi, p, "WX").IsKnown(); ok {
		t.Fatalf("phase(WX) should be unknown (two call phases)")
	}
	// stepper passes one barrier; C is after it.
	if got, ok := phaseOf(t, pi, p, "C").IsKnown(); !ok || got != 1 {
		t.Fatalf("phase(C) = %v, want 1", phaseOf(t, pi, p, "C"))
	}
	if got, ok := phaseOf(t, pi, p, "SN").IsKnown(); !ok || got != 0 {
		t.Fatalf("phase(SN) = %v, want 0", phaseOf(t, pi, p, "SN"))
	}
}

func TestPhaseLatticeOps(t *testing.T) {
	if got := Known(2).Join(Known(2)); got != Known(2) {
		t.Fatalf("join same: %v", got)
	}
	if got := Known(1).Join(Known(2)); got != Unknown {
		t.Fatalf("join diff: %v", got)
	}
	if got := Unset.Join(Known(3)); got != Known(3) {
		t.Fatalf("join unset: %v", got)
	}
	if got := Known(3).Join(Unknown); got != Unknown {
		t.Fatalf("join unknown: %v", got)
	}
	if Unknown.String() != "?" || Unset.String() != "⊥" || Known(12).String() != "12" {
		t.Fatalf("phase strings wrong")
	}
}

func TestParserClockedRoundTrip(t *testing.T) {
	p := parser.MustParse(phased)
	printed := syntax.Print(p)
	q, err := parser.Parse(printed)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if syntax.Print(q) != printed {
		t.Fatalf("clocked print/parse not a fixpoint")
	}
	c1, _ := q.LabelByName("C1")
	if a, ok := q.Labels[c1].Instr.(*syntax.Async); !ok || !a.Clocked {
		t.Fatalf("clocked flag lost in round trip")
	}
}
