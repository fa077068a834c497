package explore

import (
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/fixtures"
	"fx10/internal/intset"
	"fx10/internal/labels"
	"fx10/internal/parser"
	"fx10/internal/syntax"
)

func expected(t *testing.T, p *syntax.Program, pairs [][2]string) *intset.PairSet {
	t.Helper()
	out := intset.NewPairs(p.NumLabels())
	for _, pr := range pairs {
		l1, ok1 := p.LabelByName(pr[0])
		l2, ok2 := p.LabelByName(pr[1])
		if !ok1 || !ok2 {
			t.Fatalf("labels %v missing", pr)
		}
		out.AddSym(int(l1), int(l2))
	}
	return out
}

// For both paper examples the analysis is exact ("best possible"), so
// exhaustive exploration must produce exactly the same MHP relation.
func TestGroundTruthMatchesPaperExamples(t *testing.T) {
	cases := []struct {
		name, src string
		pairs     [][2]string
	}{
		{"example21", fixtures.Example21Source, fixtures.Example21MHP},
		{"example22", fixtures.Example22Source, fixtures.Example22MHP},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := parser.MustParse(tc.src)
			res := MHP(p, nil, 1_000_000)
			if !res.Complete {
				t.Fatalf("exploration incomplete after %d states", res.States)
			}
			if !res.Terminated {
				t.Fatalf("no terminating execution found")
			}
			if res.ProgressViolations != 0 {
				t.Fatalf("%d progress violations", res.ProgressViolations)
			}
			want := expected(t, p, tc.pairs)
			if !res.MHP.Equal(want) {
				t.Fatalf("exact MHP = %v, want %v", res.MHP, want)
			}
		})
	}
}

// Theorem 3 end to end: the exact relation is contained in the
// analysis result, on programs where the analysis is conservative.
func TestSoundnessWithConservativeLoop(t *testing.T) {
	// The paper's Section 8 false-positive pattern: the loop never
	// executes (guard is 0), so dynamically S1 and S2 never overlap,
	// but the analysis reports (S1, S2).
	p := parser.MustParse(`
array 2;
void main() {
  W: while (a[0] != 0) {
    B1: async { S1: skip; }
  }
  B2: async { S2: skip; }
}
`)
	res := MHP(p, nil, 1_000_000)
	if !res.Complete {
		t.Fatalf("exploration incomplete")
	}
	sys := constraints.Generate(labels.Compute(p), constraints.ContextSensitive)
	m := sys.Solve(constraints.Phased).MainM()
	if !res.MHP.SubsetOf(m) {
		t.Fatalf("soundness violated: exact %v ⊄ inferred %v", res.MHP, m)
	}
	s1, _ := p.LabelByName("S1")
	s2, _ := p.LabelByName("S2")
	if res.MHP.Has(int(s1), int(s2)) {
		t.Fatalf("dead loop body executed dynamically?")
	}
	if !m.Has(int(s1), int(s2)) {
		t.Fatalf("analysis missing the expected conservative (S1,S2) pair")
	}
}

// A method with an async, called twice without an intervening finish:
// the two spawned bodies share one async label, so the self pair
// (S1, S1) is dynamically real — as is the overlap with the later
// async. (A loop-spawned self pair behaves identically but has an
// unbounded reachable state space, so the bounded two-call shape is
// what the explorer can verify exhaustively.)
func TestCallTwiceDynamicSelfPair(t *testing.T) {
	p := parser.MustParse(`
array 2;
void m() { B1: async { S1: skip; } }
void main() {
  m();
  m();
  B2: async { S2: skip; }
}
`)
	res := MHP(p, nil, 1_000_000)
	if !res.Complete {
		t.Fatalf("exploration incomplete after %d states", res.States)
	}
	s1, _ := p.LabelByName("S1")
	s2, _ := p.LabelByName("S2")
	if !res.MHP.Has(int(s1), int(s2)) {
		t.Fatalf("(S1,S2) not found dynamically: %v", res.MHP)
	}
	if !res.MHP.Has(int(s1), int(s1)) {
		t.Fatalf("(S1,S1) self pair not found dynamically")
	}
	// Soundness against the analysis on the same program.
	sys := constraints.Generate(labels.Compute(p), constraints.ContextSensitive)
	m := sys.Solve(constraints.Phased).MainM()
	if !res.MHP.SubsetOf(m) {
		t.Fatalf("soundness violated")
	}
}

func TestBudgetExhaustion(t *testing.T) {
	p := parser.MustParse(fixtures.Example21Source)
	res := MHP(p, nil, 5)
	if res.Complete {
		t.Fatalf("tiny budget reported complete")
	}
	if res.States == 0 || res.States > 5 {
		t.Fatalf("states = %d, want within budget", res.States)
	}
}

func TestReachableFinalsRace(t *testing.T) {
	p := parser.MustParse(`
array 2;
void main() {
  async { a[0] = 10; }
  a[1] = a[0] + 1;
}
`)
	finals, complete := ReachableFinals(p, nil, 1_000_000)
	if !complete {
		t.Fatalf("incomplete")
	}
	if len(finals) != 2 {
		t.Fatalf("racy program should have 2 distinct finals, got %d: %v", len(finals), finals)
	}
}

func TestReachableFinalsDeterministicWithFinish(t *testing.T) {
	p := parser.MustParse(`
array 2;
void main() {
  finish {
    async { a[0] = 10; }
  }
  a[1] = a[0] + 1;
}
`)
	finals, complete := ReachableFinals(p, nil, 1_000_000)
	if !complete {
		t.Fatalf("incomplete")
	}
	if len(finals) != 1 {
		t.Fatalf("finish-synchronized program should have 1 final, got %d: %v", len(finals), finals)
	}
	for _, a := range finals {
		if a[0] != 10 || a[1] != 11 {
			t.Fatalf("final = %v", a)
		}
	}
}

func TestInitialArrayRespected(t *testing.T) {
	p := parser.MustParse(`
array 2;
void main() {
  while (a[0] != 0) {
    a[1] = 1;
    a[0] = 0;
  }
}
`)
	finals, _ := ReachableFinals(p, []int64{1, 0}, 100000)
	if len(finals) != 1 {
		t.Fatalf("finals = %v", finals)
	}
	for _, a := range finals {
		if a[1] != 1 {
			t.Fatalf("loop body did not run with a0=1: %v", a)
		}
	}
}
