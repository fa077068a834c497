package mhp

import (
	"bytes"
	"encoding/json"
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/fixtures"
	"fx10/internal/parser"
	"fx10/internal/syntax"
)

func label(t *testing.T, p *syntax.Program, name string) syntax.Label {
	t.Helper()
	l, ok := p.LabelByName(name)
	if !ok {
		t.Fatalf("label %s missing", name)
	}
	return l
}

func TestAnalyzeExample22Queries(t *testing.T) {
	p := fixtures.Example22()
	r := MustAnalyze(p, constraints.ContextSensitive)
	s3 := label(t, p, "S3")
	s4 := label(t, p, "S4")
	s5 := label(t, p, "S5")
	if !r.MayHappenInParallel(s5, s3) || !r.MayHappenInParallel(s3, s5) {
		t.Fatalf("missing (S5,S3)")
	}
	if r.MayHappenInParallel(s3, s4) {
		t.Fatalf("spurious (S3,S4)")
	}
	with := r.ParallelWith(s5)
	if len(with) != 3 { // S3, A4, S4
		t.Fatalf("ParallelWith(S5) = %v, want 3 labels", with)
	}
}

func TestAsyncBodyPairsExample22(t *testing.T) {
	p := fixtures.Example22()
	r := MustAnalyze(p, constraints.ContextSensitive)
	pairs := r.AsyncBodyPairs()
	// Expected async-body pairs: (A3,A5) via S3↔S5 — different
	// methods; (A4,A5) via S4/A4↔S5 — different methods.
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v, want 2", pairs)
	}
	counts := CountPairs(pairs)
	if counts.Total != 2 || counts.Diff != 2 || counts.Self != 0 || counts.Same != 0 {
		t.Fatalf("counts = %+v", counts)
	}
	for _, pr := range pairs {
		if pr.A > pr.B {
			t.Fatalf("pair not ordered: %v", pr)
		}
	}
}

func TestAsyncBodyCategorySelfAndSame(t *testing.T) {
	p := parser.MustParse(`
array 2;
void main() {
  W: while (a[0] != 0) {
    B1: async { S1: skip; }
    B2: async { S2: skip; }
  }
}
`)
	r := MustAnalyze(p, constraints.ContextSensitive)
	counts := CountPairs(r.AsyncBodyPairs())
	// (B1,B1) and (B2,B2) self via loop; (B1,B2) same-method.
	if counts.Self != 2 || counts.Same != 1 || counts.Diff != 0 || counts.Total != 3 {
		t.Fatalf("counts = %+v, pairs = %v", counts, r.AsyncBodyPairs())
	}
}

func TestAsyncBodyCategoryDiff(t *testing.T) {
	// The paper's "same → diff" refactoring: moving the loop async
	// into a called method turns a same pair into a diff pair.
	p := parser.MustParse(`
array 2;
void spawn() { B1: async { S1: skip; } }
void main() {
  W: while (a[0] != 0) {
    spawn();
    B2: async { S2: skip; }
  }
}
`)
	r := MustAnalyze(p, constraints.ContextSensitive)
	counts := CountPairs(r.AsyncBodyPairs())
	if counts.Diff != 1 || counts.Self != 2 || counts.Same != 0 {
		t.Fatalf("counts = %+v, pairs = %v", counts, r.AsyncBodyPairs())
	}
}

func TestFinishSuppressesAsyncPairs(t *testing.T) {
	p := parser.MustParse(`
array 2;
void main() {
  W: while (a[0] != 0) {
    F: finish {
      B1: async { S1: skip; }
    }
  }
}
`)
	r := MustAnalyze(p, constraints.ContextSensitive)
	if got := r.AsyncBodyPairs(); len(got) != 0 {
		t.Fatalf("finish-wrapped loop async should yield no pairs, got %v", got)
	}
}

func TestRaceCandidates(t *testing.T) {
	p := parser.MustParse(`
array 4;
void main() {
  B1: async { W1: a[0] = 1; }
  B2: async { W2: a[0] = 2; }
  R1: a[1] = a[0] + 1;
  S:  a[2] = 3;
}
`)
	r := MustAnalyze(p, constraints.ContextSensitive)
	races := r.RaceCandidates()
	type key struct {
		a, b  string
		idx   int
		write bool
	}
	got := map[key]bool{}
	for _, rc := range races {
		got[key{p.LabelName(rc.L1), p.LabelName(rc.L2), rc.Index, rc.WriteWrite}] = true
	}
	if !got[key{"W1", "W2", 0, true}] {
		t.Fatalf("missing W1/W2 write-write race on a[0]: %v", races)
	}
	if !got[key{"W1", "R1", 0, false}] || !got[key{"W2", "R1", 0, false}] {
		t.Fatalf("missing write-read races on a[0]: %v", races)
	}
	// No race on index 2 (S doesn't pair with itself and no one else
	// touches a[2]) and none involving only reads.
	for k := range got {
		if k.idx == 2 {
			t.Fatalf("spurious race on a[2]: %v", races)
		}
	}
}

func TestRaceCandidatesSynchronizedByFinish(t *testing.T) {
	p := parser.MustParse(`
array 2;
void main() {
  F: finish {
    B1: async { W1: a[0] = 1; }
  }
  R1: a[1] = a[0] + 1;
}
`)
	r := MustAnalyze(p, constraints.ContextSensitive)
	if races := r.RaceCandidates(); len(races) != 0 {
		t.Fatalf("finish-synchronized program reported races: %v", races)
	}
}

func TestWhileGuardParticipatesInRaces(t *testing.T) {
	p := parser.MustParse(`
array 2;
void main() {
  B: async { W1: a[0] = 0; }
  L: while (a[0] != 0) { skip; }
}
`)
	r := MustAnalyze(p, constraints.ContextSensitive)
	races := r.RaceCandidates()
	found := false
	for _, rc := range races {
		if p.LabelName(rc.L1) == "W1" && p.LabelName(rc.L2) == "L" && rc.Index == 0 && !rc.WriteWrite {
			found = true
		}
		if p.LabelName(rc.L2) == "W1" && p.LabelName(rc.L1) == "L" && rc.Index == 0 && !rc.WriteWrite {
			found = true
		}
	}
	if !found {
		t.Fatalf("guard read race not reported: %v", races)
	}
}

func TestCheckFalsePositivesCleanProgram(t *testing.T) {
	p := fixtures.Example22()
	r := MustAnalyze(p, constraints.ContextSensitive)
	rep := r.CheckFalsePositives(nil, 1_000_000)
	if !rep.Complete {
		t.Fatalf("exploration incomplete")
	}
	if !rep.SoundnessHolds {
		t.Fatalf("soundness violated")
	}
	if len(rep.FalsePositives) != 0 {
		t.Fatalf("false positives on example 2.2: %v", rep.FalsePositives)
	}
	if len(rep.ExactPairs) != len(rep.InferredPairs) {
		t.Fatalf("exact %v vs inferred %v", rep.ExactPairs, rep.InferredPairs)
	}
}

// deadLoopSrc is the paper's Section 8 pattern: a never-executed loop
// makes the analysis report a pair that never happens.
const deadLoopSrc = `
array 2;
void main() {
  W: while (a[0] != 0) {
    B1: async { S1: skip; }
  }
  B2: async { S2: skip; }
}
`

func TestCheckFalsePositivesDeadLoop(t *testing.T) {
	p := parser.MustParse(deadLoopSrc)
	r := MustAnalyze(p, constraints.ContextSensitive)
	rep := r.CheckFalsePositives(nil, 1_000_000)
	if !rep.Complete || !rep.SoundnessHolds {
		t.Fatalf("exploration incomplete or unsound")
	}
	// Both (B1,B1) — the two-iteration assumption — and (B1,B2) are
	// false positives here.
	want := map[[2]string]bool{{"B1", "B1"}: false, {"B1", "B2"}: false}
	for _, fp := range rep.FalsePositives {
		k := [2]string{p.LabelName(fp.A), p.LabelName(fp.B)}
		if _, ok := want[k]; !ok {
			t.Fatalf("unexpected false positive %v", k)
		}
		want[k] = true
	}
	for k, seen := range want {
		if !seen {
			t.Fatalf("expected false positive %v not reported (got %v)", k, rep.FalsePositives)
		}
	}
}

func TestContextInsensitiveMoreAsyncPairs(t *testing.T) {
	p := fixtures.Example22()
	cs := MustAnalyze(p, constraints.ContextSensitive)
	ci := MustAnalyze(p, constraints.ContextInsensitive)
	if len(ci.AsyncBodyPairs()) < len(cs.AsyncBodyPairs()) {
		t.Fatalf("CI reported fewer async pairs than CS")
	}
	// On this example CI adds the (A3,A4) pair through the S3/S4
	// false positive.
	a3 := label(t, p, "A3")
	a4 := label(t, p, "A4")
	foundCI := false
	for _, pr := range ci.AsyncBodyPairs() {
		if pr.A == a3 && pr.B == a4 {
			foundCI = true
		}
	}
	if !foundCI {
		t.Fatalf("CI missing (A3,A4): %v", ci.AsyncBodyPairs())
	}
	for _, pr := range cs.AsyncBodyPairs() {
		if pr.A == a3 && pr.B == a4 {
			t.Fatalf("CS has spurious (A3,A4)")
		}
	}
}

func TestCategoryString(t *testing.T) {
	if Self.String() != "self" || Same.String() != "same" || Diff.String() != "diff" {
		t.Fatalf("category strings wrong")
	}
	if Category(9).String() != "?" {
		t.Fatalf("unknown category string")
	}
}

func TestReportJSON(t *testing.T) {
	p := fixtures.Example22()
	r := MustAnalyze(p, constraints.ContextSensitive)
	rep := r.Report()
	if rep.Mode != "context-sensitive" || rep.Methods != 2 || rep.Labels != p.NumLabels() {
		t.Fatalf("header wrong: %+v", rep)
	}
	if len(rep.Pairs) != 5 {
		t.Fatalf("pairs = %d, want 5", len(rep.Pairs))
	}
	if rep.PairCounts.Total != 2 || len(rep.AsyncPairs) != 2 {
		t.Fatalf("async pairs wrong: %+v", rep.PairCounts)
	}
	var fSummary *SummaryJ
	for i := range rep.Summaries {
		if rep.Summaries[i].Method == "f" {
			fSummary = &rep.Summaries[i]
		}
	}
	if fSummary == nil || len(fSummary.Outlives) != 1 || fSummary.Outlives[0] != "S5" {
		t.Fatalf("f summary wrong: %+v", fSummary)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded Report
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	// The default strategy (topo) runs no level-1/level-2 passes: it
	// counts constraint evaluations instead.
	if got := analyzeEngine.Strategy().Name(); got != "topo" {
		t.Fatalf("Analyze runs strategy %q, want topo", got)
	}
	if r.Sol.Evaluations == 0 {
		t.Fatal("topo solve reports no evaluations")
	}
	if decoded.Constraints.Slabels == 0 || decoded.Iterations.Slabels == 0 {
		t.Fatalf("decoded metrics empty: %+v", decoded)
	}
}

func TestReportWithoutCachedEnv(t *testing.T) {
	p := fixtures.Example22()
	full := MustAnalyze(p, constraints.ContextSensitive)
	bare := &Result{Program: full.Program, Info: full.Info, Sys: full.Sys, Sol: full.Sol, M: full.M}
	rep := bare.Report()
	if len(rep.Summaries) != 2 {
		t.Fatalf("summaries = %d", len(rep.Summaries))
	}
}

// clockedPhasesSrc has two clocked asyncs whose cross-phase accesses
// the barrier orders.
const clockedPhasesSrc = `
array 8;
void main() {
  L: clocked async {
    WL: a[0] = 1;
    NL: next;
    RL: a[2] = a[1] + 1;
  }
  R: clocked async {
    WR: a[1] = 1;
    NR: next;
    RR: a[3] = a[0] + 1;
  }
  N: next;
  D: a[4] = a[2] + 1;
}
`

// TestCheckFalsePositivesClocked: on a clocked program the exact
// relation comes from the barrier-aware explorer, so the phase-pruned
// analysis must still be sound — the erased explorer would have
// flagged every pruned pair as a soundness violation.
func TestCheckFalsePositivesClocked(t *testing.T) {
	p := parser.MustParse(clockedPhasesSrc)
	r := MustAnalyze(p, constraints.ContextSensitive)
	rep := r.CheckFalsePositives(nil, 1_000_000)
	if !rep.Complete {
		t.Fatal("exploration incomplete")
	}
	if !rep.SoundnessHolds {
		t.Error("phase-pruned analysis flagged unsound against the clocked exact relation")
	}
	// The pruning is visible in the relation itself: the cross-phase
	// pair (WL, RR) must be absent from the analysis result.
	wl, _ := p.LabelByName("WL")
	rr, _ := p.LabelByName("RR")
	if r.M.Has(int(wl), int(rr)) {
		t.Error("cross-phase pair (WL, RR) survived the phase pruning")
	}
}
