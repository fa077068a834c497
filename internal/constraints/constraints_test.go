package constraints

import (
	"strings"
	"testing"

	"fx10/internal/fixtures"
	"fx10/internal/intset"
	"fx10/internal/labels"
	"fx10/internal/parser"
	"fx10/internal/syntax"
	"fx10/internal/types"
	"fx10/internal/workloads"
)

func gen(t *testing.T, src string, mode Mode) (*syntax.Program, *System) {
	t.Helper()
	p := parser.MustParse(src)
	return p, Generate(labels.Compute(p), mode)
}

func namedPairs(t *testing.T, p *syntax.Program, pairs [][2]string) *intset.PairSet {
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

// Figure 5: the generated constraints for the Section 2.1 example
// must match the paper's system line for line (modulo our method-
// variable naming).
func TestFigure5Constraints(t *testing.T) {
	_, sys := gen(t, fixtures.Example21Source, ContextSensitive)
	out := sys.String()
	for _, want := range []string{
		"r_S0 = {}",
		"r_S1 = r_S0",
		"r_S3 = r_S0",
		"r_S13 = {S2} ∪ r_S1",
		"r_S5 = r_S13",
		"r_S8 = r_S13",
		"r_S6 = r_S5",
		"r_S11 = {S12, S7} ∪ r_S6",
		"r_S7 = {S11} ∪ r_S6",
		"r_S12 = r_S7",
		"o_S11 = r_S11",
		"o_S12 = r_S12",
		"o_S7 = {S12} ∪ r_S7",
		"o_S6 = o_S7",
		"o_S5 = o_S6",
		"o_S13 = o_S8",
		"o_S1 = o_S2",
		"o_S0 = o_S3",
		"m_S0 = Lcross(S0, r_S0) ∪ m_S1 ∪ m_S3",
		"m_S1 = Lcross(S1, r_S1) ∪ m_S13 ∪ m_S2",
		"m_S13 = Lcross(S13, r_S13) ∪ m_S5 ∪ m_S8",
		"m_S5 = Lcross(S5, r_S5) ∪ m_S6",
		"m_S6 = Lcross(S6, r_S6) ∪ m_S11 ∪ m_S7",
		"m_S11 = Lcross(S11, r_S11)",
		"m_S7 = Lcross(S7, r_S7) ∪ m_S12",
		"m_S12 = Lcross(S12, r_S12)",
		"m_S8 = Lcross(S8, r_S8)",
		"m_S2 = Lcross(S2, r_S2)",
		"m_S3 = Lcross(S3, r_S3)",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("generated system missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full system:\n%s", out)
	}
}

// Solved level-1 values for the Section 2.1 example, from hand
// evaluation of Figure 5.
func TestExample21Level1Solution(t *testing.T) {
	p, sys := gen(t, fixtures.Example21Source, ContextSensitive)
	sol := sys.Solve(Phased)
	check := func(varName string, want ...string) {
		t.Helper()
		var v SetVar = -1
		for i, n := range sys.SetVarNames {
			if n == varName {
				v = SetVar(i)
			}
		}
		if v < 0 {
			t.Fatalf("variable %s not found", varName)
		}
		wantSet := intset.New(p.NumLabels())
		for _, w := range want {
			l, ok := p.LabelByName(w)
			if !ok {
				t.Fatalf("label %s missing", w)
			}
			wantSet.Add(int(l))
		}
		if !sol.SetValue(v).Equal(wantSet) {
			t.Fatalf("%s = %s, want %s", varName, sys.labelSetString(sol.SetValue(v)), sys.labelSetString(wantSet))
		}
	}
	check("r_S0")
	check("r_S2", "S13", "S5", "S6", "S7", "S8", "S11", "S12")
	check("r_S13", "S2")
	check("r_S11", "S2", "S7", "S12")
	check("r_S7", "S2", "S11")
	check("r_S12", "S2", "S11")
	check("o_S7", "S2", "S11", "S12")
	check("o_S13", "S2") // finish discards the body's O
	check("o_main")      // everything in main is finish-wrapped
}

// The solved main m variable must be exactly the paper's reported
// MHP set for both examples.
func TestSolvedMHPMatchesPaper(t *testing.T) {
	cases := []struct {
		src   string
		pairs [][2]string
	}{
		{fixtures.Example21Source, fixtures.Example21MHP},
		{fixtures.Example22Source, fixtures.Example22MHP},
	}
	for i, tc := range cases {
		p, sys := gen(t, tc.src, ContextSensitive)
		sol := sys.Solve(Phased)
		want := namedPairs(t, p, tc.pairs)
		if !sol.MainM().Equal(want) {
			t.Fatalf("case %d: solved M = %v, want %v", i, sol.MainM(), want)
		}
	}
}

// Theorem 4 (equivalence): the solved environment type-checks, and it
// coincides with the least environment direct type inference finds.
func TestEquivalenceTheorem4(t *testing.T) {
	srcs := []string{
		fixtures.Example21Source,
		fixtures.Example22Source,
		`void rec() { W: while (a[0] != 0) { B: async { S: skip; } C: rec(); } }
		 void main() { M: rec(); }`,
		`void f() { g(); } void g() { f(); } void main() { f(); async { g(); } }`,
	}
	for i, src := range srcs {
		p := parser.MustParse(src)
		in := labels.Compute(p)
		sys := Generate(in, ContextSensitive)
		sol := sys.Solve(Phased)
		env := sol.Env()

		c := types.NewChecker(in)
		if err := c.Check(env); err != nil {
			t.Fatalf("case %d: solved env fails type check: %v", i, err)
		}
		inferred := c.Infer().Env
		if !env.Equal(inferred) {
			t.Fatalf("case %d: solver and direct inference disagree", i)
		}
	}
}

// TestValuationEqualDetectsDifference guards the comparator itself:
// solutions of different programs must not compare equal.
func TestValuationEqualDetectsDifference(t *testing.T) {
	_, sys1 := gen(t, fixtures.Example21Source, ContextSensitive)
	_, sys2 := gen(t, fixtures.Example22Source, ContextSensitive)
	a := sys1.Solve(Phased)
	b := sys2.Solve(Phased)
	if a.ValuationEqual(b) {
		t.Fatal("valuations of different programs compare equal")
	}
	if !a.ValuationEqual(sys1.Solve(Topo)) {
		t.Fatal("same system solved twice compares unequal")
	}
}

// Section 7: on the Section 2.2 example the context-insensitive
// analysis must produce the (S3, S4) false positive that the
// context-sensitive analysis avoids — the paper's motivating
// comparison.
func TestContextInsensitiveFalsePositive(t *testing.T) {
	p, csSys := gen(t, fixtures.Example22Source, ContextSensitive)
	cs := csSys.Solve(Phased)
	_, ciSys := gen(t, fixtures.Example22Source, ContextInsensitive)
	ci := ciSys.Solve(Phased)

	s3, _ := p.LabelByName("S3")
	s4, _ := p.LabelByName("S4")
	if cs.MainM().Has(int(s3), int(s4)) {
		t.Fatalf("context-sensitive analysis produced (S3,S4)")
	}
	if !ci.MainM().Has(int(s3), int(s4)) {
		t.Fatalf("context-insensitive analysis did not produce (S3,S4)")
	}
	// Context-insensitive must still be a superset (it is strictly
	// more conservative).
	if !cs.MainM().SubsetOf(ci.MainM()) {
		t.Fatalf("CS result not a subset of CI result")
	}
}

// Without method calls the two analyses coincide (as the paper
// observed on the 11 smaller benchmarks).
func TestModesAgreeWithoutCalls(t *testing.T) {
	p, csSys := gen(t, fixtures.Example21Source, ContextSensitive)
	cs := csSys.Solve(Phased)
	_, ciSys := gen(t, fixtures.Example21Source, ContextInsensitive)
	ci := ciSys.Solve(Phased)
	if !cs.MainM().Equal(ci.MainM()) {
		t.Fatalf("modes disagree on a call-free program")
	}
	_ = p
}

func TestCounts(t *testing.T) {
	_, sys := gen(t, fixtures.Example21Source, ContextSensitive)
	sl, l1, l2 := sys.Counts()
	// 11 statement nodes (S0,S1,S13,S5,S6,S11,S7,S12,S8,S2,S3).
	if sl != 11 {
		t.Fatalf("Slabels count = %d, want 11", sl)
	}
	// One m constraint per statement plus one per method.
	if l2 != 12 {
		t.Fatalf("level-2 count = %d, want 12", l2)
	}
	// Level-1: 2 for the single method (r_s0 = ∅ and o_i = o_s0) plus
	// 21 statement-level constraints (3 each for the two finishes and
	// two asyncs with continuations, 2 for the async without one, 2
	// for the one mid-sequence skip, 1 each for the five trailing
	// skips).
	if l1 != 23 {
		t.Fatalf("level-1 count = %d, want 23", l1)
	}

	// Context-insensitive adds one subset constraint per call site
	// and one base constraint per method r_i.
	_, ciSys := gen(t, fixtures.Example22Source, ContextInsensitive)
	_, ciL1, _ := ciSys.Counts()
	_, csL1, _ := Generate(labels.Compute(parser.MustParse(fixtures.Example22Source)), ContextSensitive).Counts()
	if ciL1 != csL1+2+2 { // 2 methods (r_i base) + 2 call sites (subsets)
		t.Fatalf("CI level-1 = %d, CS = %d, want CI = CS+4", ciL1, csL1)
	}
}

func TestIterationCountsSane(t *testing.T) {
	_, sys := gen(t, fixtures.Example22Source, ContextSensitive)
	sol := sys.Solve(Phased)
	if sol.IterSlabels < 2 || sol.IterL1 < 2 || sol.IterL2 < 2 {
		t.Fatalf("iteration counts too small: %d/%d/%d", sol.IterSlabels, sol.IterL1, sol.IterL2)
	}
	if sol.Duration <= 0 {
		t.Fatalf("duration not recorded")
	}
	if sol.FootprintBytes <= 0 {
		t.Fatalf("footprint not recorded")
	}
}

// The context-insensitive analysis needs more level-1 iterations on
// call-heavy programs (the paper's Figure 9 effect): labels must flow
// call-chain-deep through the rᵢ variables.
func TestCIMoreIterationsOnCallChain(t *testing.T) {
	src := `
void main() { A: async { X: skip; } c1(); }
void c1() { c2(); }
void c2() { c3(); }
void c3() { c4(); }
void c4() { B: async { Y: skip; } }
`
	_, csSys := gen(t, src, ContextSensitive)
	cs := csSys.Solve(Phased)
	_, ciSys := gen(t, src, ContextInsensitive)
	ci := ciSys.Solve(Phased)
	if ci.IterL1 <= cs.IterL1 {
		t.Fatalf("expected CI to need more level-1 passes: CI %d vs CS %d", ci.IterL1, cs.IterL1)
	}
}

func TestStmtAccessors(t *testing.T) {
	p, sys := gen(t, fixtures.Example21Source, ContextSensitive)
	sol := sys.Solve(Phased)
	body := p.Main().Body
	if !sol.StmtR(body).Empty() {
		t.Fatalf("r of main body not empty")
	}
	s3set := sol.StmtO(body)
	s3, _ := p.LabelByName("S3")
	_ = s3
	_ = s3set
	if sol.StmtM(body).Empty() {
		t.Fatalf("m of main body empty")
	}
	if sol.PairLen(sys.StmtM[body]) != sol.StmtM(body).Len() {
		t.Fatalf("PairLen inconsistent with dense conversion")
	}
}

func TestModeString(t *testing.T) {
	if ContextSensitive.String() != "context-sensitive" || ContextInsensitive.String() != "context-insensitive" {
		t.Fatalf("Mode.String wrong")
	}
}

// TestParseMode: ParseMode inverts Mode.String, takes the short forms,
// reads "" as context-sensitive and rejects anything else.
func TestParseMode(t *testing.T) {
	for want, spellings := range map[Mode][]string{
		ContextSensitive:   {ContextSensitive.String(), "", "cs", "sensitive"},
		ContextInsensitive: {ContextInsensitive.String(), "ci", "insensitive"},
	} {
		for _, s := range spellings {
			if got, err := ParseMode(s); err != nil || got != want {
				t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
			}
		}
	}
	if _, err := ParseMode("CS"); err == nil || err.Error() != `unknown mode "CS" (want cs or ci)` {
		t.Errorf("ParseMode(\"CS\") error = %v", err)
	}
}

// TestSolveAllocBytes: AllocBytes, read through runtime/metrics
// instead of a stop-the-world ReadMemStats, still measures the heap a
// solve allocates — positive on mg, from scratch and by delta.
func TestSolveAllocBytes(t *testing.T) {
	wl, err := workloads.Get("mg")
	if err != nil {
		t.Fatal(err)
	}
	sys := Generate(labels.Compute(wl.Program()), ContextSensitive)
	for _, alg := range []Algorithm{Phased, Topo} {
		if sol := sys.Solve(alg); sol.AllocBytes == 0 {
			t.Errorf("%v solve of mg: AllocBytes = 0", alg)
		}
	}
	delta, _ := sys.SolveDelta(sys.Solve(Phased), []MethodID{0})
	if delta.AllocBytes == 0 {
		t.Error("delta solve of mg: AllocBytes = 0")
	}
}
