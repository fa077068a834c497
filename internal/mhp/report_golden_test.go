package mhp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/engine"
	"fx10/internal/parser"
	"fx10/internal/progen"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// The JSON report must be byte-stable: identical across repeated runs
// of the same analysis (the committed golden files pin the exact
// bytes), and identical across solver strategies once the
// strategy-specific iteration counters are masked out (Theorems 5–6:
// every strategy computes the same least solution). The clocked
// program additionally pins the phase section and the pruned-pair
// count, which are reconstructed post hoc from the least solution and
// so must not vary by strategy either.
func TestReportJSONGolden(t *testing.T) {
	cases := []struct {
		name, source, golden string
	}{
		{"fanout", "fanout.fx10", "fanout_report.golden.json"},
		{"phased", "phased.fx10", "phased_report.golden.json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("..", "..", "testdata", tc.source))
			if err != nil {
				t.Fatal(err)
			}
			p, err := parser.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}

			render := func(strategy string) []byte {
				e, err := engine.New(engine.Config{Strategy: strategy, CacheSize: -1})
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Analyze(engine.Job{Name: tc.name, Program: p, Mode: constraints.ContextSensitive})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := FromEngine(res).WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}

			first := render("")
			for run := 0; run < 3; run++ {
				if again := render(""); !bytes.Equal(first, again) {
					t.Fatalf("run %d: report JSON not byte-stable", run)
				}
			}

			golden := filepath.Join("testdata", tc.golden)
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, first, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
			}
			if !bytes.Equal(first, want) {
				t.Errorf("report JSON drifted from golden file %s:\n got: %s\nwant: %s", golden, first, want)
			}

			// Cross-strategy: only the iteration counters may differ.
			maskIters := func(strategy string) Report {
				e, err := engine.New(engine.Config{Strategy: strategy, CacheSize: -1})
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Analyze(engine.Job{Name: tc.name, Program: p, Mode: constraints.ContextSensitive})
				if err != nil {
					t.Fatal(err)
				}
				rep := FromEngine(res).Report()
				rep.Iterations = Iterations{}
				return rep
			}
			base := jsonMarshal(t, maskIters(""))
			for _, strategy := range engine.Strategies() {
				got := jsonMarshal(t, maskIters(strategy))
				if !bytes.Equal(base, got) {
					t.Errorf("strategy %s: masked report differs:\n got: %s\nwant: %s", strategy, got, base)
				}
			}
		})
	}
}

// TestReportClocksSection pins the semantics of the clocks section:
// present exactly for clock-using programs, phases in label order,
// and the pruned-pair count consistent with a clock-blind solve.
func TestReportClocksSection(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "phased.fx10"))
	if err != nil {
		t.Fatal(err)
	}
	p := parser.MustParse(string(src))
	rep := MustAnalyze(p, constraints.ContextSensitive).Report()
	if rep.Clocks == nil {
		t.Fatal("clocked program report has no clocks section")
	}
	if len(rep.Clocks.Phases) != p.NumLabels() {
		t.Fatalf("clocks section has %d phases, want one per label (%d)",
			len(rep.Clocks.Phases), p.NumLabels())
	}
	if rep.Clocks.PrunedPairs == 0 {
		t.Error("split-phase program pruned no pairs")
	}
	// The two workers' cross-phase reads are serialized by the barrier:
	// phase(WL)=0, phase(RL)=1 must appear among the inferred phases.
	byName := map[string]int{}
	for _, ph := range rep.Clocks.Phases {
		byName[ph.Label] = ph.Phase
	}
	if byName["WL"] != 0 || byName["RL"] != 1 {
		t.Errorf("phases WL=%d RL=%d, want 0 and 1", byName["WL"], byName["RL"])
	}

	clean := MustAnalyze(parser.MustParse("array 2;\nvoid main() { A: async { B: a[0] = 1; } C: a[1] = 2; }"),
		constraints.ContextSensitive).Report()
	if clean.Clocks != nil {
		t.Error("clock-free program report has a clocks section")
	}
}

// TestReportSummariesMatchDenseEnv: Report reads each method summary
// from the sparse solution (the pair bag's length, the O set) instead
// of densifying the type environment. On the 13 paper programs, in
// both modes, under every registered strategy and after one
// incremental edit per program, those summaries must equal the ones
// built from the dense Sol.Env().
func TestReportSummariesMatchDenseEnv(t *testing.T) {
	for _, wl := range workloads.All() {
		p := wl.Program()
		for _, mode := range []constraints.Mode{constraints.ContextSensitive, constraints.ContextInsensitive} {
			for _, strategy := range engine.Strategies() {
				e := engine.MustNew(engine.Config{Strategy: strategy, CacheSize: -1})
				res, err := e.Analyze(engine.Job{Name: wl.Name, Program: p, Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				checkDenseSummaries(t, wl.Name+"/"+mode.String()+"/"+strategy, FromEngine(res))
			}
		}
		e := engine.MustNew(engine.Config{CacheSize: -1})
		base, err := e.Analyze(engine.Job{Name: wl.Name, Program: p})
		if err != nil {
			t.Fatal(err)
		}
		delta, err := e.AnalyzeDelta(base, progen.MutateMethod(p, 0, 1))
		if err != nil {
			t.Fatal(err)
		}
		checkDenseSummaries(t, wl.Name+"/delta", FromEngine(delta))
	}
}

func checkDenseSummaries(t *testing.T, what string, r *Result) {
	t.Helper()
	env := r.Sol.Env()
	var want []SummaryJ
	for mi, m := range r.Program.Methods {
		s := SummaryJ{Method: m.Name, MPairs: env[mi].M.Len()}
		env[mi].O.Each(func(e int) {
			s.Outlives = append(s.Outlives, r.Program.LabelName(syntax.Label(e)))
		})
		want = append(want, s)
	}
	got := jsonMarshal(t, Report{Summaries: r.Report().Summaries})
	if wantJ := jsonMarshal(t, Report{Summaries: want}); !bytes.Equal(got, wantJ) {
		t.Errorf("%s: sparse summaries differ from dense Sol.Env():\n got: %s\nwant: %s", what, got, wantJ)
	}
}

func jsonMarshal(t *testing.T, rep Report) []byte {
	t.Helper()
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
