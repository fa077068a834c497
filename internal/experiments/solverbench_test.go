package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/labels"
	"fx10/internal/workloads"
)

// TestRunSolverBench checks the sweep's shape and its two structural
// guarantees: every (benchmark, strategy) cell is present, and the
// topo solver never evaluates more constraints than the benchmark's
// system has (each constraint is evaluated at most once after SCC
// condensation).
func TestRunSolverBench(t *testing.T) {
	bench, err := RunSolverBench(1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(bench.Rows), (13+len(SolverBenchHuge))*len(SolverBenchStrategies); got != want {
		t.Fatalf("got %d rows, want %d", got, want)
	}
	evals := map[[2]string]int64{}
	for _, r := range bench.Rows {
		if r.NsPerOp <= 0 {
			t.Errorf("%s/%s: non-positive ns/op %d", r.Benchmark, r.Strategy, r.NsPerOp)
		}
		switch r.Strategy {
		case "phased":
			if r.Passes == 0 {
				t.Errorf("%s/%s: pass-based strategy reports 0 passes", r.Benchmark, r.Strategy)
			}
		case "topo":
			if r.Evaluations == 0 {
				t.Errorf("%s/%s: evaluation-counting strategy reports 0 evaluations", r.Benchmark, r.Strategy)
			}
		}
		evals[[2]string{r.Benchmark, r.Strategy}] = r.Evaluations
	}
	for _, wl := range workloads.All() {
		_, l1, l2 := constraints.Generate(labels.Compute(wl.Program()), constraints.ContextSensitive).Counts()
		if topo := evals[[2]string{wl.Name, "topo"}]; topo > int64(l1+l2) {
			t.Errorf("%s: topo evaluations %d > constraint count %d", wl.Name, topo, l1+l2)
		}
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteJSON(path, bench); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back SolverBench
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(back.Rows) != len(bench.Rows) {
		t.Fatalf("round-trip lost rows: %d != %d", len(back.Rows), len(bench.Rows))
	}
}
