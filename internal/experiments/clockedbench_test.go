package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The clocked bench is the PR's headline claim in executable form:
// the phase refinement strictly shrinks the analysis result on a
// majority of the clocked corpus and never grows it.
func TestClockedBench(t *testing.T) {
	n := 20
	if testing.Short() {
		n = 5
	}
	bench, err := RunClockedBench(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bench.Programs != n+1 {
		t.Fatalf("measured %d programs, want %d (corpus + phased example)", bench.Programs, n+1)
	}
	for _, r := range bench.Rows {
		if r.AwarePairs > r.BlindPairs {
			t.Errorf("%s: aware %d > blind %d — refinement added pairs", r.Name, r.AwarePairs, r.BlindPairs)
		}
		if r.Pruned != r.BlindPairs-r.AwarePairs {
			t.Errorf("%s: pruned %d != blind %d - aware %d", r.Name, r.Pruned, r.BlindPairs, r.AwarePairs)
		}
	}
	// The split-phase example's barriers serialize the cross-phase
	// reads; it must prune.
	if bench.Rows[0].Name != "phased" || bench.Rows[0].Pruned == 0 {
		t.Errorf("phased example row %+v pruned nothing", bench.Rows[0])
	}
	// The acceptance bar: strictly fewer pairs on ≥ half the corpus.
	if 2*bench.StrictlyFewer < bench.Programs {
		t.Errorf("clock-aware strictly fewer on only %d/%d programs, want ≥ half",
			bench.StrictlyFewer, bench.Programs)
	}

	out := FormatClockedBench(bench)
	for _, frag := range []string{"phased", "pruned", "strictly fewer"} {
		if !strings.Contains(out, frag) {
			t.Errorf("formatted bench missing %q:\n%s", frag, out)
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
	var back ClockedBench
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("written JSON does not parse back: %v", err)
	}
	if back.Programs != bench.Programs || len(back.Rows) != len(bench.Rows) {
		t.Error("JSON round trip lost rows")
	}
}
