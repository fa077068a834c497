package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fx10/internal/engine"
	"fx10/internal/workloads"
)

// TestMeasureIncremental runs the edit sweep on two small corpus
// benchmarks and checks the row invariants: the delta results are
// identical to scratch, some reuse happens, and the closure counters
// are consistent. The full 13-benchmark sweep runs via
// `mhpbench -figure incremental` (committed as BENCH_incremental.json).
func TestMeasureIncremental(t *testing.T) {
	e, err := engine.New(engine.Config{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mapreduce", "series"} {
		wl, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		row, err := measureIncremental(e, name, wl.Program(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if !row.Identical {
			t.Errorf("%s: delta results differ from scratch", name)
		}
		if row.Edits != row.Methods {
			t.Errorf("%s: swept %d edits for %d methods", name, row.Edits, row.Methods)
		}
		if row.StrictSubsetEdits == 0 {
			t.Errorf("%s: no edit re-solved a strict subset of methods", name)
		}
		if row.MaxMethodsResolved > row.Methods {
			t.Errorf("%s: resolved %d methods of %d", name, row.MaxMethodsResolved, row.Methods)
		}
		if row.AvgMethodsResolved <= 0 || row.DeltaNsPerOp <= 0 || row.ScratchNsPerOp <= 0 {
			t.Errorf("%s: degenerate row %+v", name, row)
		}
	}
}

// TestWriteIncrementalJSON round-trips the JSON artifact.
func TestWriteIncrementalJSON(t *testing.T) {
	bench := IncrementalBench{
		Host:     Host{Go: "go-test", GOOS: "linux", GOARCH: "amd64"},
		Strategy: "phased", Reps: 1,
		Rows: []IncrementalRow{{Benchmark: "x", Methods: 3, Edits: 3, Identical: true}},
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteJSON(path, bench); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back IncrementalBench
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != 1 || back.Rows[0].Benchmark != "x" {
		t.Fatalf("round-trip mangled rows: %+v", back.Rows)
	}
	if out := FormatIncremental(bench); out == "" {
		t.Fatal("empty table")
	}
}
