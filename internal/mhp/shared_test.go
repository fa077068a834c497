package mhp

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/engine"
	"fx10/internal/parser"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// TestCachedResultSharedReaders reads one cached engine.Result from
// eight goroutines at once, through every path that reaches its solved
// sets and its labels.Info: the report, the type environment, the
// clock-pruned pairs, and the Slabels of every async, while and finish
// body and of every method body (Generate asks for only some of
// these, so a lazily filled cache in Info would be written here).
// Solved sets are shared between variables and labels.Info has no
// lock, so under -race this checks that both are safe to share
// read-only. Afterwards the valuation must still equal a fresh phased
// solve: no reader mutated a shared set.
func TestCachedResultSharedReaders(t *testing.T) {
	wl, err := workloads.Get("plasma")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "phased.fx10"))
	if err != nil {
		t.Fatal(err)
	}
	programs := []struct {
		name string
		p    *syntax.Program
	}{
		{"plasma", wl.Program()},
		{"phased", parser.MustParse(string(src))},
	}
	for _, tc := range programs {
		t.Run(tc.name, func(t *testing.T) {
			e := engine.MustNew(engine.Config{})
			if _, err := e.Analyze(engine.Job{Program: tc.p}); err != nil {
				t.Fatal(err)
			}
			res, err := e.Analyze(engine.Job{Program: tc.p})
			if err != nil || !res.Stats.CacheHit {
				t.Fatalf("second analysis: err %v, want a cache hit", err)
			}
			r := FromEngine(res)
			want := r.Report()

			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if got := r.Report(); !reflect.DeepEqual(got, want) {
						t.Errorf("reader %d: report differs from the first one", g)
					}
					r.Sol.Env()
					r.Sol.ClockPrunedMainPairs()
					for _, li := range r.Program.Labels {
						if b := syntax.Body(li.Instr); b != nil {
							r.Info.Slabels(b)
						}
					}
					for _, m := range r.Program.Methods {
						r.Info.Slabels(m.Body)
					}
				}()
			}
			wg.Wait()

			if !r.Sol.ValuationEqual(r.Sys.Solve(constraints.Phased)) {
				t.Fatal("shared valuation differs from a fresh phased solve after the readers ran")
			}
		})
	}
}
