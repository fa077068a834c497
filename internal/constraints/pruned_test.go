package constraints

import (
	"testing"

	"fx10/internal/parser"
)

// TestClockPrunedMainPairs checks the post-hoc accounting identity on
// clocked programs: a clock-blind solve's MainM is exactly the
// clock-aware MainM plus the reconstructed pruned set, and the two are
// disjoint.
func TestClockPrunedMainPairs(t *testing.T) {
	srcs := map[string]string{
		"split-phase": `
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
`,
		"through-call": `
array 8;
void work() {
  WC: clocked async {
    WA: a[0] = 1;
    WN: next;
    WB: a[1] = 2;
  }
  WD: a[2] = 3;
  WM: next;
  WE: a[3] = 4;
}
void main() {
  F1: work();
}
`,
		"clock-free": `
array 4;
void main() {
  A: async { B: a[0] = 1; }
  C: a[1] = 2;
}
`,
	}
	for name, src := range srcs {
		p := parser.MustParse(src)
		for _, mode := range []Mode{ContextSensitive, ContextInsensitive} {
			aware := deltaSys(p, mode).Solve(Phased)
			pruned := aware.ClockPrunedMainPairs()

			blindSys := deltaSys(p, mode)
			blindSys.Phases = nil
			blindSys.PhaseCode = nil
			blind := blindSys.Solve(Phased).MainM()

			m := aware.MainM()
			if name == "clock-free" {
				if pruned.Len() != 0 {
					t.Errorf("%s/%v: clock-free program pruned %d pairs", name, mode, pruned.Len())
				}
			} else if pruned.Len() == 0 {
				t.Errorf("%s/%v: clocked program pruned nothing", name, mode)
			}
			pruned.Each(func(i, j int) {
				if m.Has(i, j) {
					t.Errorf("%s/%v: pair (%d,%d) both pruned and present", name, mode, i, j)
				}
			})
			union := m.Clone()
			union.UnionWith(pruned)
			if !union.Equal(blind) {
				t.Errorf("%s/%v: aware ∪ pruned != blind (aware %d, pruned %d, blind %d)",
					name, mode, m.Len(), pruned.Len(), blind.Len())
			}
		}
	}
}
