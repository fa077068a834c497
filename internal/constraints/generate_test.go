package constraints

import (
	"testing"

	"fx10/internal/labels"
	"fx10/internal/progen"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// TestGenerateAllocationsPerStatementFree bounds the allocations of
// Generate on a fresh labels.Info, not counting labels.Compute's own.
// The constraint arrays, variable tables and operand arrays are
// allocated once each, so what remains is per method (its call-graph
// lists) and per async or while (the Slabels sets of bodies and async
// continuations, which the info memoizes as Generate asks for them).
// A generator that allocates per statement (a map insert, a name or
// an Lcross singleton per label) exceeds the bound on every program
// below.
func TestGenerateAllocationsPerStatementFree(t *testing.T) {
	progs := map[string]*syntax.Program{"huge3000": progen.GenerateHuge(0, progen.Huge(3000))}
	for _, wl := range workloads.All() {
		progs[wl.Name] = wl.Program()
	}
	for name, p := range progs {
		units := len(p.Methods)
		for l := range p.Labels {
			if k := p.Labels[l].Kind; k == syntax.KindAsync || k == syntax.KindWhile {
				units++
			}
		}
		bound := float64(4*units + 64)
		info := testing.AllocsPerRun(3, func() { labels.Compute(p) })
		for _, mode := range []Mode{ContextSensitive, ContextInsensitive} {
			got := testing.AllocsPerRun(3, func() { Generate(labels.Compute(p), mode) }) - info
			t.Logf("%s %v: %.0f allocations, bound %.0f", name, mode, got, bound)
			if got > bound {
				t.Errorf("%s %v: Generate made %.0f allocations, bound 4×%d+64 = %.0f", name, mode, got, units, bound)
			}
		}
	}
}
