package workloads

import (
	"fmt"
	"sync"

	"fx10/internal/condensed"
	"fx10/internal/syntax"
	"fx10/internal/x10"
)

// Benchmark is one synthesized benchmark, parsed and lowered lazily
// and memoized (mg and plasma are large).
type Benchmark struct {
	Name string
	// Paper holds the published numbers this benchmark reconstructs.
	Paper PaperRow

	once    sync.Once
	source  string
	unit    *condensed.Unit
	stats   condensed.Stats
	program *syntax.Program
}

func (b *Benchmark) load() {
	b.once.Do(func() {
		b.source = build(specFor(b.Name))
		b.unit, b.stats = x10.MustParse(b.source)
		if n := x10.ResolveCalls(b.unit); n != 0 {
			panic(fmt.Sprintf("workloads: %s has %d unresolved calls", b.Name, n))
		}
		b.program = condensed.MustLower(b.unit)
	})
}

// Source returns the synthesized X10-subset source text.
func (b *Benchmark) Source() string { b.load(); return b.source }

// Unit returns the condensed form.
func (b *Benchmark) Unit() *condensed.Unit { b.load(); return b.unit }

// LOC returns the source's non-blank line count.
func (b *Benchmark) LOC() int { b.load(); return b.stats.LOC }

// Program returns the lowered core FX10 program the analysis runs on.
func (b *Benchmark) Program() *syntax.Program { b.load(); return b.program }

func specFor(name string) spec {
	for _, s := range specs {
		if s.Name == name {
			return s
		}
	}
	panic("workloads: unknown benchmark " + name)
}

var (
	allOnce sync.Once
	all     []*Benchmark
)

// All returns the 13 benchmarks in the paper's Figure 6 order.
func All() []*Benchmark {
	allOnce.Do(func() {
		for _, s := range specs {
			all = append(all, &Benchmark{Name: s.Name, Paper: paperRows[s.Name]})
		}
	})
	return all
}

// Get returns one benchmark by name.
func Get(name string) (*Benchmark, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// Names returns the benchmark names in order.
func Names() []string {
	out := make([]string, 0, len(specs))
	for _, s := range specs {
		out = append(out, s.Name)
	}
	return out
}
