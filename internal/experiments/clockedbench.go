package experiments

import (
	"fmt"
	"strings"

	"fx10/internal/constraints"
	"fx10/internal/labels"
	"fx10/internal/parser"
	"fx10/internal/progen"
	"fx10/internal/syntax"
)

// The clocked bench quantifies what the phase refinement buys: the
// same constraint system solved clock-blind (phase facts stripped)
// and clock-aware (phase-ordered pairs pruned during solving), over
// the canonical split-phase example plus a generated clocked corpus.
// The interesting columns are the pair counts — clock-aware must
// never exceed clock-blind, and strictly undercuts it on programs
// whose barriers actually serialize anything — with solve times
// showing the refinement is close to free. It backs the README's
// clocked section and is written as BENCH_clocked.json so precision
// regressions are diffable across commits.

// clockedBenchSeed derives the generated corpus; fixed so the
// committed figure is reproducible.
const clockedBenchSeed = 20100109 // PPoPP'10 week, why not

// phasedSource is the canonical split-phase example (also at
// testdata/phased.fx10), inlined so the bench runs from any working
// directory.
const phasedSource = `
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

// ClockedBenchRow is one program's blind-vs-aware measurement.
type ClockedBenchRow struct {
	Name   string `json:"name"`
	Labels int    `json:"labels"`
	// BlindPairs and AwarePairs are unordered main-M pair counts
	// without and with the phase refinement; Pruned is their
	// difference (the pairs the barriers prove ordered).
	BlindPairs int `json:"blind_pairs"`
	AwarePairs int `json:"aware_pairs"`
	Pruned     int `json:"pruned"`
	// BlindNs and AwareNs are best-of-reps solve times.
	BlindNs int64 `json:"blind_ns_per_op"`
	AwareNs int64 `json:"aware_ns_per_op"`
}

// ClockedBench is the full sweep plus the environment it ran in.
type ClockedBench struct {
	Host
	Reps int `json:"reps"`
	// Programs counts clocked programs measured; StrictlyFewer counts
	// those where clock-aware < clock-blind.
	Programs      int               `json:"programs"`
	StrictlyFewer int               `json:"strictly_fewer"`
	Rows          []ClockedBenchRow `json:"rows"`
}

// RunClockedBench measures n generated clocked programs (plus the
// split-phase example) blind and aware, context-sensitively.
func RunClockedBench(n, reps int) (ClockedBench, error) {
	if reps < 1 {
		reps = 1
	}
	bench := ClockedBench{
		Host: CurrentHost(),
		Reps: reps,
	}

	phased, err := parser.Parse(phasedSource)
	if err != nil {
		return bench, err
	}
	type prog struct {
		name string
		p    *syntax.Program
	}
	progs := []prog{{name: "phased", p: phased}}
	// Walk seeds until n clocked programs are collected. The generator
	// flips clock constructs on probabilistically, so seeds that come
	// out clock-free are skipped — as are ones whose only clock use is
	// a bare next with no clocked children (a barrier with a single
	// registrant is degenerate: it synchronizes nothing).
	for seed := int64(clockedBenchSeed); len(progs) < n+1; seed++ {
		p := progen.Generate(seed, progen.ClockedFinite())
		if !spawnsClocked(p) {
			continue
		}
		progs = append(progs, prog{name: fmt.Sprintf("gen-%d", seed-clockedBenchSeed), p: p})
	}

	for _, pr := range progs {
		row, err := measureClocked(pr.name, pr.p, reps)
		if err != nil {
			return bench, err
		}
		bench.Programs++
		if row.AwarePairs < row.BlindPairs {
			bench.StrictlyFewer++
		}
		bench.Rows = append(bench.Rows, row)
	}
	return bench, nil
}

// spawnsClocked reports whether p contains at least one clocked async.
func spawnsClocked(p *syntax.Program) bool {
	for _, a := range p.AsyncLabels() {
		if as, ok := p.Labels[a].Instr.(*syntax.Async); ok && as.Clocked {
			return true
		}
	}
	return false
}

// measureClocked solves one program's system twice — phase facts
// stripped and intact — and reports pair counts and solve times.
func measureClocked(name string, p *syntax.Program, reps int) (ClockedBenchRow, error) {
	in := labels.Compute(p)
	aware := constraints.Generate(in, constraints.ContextSensitive)
	blind := constraints.Generate(in, constraints.ContextSensitive)
	blind.Phases, blind.PhaseCode = nil, nil

	awareSol := aware.Solve(constraints.Phased)
	blindSol := blind.Solve(constraints.Phased)

	row := ClockedBenchRow{
		Name:       name,
		Labels:     p.NumLabels(),
		AwarePairs: countUnordered(awareSol),
		BlindPairs: countUnordered(blindSol),
	}
	row.Pruned = row.BlindPairs - row.AwarePairs
	if row.Pruned < 0 {
		return row, fmt.Errorf("clocked bench: %s: clock-aware has MORE pairs than clock-blind (%d > %d)",
			name, row.AwarePairs, row.BlindPairs)
	}
	row.AwareNs = measureOp(reps, 1, func() { aware.Solve(constraints.Phased) }).ns
	row.BlindNs = measureOp(reps, 1, func() { blind.Solve(constraints.Phased) }).ns
	return row, nil
}

func countUnordered(sol *constraints.Solution) int {
	n := 0
	sol.MainM().Each(func(i, j int) {
		if i <= j {
			n++
		}
	})
	return n
}

// FormatClockedBench renders the sweep as an aligned table.
func FormatClockedBench(bench ClockedBench) string {
	var b strings.Builder
	tw := newTable(&b, "program", "labels", "blind", "aware", "pruned", "blind ns/op", "aware ns/op")
	for _, r := range bench.Rows {
		tw.row(r.Name,
			fmt.Sprint(r.Labels),
			fmt.Sprint(r.BlindPairs),
			fmt.Sprint(r.AwarePairs),
			fmt.Sprint(r.Pruned),
			fmt.Sprint(r.BlindNs),
			fmt.Sprint(r.AwareNs))
	}
	tw.flush()
	fmt.Fprintf(&b, "clock-aware strictly fewer pairs on %d/%d clocked programs\n",
		bench.StrictlyFewer, bench.Programs)
	fmt.Fprintf(&b, "(%s, best of %d reps; pairs are unordered main-M counts)\n", bench.Host.Describe(), bench.Reps)
	return b.String()
}
