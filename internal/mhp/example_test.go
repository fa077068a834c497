package mhp_test

import (
	"fmt"
	"sort"

	"fx10/internal/clocks"
	"fx10/internal/condensed"
	"fx10/internal/constraints"
	"fx10/internal/frontend"
	"fx10/internal/mhp"
	"fx10/internal/parser"
	"fx10/internal/syntax"
)

// ExampleAnalyze runs the may-happen-in-parallel analysis on a small
// fork-join program and prints the pairs and race candidates.
func ExampleAnalyze() {
	p := parser.MustParse(`
array 4;
void main() {
  B1: async { W1: a[0] = 1; }
  B2: async { W2: a[0] = 2; }
  R: a[1] = a[0] + 1;
}
`)
	r := mhp.MustAnalyze(p, constraints.ContextSensitive)

	var pairs []string
	r.M.Each(func(i, j int) {
		if i <= j {
			pairs = append(pairs, fmt.Sprintf("(%s,%s)",
				p.LabelName(syntax.Label(i)), p.LabelName(syntax.Label(j))))
		}
	})
	sort.Strings(pairs)
	fmt.Println("pairs:", pairs)

	for _, rc := range r.RaceCandidates() {
		kind := "write/read"
		if rc.WriteWrite {
			kind = "write/write"
		}
		fmt.Printf("race on a[%d]: %s vs %s (%s)\n",
			rc.Index, p.LabelName(rc.L1), p.LabelName(rc.L2), kind)
	}
	// Output:
	// pairs: [(W1,B2) (W1,R) (W1,W2) (W2,R)]
	// race on a[0]: W1 vs W2 (write/write)
	// race on a[0]: W1 vs R (write/read)
	// race on a[0]: W2 vs R (write/read)
}

// ExampleAnalyze_clocked pairs the clock-aware static verdict with an
// actual run under the barrier semantics: the analysis says the
// phase-0 write and the phase-1 read cannot overlap, and the
// interpreter's observed-parallel pairs agree.
func ExampleAnalyze_clocked() {
	p := parser.MustParse(`
array 4;
void main() {
  C: clocked async {
    W: a[0] = 1;
    NC: next;
    R: a[1] = a[0] + 1;
  }
  N: next;
  D: a[2] = a[0] + 1;
}
`)
	r := mhp.MustAnalyze(p, constraints.ContextSensitive)
	w, _ := p.LabelByName("W")
	d, _ := p.LabelByName("D")
	fmt.Println("static: W ∥ D possible:", r.MayHappenInParallel(w, d))

	res, err := clocks.Run(p, nil, 7, 10_000)
	if err != nil {
		panic(err)
	}
	fmt.Println("observed: W ∥ D seen:", res.Pairs.Has(int(w), int(d)))
	fmt.Println("a[2]:", res.Array[2])
	// Output:
	// static: W ∥ D possible: false
	// observed: W ∥ D seen: false
	// a[2]: 2
}

// ExampleAnalyze_go lowers an ordinary Go program through the
// front-end registry — `go` becomes async, the WaitGroup span becomes
// finish — and analyzes the result exactly like core FX10: the
// condensed form is language-agnostic past the boundary.
func ExampleAnalyze_go() {
	u, stats, err := frontend.Lower("go", "main.go", `
package main

import "sync"

func work() {}
func tally() {}

func main() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	work()
	wg.Wait()
	tally()
}
`)
	if err != nil {
		panic(err)
	}
	p, err := condensed.Lower(u)
	if err != nil {
		panic(err)
	}
	r := mhp.MustAnalyze(p, constraints.ContextSensitive)

	fmt.Printf("coverage: %.2f\n", stats.Coverage())
	var pairs []string
	r.M.Each(func(i, j int) {
		if i <= j {
			pairs = append(pairs, fmt.Sprintf("(%s,%s)",
				p.LabelName(syntax.Label(i)), p.LabelName(syntax.Label(j))))
		}
	})
	sort.Strings(pairs)
	fmt.Println("pairs:", pairs)
	// Output:
	// coverage: 1.00
	// pairs: [(L0,L0) (L0,L2) (L0,L4) (L2,L4)]
}
