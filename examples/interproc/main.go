// Interproc reproduces the paper's Section 2.2 example: modular,
// context-sensitive interprocedural analysis, contrasted with the
// context-insensitive baseline that merges call sites and reports the
// spurious (S3, S4) pair.
//
//	go run ./examples/interproc
package main

import (
	"fmt"
	"sort"

	"fx10/internal/constraints"
	"fx10/internal/fixtures"
	"fx10/internal/mhp"
	"fx10/internal/syntax"
)

func main() {
	p := fixtures.Example22()
	fmt.Println("program (paper, Section 2.2):")
	fmt.Print(fixtures.Example22Source)

	cs := mhp.MustAnalyze(p, constraints.ContextSensitive)
	ci := mhp.MustAnalyze(p, constraints.ContextInsensitive)

	show := func(name string, r *mhp.Result) {
		var pairs []string
		r.M.Each(func(i, j int) {
			if i <= j {
				pairs = append(pairs, fmt.Sprintf("(%s,%s)",
					p.LabelName(syntax.Label(i)), p.LabelName(syntax.Label(j))))
			}
		})
		sort.Strings(pairs)
		fmt.Printf("%-20s %d pairs: %v\n", name, len(pairs), pairs)
	}
	show("context-sensitive:", cs)
	show("context-insensitive:", ci)

	s3, _ := p.LabelByName("S3")
	s4, _ := p.LabelByName("S4")
	fmt.Println()
	fmt.Printf("the (S3,S4) false positive: context-sensitive=%v context-insensitive=%v\n",
		cs.MayHappenInParallel(s3, s4), ci.MayHappenInParallel(s3, s4))

	// Method summaries are the modularity mechanism: f is analyzed
	// once, under R = ∅, and each call site splices in (M_f, O_f).
	fi, _ := p.MethodIndex("f")
	fmt.Printf("summary of f: M has %d pairs, O = %v (S5 may outlive the call)\n",
		cs.Sol.PairLen(cs.Sys.MethodM[fi]), cs.Sol.SetValue(cs.Sys.MethodO[fi]))

	// Ground truth by exhaustive exploration confirms the
	// context-sensitive result is exact here.
	rep := cs.CheckFalsePositives(nil, 1_000_000)
	fmt.Printf("exhaustive check: complete=%v sound=%v false positives=%d\n",
		rep.Complete, rep.SoundnessHolds, len(rep.FalsePositives))
}
