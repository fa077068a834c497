package mhp

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"fx10/internal/clocks"
	"fx10/internal/constraints"
	"fx10/internal/explore"
	"fx10/internal/fixtures"
	"fx10/internal/intset"
	"fx10/internal/parser"
	"fx10/internal/progen"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// The report's classifiers walk the relation's pairs once. The
// quadratic originals below test every pair of asyncs, and every pair
// of accesses, against the relation; they are kept as the reference
// the classifiers must agree with exactly.

// refAsyncBodyPairs pairs asyncs i ≤ j iff m holds some pair of
// body(i) × body(j).
func refAsyncBodyPairs(p *syntax.Program, m *intset.PairSet) []AsyncPair {
	asyncs := p.AsyncLabels()
	bodies := make([]*intset.Set, len(asyncs))
	for i, a := range asyncs {
		body := intset.New(p.NumLabels())
		syntax.Body(p.Labels[a].Instr).EachDeep(func(in syntax.Instr) { body.Add(int(in.Label())) })
		bodies[i] = body
	}
	var out []AsyncPair
	for i, a := range asyncs {
		for j := i; j < len(asyncs); j++ {
			b := asyncs[j]
			if !crossIntersects(m, bodies[i], bodies[j]) {
				continue
			}
			cat := Diff
			switch {
			case i == j:
				cat = Self
			case p.Labels[a].Method == p.Labels[b].Method:
				cat = Same
			}
			out = append(out, AsyncPair{A: a, B: b, Category: cat})
		}
	}
	return out
}

// crossIntersects reports whether m contains any pair from a × b.
func crossIntersects(m *intset.PairSet, a, b *intset.Set) bool {
	found := false
	a.Each(func(i int) {
		if !found && m.RowIntersects(i, b) {
			found = true
		}
	})
	return found
}

// refRaceCandidates tests every pair of accesses i ≤ j (EachInstr
// order) against m.
func refRaceCandidates(p *syntax.Program, m *intset.PairSet) []RaceCandidate {
	accs := accesses(p)
	var out []RaceCandidate
	for i := range accs {
		for j := i; j < len(accs); j++ {
			a, b := accs[i], accs[j]
			if !m.Has(int(a.label), int(b.label)) {
				continue
			}
			for _, idx := range refRaceIndices(a, b) {
				out = append(out, RaceCandidate{
					L1: a.label, L2: b.label, Index: idx.index, WriteWrite: idx.ww,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].L1 != out[j].L1 {
			return out[i].L1 < out[j].L1
		}
		if out[i].L2 != out[j].L2 {
			return out[i].L2 < out[j].L2
		}
		return out[i].Index < out[j].Index
	})
	return out
}

// refRaceIndices is raceIndices' map-based original: the indices a
// and b both write, then those one writes and the other reads, each
// once, sorted.
func refRaceIndices(a, b access) []raceIdx {
	list := func(i int) []int {
		if i < 0 {
			return nil
		}
		return []int{i}
	}
	seen := map[int]raceIdx{}
	for _, wa := range list(a.write) {
		for _, wb := range list(b.write) {
			if wa == wb {
				seen[wa] = raceIdx{index: wa, ww: true}
			}
		}
	}
	for _, pair := range [][2]access{{a, b}, {b, a}} {
		for _, w := range list(pair[0].write) {
			for _, r := range list(pair[1].read) {
				if _, ok := seen[w]; !ok && w == r {
					seen[w] = raceIdx{index: w}
				}
			}
		}
	}
	var out []raceIdx
	for _, v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].index < out[j].index })
	return out
}

// TestRaceIndicesMatchReference checks raceIndices against its
// original on every pair of accesses over three indices.
func TestRaceIndicesMatchReference(t *testing.T) {
	var all []access
	for w := -1; w < 3; w++ {
		for r := -1; r < 3; r++ {
			all = append(all, access{write: w, read: r})
		}
	}
	for _, a := range all {
		for _, b := range all {
			sameSlices(t, fmt.Sprintf("raceIndices(%+v, %+v)", a, b), raceIndices(nil, a, b), refRaceIndices(a, b))
		}
	}
}

// checkClassification compares both classifiers, fed m's pairs by
// walk, with their references on relation m over p, reporting the
// first difference.
func checkClassification(t *testing.T, what string, p *syntax.Program, m *intset.PairSet, walk relation) {
	t.Helper()
	sameSlices(t, what+": asyncBodyPairs", asyncBodyPairs(p, walk), refAsyncBodyPairs(p, m))
	races := newRaceClassifier(p)
	walk(races.add)
	sameSlices(t, what+": RaceCandidates", races.candidates(), refRaceCandidates(p, m))
}

// checkAnalysis checks the classifiers on an analysis's relation M,
// walked both densely and as the report writer walks it, through
// main's sorted pair run.
func checkAnalysis(t *testing.T, what string, p *syntax.Program, r *Result) {
	t.Helper()
	checkClassification(t, what, p, r.M, r.M.Each)
	checkClassification(t, what+" (sparse walk)", p, r.M, r.Sol.EachMainPair)
}

func sameSlices[T any](t *testing.T, what string, got, want []T) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: entry %d = %+v, reference %+v (lengths %d, %d)", what, i, got[i], want[i], len(got), len(want))
			return
		}
	}
	t.Errorf("%s: %d entries, reference %d", what, len(got), len(want))
}

var bothModes = []constraints.Mode{constraints.ContextSensitive, constraints.ContextInsensitive}

// TestClassifiersMatchQuadraticReference checks the classifiers
// against their references on the analysis relation M of the 13 paper
// programs, 200 generated programs and the huge tier, in both modes,
// walking M densely and through the solution's sparse pair run.
func TestClassifiersMatchQuadraticReference(t *testing.T) {
	for _, mode := range bothModes {
		for _, wl := range workloads.All() {
			p := wl.Program()
			checkAnalysis(t, fmt.Sprintf("%s/%s", wl.Name, mode), p, MustAnalyze(p, mode))
		}
		for seed := int64(0); seed < 200; seed++ {
			p := progen.Generate(seed, progen.Default())
			checkAnalysis(t, fmt.Sprintf("progen %d/%s", seed, mode), p, MustAnalyze(p, mode))
		}
		for _, n := range []int{3000, 10000} {
			if n > 3000 && testing.Short() {
				continue
			}
			p := progen.GenerateHuge(0, progen.Huge(n))
			checkAnalysis(t, fmt.Sprintf("huge%d/%s", n, mode), p, MustAnalyze(p, mode))
		}
	}
}

// TestClassifiersMatchReferenceOnExplorerRelations checks the
// classifiers on relations that need not be symmetric: the exact
// relations CheckFalsePositives classifies for the programs of this
// package's false-positive tests, and random ordered relations over
// the paper programs.
func TestClassifiersMatchReferenceOnExplorerRelations(t *testing.T) {
	for _, c := range []struct {
		name string
		p    *syntax.Program
	}{
		{"example 2.2", fixtures.Example22()},
		{"dead loop", parser.MustParse(deadLoopSrc)},
		{"clocked phases", parser.MustParse(clockedPhasesSrc)},
	} {
		var exact *intset.PairSet
		if c.p.UsesClocks() {
			exact = clocks.Explore(c.p, nil, 1_000_000).MHP
		} else {
			r := MustAnalyze(c.p, constraints.ContextSensitive)
			exact = explore.MHPWithInfo(r.Info, c.p, nil, 1_000_000).MHP
		}
		checkClassification(t, c.name+" exact relation", c.p, exact, exact.Each)
	}
	rng := rand.New(rand.NewSource(1))
	for _, wl := range workloads.All() {
		p := wl.Program()
		n := p.NumLabels()
		m := intset.NewPairs(n)
		for k := 0; k < 4*n; k++ {
			m.Add(rng.Intn(n), rng.Intn(n))
		}
		checkClassification(t, wl.Name+" random ordered relation", p, m, m.Each)
	}
}
