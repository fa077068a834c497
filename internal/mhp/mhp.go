// Package mhp is the report and classification view of a
// may-happen-in-parallel analysis: internal/engine runs the pipeline
// (Slabels fixpoint, constraint generation, solving), and mhp exposes
// the results the paper reports — label-pair queries, the async-body
// pair classification of Figure 8 (self / same / diff), race
// candidates (the analysis's motivating client), and false-positive
// counting against the exact relation.
package mhp

import (
	"cmp"
	"slices"

	"fx10/internal/clocks"
	"fx10/internal/constraints"
	"fx10/internal/engine"
	"fx10/internal/explore"
	"fx10/internal/intset"
	"fx10/internal/syntax"
)

// Result is a completed analysis of one program: the engine's result,
// viewed through the report and classification methods below. M is
// E(main).M (by Theorem 3, MHP(p) ⊆ M); the rest of the type
// environment E is read from Sol (Sol.Env() densifies all of it).
type Result engine.Result

// analyzeEngine serves Analyze. Caching is off: Analyze's contract
// is one fresh pipeline run per call (benchmarks iterate it to
// measure solving); callers that want corpus pooling or cached
// re-analysis use internal/engine directly.
var analyzeEngine = engine.MustNew(engine.Config{CacheSize: -1})

// Analyze runs the full pipeline on p in the given mode. It is a
// thin compatibility wrapper over internal/engine with the default
// (topo) strategy. Pipeline failures are returned, not panicked:
// library callers decide how to surface them.
func Analyze(p *syntax.Program, mode constraints.Mode) (*Result, error) {
	res, err := analyzeEngine.Analyze(engine.Job{Program: p, Mode: mode})
	if err != nil {
		return nil, err
	}
	return FromEngine(res), nil
}

// MustAnalyze is Analyze, panicking on error — for tests, examples
// and benchmarks wired with known-good programs.
func MustAnalyze(p *syntax.Program, mode constraints.Mode) *Result {
	r, err := Analyze(p, mode)
	if err != nil {
		panic(err)
	}
	return r
}

// FromEngine views an engine result through the mhp report API: a
// pointer conversion, not a copy.
func FromEngine(res *engine.Result) *Result { return (*Result)(res) }

// MayHappenInParallel reports whether the analysis says the
// instructions labeled l1 and l2 may happen in parallel.
func (r *Result) MayHappenInParallel(l1, l2 syntax.Label) bool {
	return r.M.Has(int(l1), int(l2))
}

// ParallelWith returns the labels the analysis pairs with l, in label
// order.
func (r *Result) ParallelWith(l syntax.Label) []syntax.Label {
	var out []syntax.Label
	r.M.Row(int(l)).Each(func(e int) { out = append(out, syntax.Label(e)) })
	return out
}

// Category classifies an async-body pair as in Figure 8.
type Category int

const (
	// Self: an async body may happen in parallel with itself
	// (typically an async in a loop without an enclosing finish).
	Self Category = iota
	// Same: two different async bodies in the same method.
	Same
	// Diff: two async bodies in different methods.
	Diff
)

func (c Category) String() string {
	switch c {
	case Self:
		return "self"
	case Same:
		return "same"
	case Diff:
		return "diff"
	}
	return "?"
}

// AsyncPair is one pair of async bodies that may happen in parallel.
// A and B are the labels of the async instructions (A ≤ B).
type AsyncPair struct {
	A, B     syntax.Label
	Category Category
}

// AsyncBodyPairs returns the pairs of async bodies that may happen in
// parallel according to M: bodies A and B pair iff some label of A's
// body may happen in parallel with some label of B's body. Pairs are
// returned in (A, B) label order.
func (r *Result) AsyncBodyPairs() []AsyncPair {
	return asyncBodyPairs(r.Program, r.M.Each)
}

// relation walks the ordered pairs of a label relation, rows ascending
// and each row's columns ascending: the order PairSet.Each and
// constraints.Solution.EachMainPair give.
type relation func(f func(i, j int))

// asyncBodyPairs is the shared classification core, also used against
// ground-truth relations, which need not be symmetric. A body is the
// labels syntactically inside the async — unlike Slabels it does not
// follow method calls, so two asyncs calling the same helper do not
// share body labels; this is the body notion the pair counts of
// Figure 8 are about.
func asyncBodyPairs(p *syntax.Program, m relation) []AsyncPair {
	c := newAsyncClassifier(p)
	m(c.add)
	return c.pairs()
}

// asyncClassifier collects the async-body pairs of a relation from its
// pairs, one at a time. The asyncs whose body holds a label are
// exactly its chain of LabelInfo.AsyncBody links (innermost enclosing
// async, then that async's, and so on): (l1, l2) pairs every async a
// on l1's chain with every async b on l2's chain for which a is no
// later than b in label order.
type asyncClassifier struct {
	p      *syntax.Program
	asyncs []syntax.Label
	idx    []int32 // async label → index in asyncs
	found  *intset.PairSet
}

func newAsyncClassifier(p *syntax.Program) *asyncClassifier {
	asyncs := p.AsyncLabels()
	idx := make([]int32, p.NumLabels())
	for k, a := range asyncs {
		idx[a] = int32(k)
	}
	return &asyncClassifier{p: p, asyncs: asyncs, idx: idx, found: intset.NewPairs(len(asyncs))}
}

func (c *asyncClassifier) add(l1, l2 int) {
	labels := c.p.Labels
	for a := labels[l1].AsyncBody; a != syntax.NoLabel; a = labels[a].AsyncBody {
		for b := labels[l2].AsyncBody; b != syntax.NoLabel; b = labels[b].AsyncBody {
			if a <= b {
				c.found.Add(int(c.idx[a]), int(c.idx[b]))
			}
		}
	}
}

// pairs returns the pairs found so far in (A, B) label order.
func (c *asyncClassifier) pairs() []AsyncPair {
	var out []AsyncPair
	c.found.Each(func(i, j int) {
		a, b := c.asyncs[i], c.asyncs[j]
		cat := Diff
		switch {
		case i == j:
			cat = Self
		case c.p.Labels[a].Method == c.p.Labels[b].Method:
			cat = Same
		}
		out = append(out, AsyncPair{A: a, B: b, Category: cat})
	})
	return out
}

// PairCounts is the Figure 8 pair-count row.
type PairCounts struct {
	Total, Self, Same, Diff int
}

// CountPairs tallies async-body pairs by category.
func CountPairs(pairs []AsyncPair) PairCounts {
	c := PairCounts{Total: len(pairs)}
	for _, p := range pairs {
		switch p.Category {
		case Self:
			c.Self++
		case Same:
			c.Same++
		case Diff:
			c.Diff++
		}
	}
	return c
}

// RaceCandidate is a potential data race: two instructions that may
// happen in parallel and access the same array index, at least one of
// them writing.
type RaceCandidate struct {
	L1, L2     syntax.Label
	Index      int
	WriteWrite bool // both sides write
}

// access describes one instruction's array accesses: an assignment
// writes one index and may read one, a while loop reads one. -1 marks
// no access.
type access struct {
	label       syntax.Label
	write, read int
}

// accesses lists the program's array accesses in EachInstr order.
func accesses(p *syntax.Program) []access {
	var accs []access
	p.EachInstr(func(_ int, i syntax.Instr) {
		switch i := i.(type) {
		case *syntax.Assign:
			a := access{label: i.L, write: i.D, read: -1}
			if plus, ok := i.Rhs.(syntax.Plus); ok {
				a.read = plus.D
			}
			accs = append(accs, a)
		case *syntax.While:
			accs = append(accs, access{label: i.L, write: -1, read: i.D})
		}
	})
	return accs
}

// RaceCandidates reports the potential data races implied by M, in
// deterministic order. This is the "basis for race detectors" client
// the paper motivates: MHP ∧ same index ∧ a write.
func (r *Result) RaceCandidates() []RaceCandidate {
	c := newRaceClassifier(r.Program)
	r.M.Each(c.add)
	return c.candidates()
}

// raceClassifier collects the race candidates of a relation from its
// pairs, one at a time; L1 is the access earlier in EachInstr order.
type raceClassifier struct {
	accs []access
	pos  []int32 // label → 1 + index in accs, 0 if none
	out  []RaceCandidate
}

func newRaceClassifier(p *syntax.Program) *raceClassifier {
	accs := accesses(p)
	pos := make([]int32, p.NumLabels())
	for k, a := range accs {
		pos[a.label] = int32(k + 1)
	}
	return &raceClassifier{accs: accs, pos: pos}
}

func (c *raceClassifier) add(l1, l2 int) {
	i, j := c.pos[l1]-1, c.pos[l2]-1
	if i < 0 || j < i {
		return
	}
	a, b := c.accs[i], c.accs[j]
	var idx [2]raceIdx
	for _, x := range raceIndices(idx[:0], a, b) {
		c.out = append(c.out, RaceCandidate{L1: a.label, L2: b.label, Index: x.index, WriteWrite: x.ww})
	}
}

// candidates returns the candidates found so far, sorted by (L1, L2,
// Index).
func (c *raceClassifier) candidates() []RaceCandidate {
	less := func(x, y RaceCandidate) int {
		if x.L1 != y.L1 {
			return cmp.Compare(x.L1, y.L1)
		}
		if x.L2 != y.L2 {
			return cmp.Compare(x.L2, y.L2)
		}
		return cmp.Compare(x.Index, y.Index)
	}
	// The walk's order is already sorted whenever label order follows
	// EachInstr order, as it does in parsed programs.
	if !slices.IsSortedFunc(c.out, less) {
		slices.SortFunc(c.out, less)
	}
	return c.out
}

type raceIdx struct {
	index int
	ww    bool
}

// raceIndices appends to dst the indices where a and b conflict, once
// each and ascending: a write both make, or a write of one that the
// other reads.
func raceIndices(dst []raceIdx, a, b access) []raceIdx {
	if a.write >= 0 && a.write == b.write {
		// Any other conflict is a read of this same index.
		return append(dst, raceIdx{index: a.write, ww: true})
	}
	x, y := -1, -1
	if a.write >= 0 && a.write == b.read {
		x = a.write
	}
	if b.write >= 0 && b.write == a.read {
		y = b.write
	}
	switch {
	case x < 0 && y < 0:
		return dst
	case x < 0 || x == y:
		return append(dst, raceIdx{index: y})
	case y < 0:
		return append(dst, raceIdx{index: x})
	case x > y:
		x, y = y, x
	}
	return append(dst, raceIdx{index: x}, raceIdx{index: y})
}

// FalsePositiveReport compares the analysis against the exact
// relation computed by exhaustive exploration (Section 6's
// methodology).
type FalsePositiveReport struct {
	// Complete is false if exploration ran out of budget; the counts
	// are then upper bounds on precision, not exact.
	Complete bool
	// ExactPairs / InferredPairs are the async-body pair counts under
	// the exact and inferred relations.
	ExactPairs    []AsyncPair
	InferredPairs []AsyncPair
	// FalsePositives are inferred async-body pairs absent from the
	// exact relation.
	FalsePositives []AsyncPair
	// SoundnessHolds reports exact ⊆ inferred on raw label pairs
	// (Theorem 3); false would indicate an implementation bug.
	SoundnessHolds bool
}

// CheckFalsePositives explores up to maxStates states and classifies
// the inferred async-body pairs against the exact relation. Clocked
// programs are explored under the real barrier semantics
// (clocks.Explore): the analysis prunes phase-ordered pairs, so the
// erased exact relation — a strict superset of the clocked one — would
// wrongly flag the pruning as a soundness violation.
func (r *Result) CheckFalsePositives(a0 []int64, maxStates int) FalsePositiveReport {
	var exactM *intset.PairSet
	var complete bool
	if r.Program.UsesClocks() {
		res := clocks.Explore(r.Program, a0, maxStates)
		exactM, complete = res.MHP, res.Complete
	} else {
		res := explore.MHPWithInfo(r.Info, r.Program, a0, maxStates)
		exactM, complete = res.MHP, res.Complete
	}
	rep := FalsePositiveReport{
		Complete:       complete,
		ExactPairs:     asyncBodyPairs(r.Program, exactM.Each),
		InferredPairs:  r.AsyncBodyPairs(),
		SoundnessHolds: !complete || exactM.SubsetOf(r.M),
	}
	exact := map[[2]syntax.Label]bool{}
	for _, pr := range rep.ExactPairs {
		exact[[2]syntax.Label{pr.A, pr.B}] = true
	}
	for _, pr := range rep.InferredPairs {
		if !exact[[2]syntax.Label{pr.A, pr.B}] {
			rep.FalsePositives = append(rep.FalsePositives, pr)
		}
	}
	return rep
}
