package constraints

import (
	"context"
	"fmt"
	"runtime/metrics"
	"time"

	"fx10/internal/intset"
	"fx10/internal/syntax"
	"fx10/internal/types"
)

// Algorithm selects how Solve reaches the least solution. By
// Theorems 5–6 the least solution is unique, so the algorithms differ
// only in cost and in the work counters they fill in.
type Algorithm int

const (
	// Phased is the paper's three-phase algorithm (Section 5.3):
	// Slabels, then level-1 passes to a fixpoint, then the level-2
	// cross terms folded in once and pure m-variable unions iterated.
	// It fills IterL1/IterL2 and is the reference Topo is tested
	// against.
	Phased Algorithm = iota
	// Topo eliminates iteration instead of just pruning it: the
	// level-1 constraint graph, and at level 2 the call graph, are
	// condensed into strongly connected components (Tarjan), every
	// member of a cycle provably shares the SCC's least value, and
	// components are solved exactly once in topological order (see
	// topo.go). Evaluations counts the near-minimal evaluations.
	// SolveDelta re-solves its dirty closure with the same passes.
	Topo
)

// String returns the algorithm's strategy name: "phased" or "topo".
func (a Algorithm) String() string {
	switch a {
	case Phased:
		return "phased"
	case Topo:
		return "topo"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Solution is a least solution of a System, with solver metrics.
type Solution struct {
	sys *System

	setVals  []*intset.Set
	pairVals []pairBag // nil for a statement's m under topo (see bag)
	// nsets and bagSlots count the distinct sets, and the slots of the
	// distinct bags, the valuation retains (FootprintBytes).
	nsets, bagSlots int

	// IterSlabels, IterL1 and IterL2 are the fixpoint pass counts of
	// the three phases (each includes the final, no-change pass).
	// Only Phased runs level-1 and level-2 passes; under Topo IterL1
	// and IterL2 stay zero and Evaluations counts constraint
	// evaluations instead.
	IterSlabels int
	IterL1      int
	IterL2      int
	// Evaluations counts the evaluations of the topo solver and of
	// SolveDelta: each level-1 constraint evaluated (at most once;
	// copy-elided constraints not at all), plus one per call-graph SCC
	// whose level-2 value is computed.
	Evaluations int64

	// cancel is the cooperative-cancellation state (see cancel.go);
	// zero when the solve is not cancellable.
	cancel cancelState

	// Duration is the wall time of Solve (constraint solving only;
	// see internal/experiments for end-to-end pipeline timing).
	Duration time.Duration

	// AllocBytes is the heap allocated during Solve (the
	// HeapAllocBytes delta, i.e. runtime TotalAlloc): a
	// machine-independent proxy for the space column of Figure 8.
	AllocBytes uint64

	// FootprintBytes is the memory retained by the solved valuation
	// itself: dense set words plus 8 bytes per pair-bag slot, each
	// shared set and bag counted once.
	FootprintBytes int
}

// HeapAllocBytes returns the cumulative bytes the process has
// allocated on the heap (runtime.MemStats.TotalAlloc). It reads
// /gc/heap/allocs:bytes through runtime/metrics, which, unlike
// runtime.ReadMemStats, does not stop the world; solvers bracket a
// solve with it to fill AllocBytes.
func HeapAllocBytes() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// Solve computes the least solution of the system (Theorem 5: the
// constraints define a monotone function on a finite lattice, so a
// least fixpoint exists; we reach it by accumulating iteration from
// the bottom valuation).
func (s *System) Solve(alg Algorithm) *Solution {
	return s.solve(context.Background(), alg)
}

// solve is the shared core of Solve and SolveCtx. It unwinds with a
// canceledPanic when ctx is cancelled mid-solve (see cancel.go).
func (s *System) solve(ctx context.Context, alg Algorithm) *Solution {
	alloc0 := HeapAllocBytes()
	start := time.Now()

	n := s.P.NumLabels()
	sol := &Solution{
		sys:         s,
		setVals:     make([]*intset.Set, s.NumSetVars()),
		pairVals:    make([]pairBag, s.NumPairVars()),
		IterSlabels: s.Info.Iterations,
	}
	sol.cancel.arm(ctx)
	// The topo solver allocates its own valuation (one set per
	// component and one bag per call-graph SCC, shared by their
	// variables); the phased solver starts from an explicit bottom
	// valuation (a nil bag is empty).
	if alg == Phased {
		for i := range sol.setVals {
			sol.setVals[i] = intset.New(n)
		}
		sol.nsets = len(sol.setVals)
	}

	switch alg {
	case Phased:
		sol.solveL1()
		sol.solveL2()
		sol.bagSlots = distinctSlots(sol.pairVals)
	case Topo:
		sol.solveTopoL1(nil)
		sol.solveTopoL2(nil)
	default:
		panic(fmt.Sprintf("constraints: unknown %v", alg))
	}

	sol.Duration = time.Since(start)
	sol.AllocBytes = HeapAllocBytes() - alloc0
	sol.footprint()
	return sol
}

// footprint sets FootprintBytes to the memory the valuation retains:
// each set's words and slice header, and 8 bytes per slot of each pair
// bag's capacity, counted once per distinct set or bag however many
// variables (or Solutions) share it. The solvers count both as they
// allocate them: phased one set per variable, topo one per evaluated
// component (plus SolveDelta's seeds), and topo one bag per SCC value
// it allocates or seeds.
func (sol *Solution) footprint() {
	sol.FootprintBytes = sol.nsets*((sol.sys.P.NumLabels()+63)/64*8+24) + 8*sol.bagSlots
}

// distinctSlots returns the capacity of the distinct bags among bags:
// phased's unionWith lets one variable take another's run.
func distinctSlots(bags []pairBag) int {
	seen := make(map[*uint64]bool)
	slots := 0
	for _, b := range bags {
		if cap(b) > 0 && !seen[&b[:1][0]] {
			seen[&b[:1][0]] = true
			slots += cap(b)
		}
	}
	return slots
}

// l1Pass applies every level-1 constraint once (Gauss–Seidel with
// union accumulation, which preserves the least fixpoint because all
// right-hand sides are monotone unions) and reports change.
func (sol *Solution) l1Pass() bool {
	s := sol.sys
	changed := false
	for _, c := range s.L1s {
		sol.checkCancel()
		lhs := sol.setVals[c.LHS]
		if c.Const != nil && lhs.UnionWith(c.Const) {
			changed = true
		}
		for _, v := range c.Vars {
			if lhs.UnionWith(sol.setVals[v]) {
				changed = true
			}
		}
	}
	for _, c := range s.Subsets {
		sol.checkCancel()
		if sol.setVals[c.Sup].UnionWith(sol.setVals[c.Sub]) {
			changed = true
		}
	}
	return changed
}

func (sol *Solution) solveL1() {
	for {
		sol.IterL1++
		if !sol.l1Pass() {
			return
		}
	}
}

// l2Pass applies every level-2 constraint's pair-variable unions once
// against the current valuation; the cross terms are already folded
// into the pair values.
func (sol *Solution) l2Pass() bool {
	s := sol.sys
	changed := false
	for _, c := range s.L2s {
		sol.checkCancel()
		lhs := &sol.pairVals[c.LHS]
		for _, v := range c.Pairs {
			if lhs.unionWith(sol.pairVals[v]) {
				changed = true
			}
		}
	}
	return changed
}

func (sol *Solution) solveL2() {
	// Phase 3 of Section 5.3: with level-1 solved, every cross term
	// is a constant pair set; fold them in once, then iterate pure
	// m-variable unions.
	for _, c := range sol.sys.L2s {
		sol.checkCancel()
		lhs := &sol.pairVals[c.LHS]
		for _, ct := range c.Crosses {
			lhs.unionWith(emitCross(nil, &ct, sol.setVals, sol.sys.PhaseCode))
		}
	}
	for {
		sol.IterL2++
		if !sol.l2Pass() {
			return
		}
	}
}

// SetValue returns the solved value of a set variable (shared; do not
// mutate).
func (sol *Solution) SetValue(v SetVar) *intset.Set { return sol.setVals[v] }

// PairValue returns the solved value of a pair variable as a dense
// pair set (fresh copy). A statement variable topo left unsolved is
// derived first (bag).
func (sol *Solution) PairValue(v PairVar) *intset.PairSet {
	return sol.bag(v).toPairSet(sol.sys.P.NumLabels())
}

// PairLen returns the number of ordered pairs in a pair variable
// without densifying it.
func (sol *Solution) PairLen(v PairVar) int { return len(sol.bag(v)) }

// bag returns pair variable v's value (shared; do not mutate). Topo
// and SolveDelta store only the methods' m, so a statement's is
// derived from the final sets and the method bags: one merge of the
// products of the statements whose m flows into v (its suffix and
// nested bodies) and of the m of the methods they call. (Under phased
// every variable holds its value, and an empty one derives to empty.)
func (sol *Solution) bag(v PairVar) pairBag {
	s := sol.sys
	if b := sol.pairVals[v]; b != nil || s.isMethodM(v) {
		return b
	}
	var m runMerger
	s.walkL2(v, func(c *L2) {
		for k := range c.Crosses {
			m.cross(&c.Crosses[k], sol.setVals, s.PhaseCode)
		}
	}, func(w PairVar) bool {
		if s.isMethodM(w) {
			m.bag(sol.pairVals[w])
		}
		return !s.isMethodM(w)
	})
	b, _ := m.union()
	return b
}

// StmtR returns the solved r_s for a statement node (shared; do not
// mutate).
func (sol *Solution) StmtR(st *syntax.Stmt) *intset.Set {
	return sol.setVals[sol.sys.StmtR[st.Instr.Label()]]
}

// StmtO returns the solved o_s for a statement node (shared; do not
// mutate).
func (sol *Solution) StmtO(st *syntax.Stmt) *intset.Set {
	return sol.setVals[sol.sys.StmtO[st.Instr.Label()]]
}

// StmtM returns the solved m_s for a statement node (fresh dense set),
// derived on demand under topo and SolveDelta (bag).
func (sol *Solution) StmtM(st *syntax.Stmt) *intset.PairSet {
	return sol.PairValue(sol.sys.StmtM[st.Instr.Label()])
}

// MethodSummary returns the solved (mᵢ, oᵢ) for a method as a type
// summary.
func (sol *Solution) MethodSummary(mi int) types.Summary {
	return types.Summary{
		M: sol.PairValue(sol.sys.MethodM[mi]),
		O: sol.setVals[sol.sys.MethodO[mi]].Clone(),
	}
}

// Env converts the solved method summaries to a type environment, the
// "φ extends E" direction of Theorem 4.
func (sol *Solution) Env() types.Env {
	env := make(types.Env, len(sol.sys.P.Methods))
	for i := range env {
		env[i] = sol.MethodSummary(i)
	}
	return env
}

// MainM returns the solved m variable of the main method: by
// Theorem 3 a conservative approximation of MHP(p).
func (sol *Solution) MainM() *intset.PairSet {
	return sol.PairValue(sol.sys.MethodM[sol.sys.P.MainIndex])
}

// EachMainPair calls f for every ordered pair of the main method's m
// variable, rows ascending and each row's columns ascending: the
// pairs and the order MainM().Each gives, read from the solved run
// without densifying it.
func (sol *Solution) EachMainPair(f func(i, j int)) {
	for _, k := range sol.pairVals[sol.sys.MethodM[sol.sys.P.MainIndex]] {
		f(int(k>>32), int(uint32(k)))
	}
}
