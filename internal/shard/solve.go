package shard

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fx10/internal/constraints"
	"fx10/internal/intset"
)

// Config tunes the sharded solve. Neither knob affects results, only
// wall clock: bit-identity holds for every shard count and worker
// count (see the package comment).
type Config struct {
	// Shards is the number of method shards; ≤ 0 means
	// runtime.GOMAXPROCS(0).
	Shards int
	// Workers bounds how many shards solve concurrently; ≤ 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
}

// cancelStride matches constraints.CancelStride: how many constraint
// evaluations pass between context polls inside a shard.
const cancelStride = 256

// Solve computes the least solution of sys with the sharded solver.
func Solve(sys *constraints.System, cfg Config) *constraints.Solution {
	sol, err := SolveCtx(context.Background(), sys, cfg)
	if err != nil {
		// Background contexts don't cancel; any error here is a bug.
		panic("shard: Solve: " + err.Error())
	}
	return sol
}

// SolveCtx is Solve with cooperative cancellation: shards poll ctx
// every cancelStride evaluations and the first observed cancellation
// aborts the whole solve.
func SolveCtx(ctx context.Context, sys *constraints.System, cfg Config) (*constraints.Solution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	alloc0 := constraints.HeapAllocBytes()
	start := time.Now()

	k := cfg.Shards
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	sv := newSolver(ctx, sys, PlanSystem(sys, k), cfg.Workers)
	sv.solveL1()
	sv.solveL2()
	if sv.aborted.Load() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, context.Canceled
	}

	var evals, solveNs int64
	for s := 0; s < sv.k; s++ {
		evals += sv.evals[s].n
		solveNs += sv.solveNs[s].n
	}
	stats := &constraints.ShardStats{
		Shards:        sv.nonEmptyShards(),
		MergeRoundsL1: sv.roundsL1,
		MergeRoundsL2: sv.roundsL2,
		ShardSolveNs:  solveNs,
	}
	return constraints.NewSolution(sys, sv.setVals, sv.pairVals, constraints.SolveMetrics{
		Evaluations: evals,
		IterL1:      sv.roundsL1,
		IterL2:      sv.roundsL2,
		Duration:    time.Since(start),
		AllocBytes:  constraints.HeapAllocBytes() - alloc0,
		Shard:       stats,
	}), nil
}

// padded keeps per-shard counters on separate cache lines so
// concurrent shards don't false-share.
type padded struct {
	n int64
	_ [7]int64
}

// solver carries one sharded solve. The concurrency discipline is
// strict: during a round, shard s writes only variables it owns and
// reads foreign variables only through the snapshot buffers; the
// snapshots are mutated only by the sequential merge step between
// rounds. Change flags are per-variable and written only by the
// owning shard. That makes rounds race-free by construction (the race
// detector agrees; see TestShardRace).
type solver struct {
	ctx     context.Context
	sys     *constraints.System
	plan    Plan
	k       int
	workers int

	setShard  []int32 // SetVar → shard
	pairShard []int32 // PairVar → shard

	l1Of  [][]int32 // shard → indices into sys.L1s
	subOf [][]int32 // shard → indices into sys.Subsets
	l2Of  [][]int32 // shard → indices into sys.L2s

	setVals  []*intset.Set
	pairVals *constraints.PairBags

	// Cross-shard set snapshot: one slot per set variable read by a
	// non-owning shard. setSnap starts at bottom and is advanced (by
	// union, equivalent to copy under monotone growth) in the merge
	// step whenever the owner flagged a change.
	setSnapIdx []int32       // SetVar → slot, -1 if never read externally
	setSlotVar []int32       // slot → SetVar
	setSnap    []*intset.Set // slot → snapshot value
	setReaders [][]int32     // slot → non-owner shards reading it
	setChanged []bool        // SetVar → changed since last merge (owner-written)

	pairSnapIdx []int32
	pairSlotVar []int32
	pairSnap    *constraints.PairBags
	pairReaders [][]int32
	pairChanged []bool

	roundsL1 int
	roundsL2 int
	evals    []padded // per shard
	solveNs  []padded
	aborted  atomic.Bool
}

func newSolver(ctx context.Context, sys *constraints.System, plan Plan, workers int) *solver {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	k := plan.NumShards
	n := sys.P.NumLabels()
	nv, np := sys.NumSetVars(), sys.NumPairVars()
	sv := &solver{
		ctx:         ctx,
		sys:         sys,
		plan:        plan,
		k:           k,
		workers:     workers,
		setShard:    make([]int32, nv),
		pairShard:   make([]int32, np),
		l1Of:        make([][]int32, k),
		subOf:       make([][]int32, k),
		l2Of:        make([][]int32, k),
		setVals:     intset.NewBatch(n, nv),
		pairVals:    constraints.NewPairBags(np),
		setSnapIdx:  make([]int32, nv),
		setChanged:  make([]bool, nv),
		pairSnapIdx: make([]int32, np),
		pairChanged: make([]bool, np),
		evals:       make([]padded, k),
		solveNs:     make([]padded, k),
	}
	for v := range sv.setShard {
		sv.setShard[v] = plan.ShardOf[sys.SetVarOwner[v]]
		sv.setSnapIdx[v] = -1
	}
	for v := range sv.pairShard {
		sv.pairShard[v] = plan.ShardOf[sys.PairVarOwner[v]]
		sv.pairSnapIdx[v] = -1
	}

	// Constraint ownership follows the LHS (every variable is the LHS
	// of exactly one constraint, so this covers the system); foreign
	// RHS variables get a snapshot slot and a reader edge.
	for ci := range sys.L1s {
		c := &sys.L1s[ci]
		s := sv.setShard[c.LHS]
		sv.l1Of[s] = append(sv.l1Of[s], int32(ci))
		for _, v := range c.Vars {
			sv.noteSetRead(s, v)
		}
	}
	for ci := range sys.Subsets {
		c := &sys.Subsets[ci]
		s := sv.setShard[c.Sup]
		sv.subOf[s] = append(sv.subOf[s], int32(ci))
		sv.noteSetRead(s, c.Sub)
	}
	for ci := range sys.L2s {
		c := &sys.L2s[ci]
		s := sv.pairShard[c.LHS]
		sv.l2Of[s] = append(sv.l2Of[s], int32(ci))
		for _, v := range c.Pairs {
			sv.notePairRead(s, v)
		}
		// Cross terms read set values, but only after level 1 is at
		// its global fixpoint and frozen — no slot needed.
	}
	sv.setSnap = make([]*intset.Set, len(sv.setSlotVar))
	for i := range sv.setSnap {
		sv.setSnap[i] = intset.New(n)
	}
	sv.pairSnap = constraints.NewPairBags(len(sv.pairSlotVar))
	return sv
}

func (sv *solver) noteSetRead(reader int32, v constraints.SetVar) {
	if sv.setShard[v] == reader {
		return
	}
	slot := sv.setSnapIdx[v]
	if slot < 0 {
		slot = int32(len(sv.setSlotVar))
		sv.setSnapIdx[v] = slot
		sv.setSlotVar = append(sv.setSlotVar, int32(v))
		sv.setReaders = append(sv.setReaders, nil)
	}
	sv.setReaders[slot] = appendReader(sv.setReaders[slot], reader)
}

func (sv *solver) notePairRead(reader int32, v constraints.PairVar) {
	if sv.pairShard[v] == reader {
		return
	}
	slot := sv.pairSnapIdx[v]
	if slot < 0 {
		slot = int32(len(sv.pairSlotVar))
		sv.pairSnapIdx[v] = slot
		sv.pairSlotVar = append(sv.pairSlotVar, int32(v))
		sv.pairReaders = append(sv.pairReaders, nil)
	}
	sv.pairReaders[slot] = appendReader(sv.pairReaders[slot], reader)
}

// appendReader adds s to the (short) reader list if absent.
func appendReader(rs []int32, s int32) []int32 {
	for _, x := range rs {
		if x == s {
			return rs
		}
	}
	return append(rs, s)
}

func (sv *solver) nonEmptyShards() int {
	seen := make([]bool, sv.k)
	count := 0
	for _, s := range sv.plan.ShardOf {
		if !seen[s] {
			seen[s] = true
			count++
		}
	}
	return count
}

// tick is the cooperative-cancellation poll: cheap countdown, a real
// context check every cancelStride evaluations. Reports abort.
func (sv *solver) tick(cd *int) bool {
	*cd--
	if *cd > 0 {
		return false
	}
	*cd = cancelStride
	if sv.aborted.Load() {
		return true
	}
	if sv.ctx.Err() != nil {
		sv.aborted.Store(true)
		return true
	}
	return false
}

// runShards applies fn to every shard in queue, concurrently up to the
// worker bound, and records per-shard solve time. fn invocations for
// distinct shards share no mutable state (see the solver comment), so
// scheduling order cannot affect the outcome of a round.
func (sv *solver) runShards(queue []int32, fn func(int32)) {
	timed := func(s int32) {
		t0 := time.Now()
		fn(s)
		sv.solveNs[s].n += time.Since(t0).Nanoseconds()
	}
	w := sv.workers
	if w > len(queue) {
		w = len(queue)
	}
	if w <= 1 {
		for _, s := range queue {
			if sv.aborted.Load() {
				return
			}
			timed(s)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if int(i) >= len(queue) || sv.aborted.Load() {
					return
				}
				timed(queue[i])
			}
		}()
	}
	wg.Wait()
}

// allShards is the round-0 queue.
func (sv *solver) allShards() []int32 {
	q := make([]int32, sv.k)
	for i := range q {
		q[i] = int32(i)
	}
	return q
}

// solveL1 runs level-1 merge rounds to the global fixpoint: every
// queued shard solves its local constraints to quiescence against the
// current snapshots, then the merge step republishes changed exported
// variables and queues their readers. Terminates because values only
// grow in a finite lattice; on termination the snapshots equal the
// live values, so every constraint — including cross-shard ones — is
// satisfied, and every union was constraint-derived, so the valuation
// is the least fixpoint.
func (sv *solver) solveL1() {
	queue := sv.allShards()
	inQueue := make([]bool, sv.k)
	for {
		sv.roundsL1++
		sv.runShards(queue, sv.l1Local)
		if sv.aborted.Load() {
			return
		}
		var next []int32
		for slot, v := range sv.setSlotVar {
			if !sv.setChanged[v] {
				continue
			}
			sv.setChanged[v] = false
			// Values grow monotonically, so union == copy here.
			sv.setSnap[slot].UnionWith(sv.setVals[v])
			for _, rs := range sv.setReaders[slot] {
				if !inQueue[rs] {
					inQueue[rs] = true
					next = append(next, rs)
				}
			}
		}
		if len(next) == 0 {
			return
		}
		for _, s := range next {
			inQueue[s] = false
		}
		queue = next
	}
}

// l1Local solves shard s's level-1 constraints to a local fixpoint,
// reading foreign variables from the snapshots.
func (sv *solver) l1Local(s int32) {
	sys := sv.sys
	cd := cancelStride
	evals := &sv.evals[s].n
	for {
		changed := false
		for _, ci := range sv.l1Of[s] {
			c := &sys.L1s[ci]
			*evals++
			if sv.tick(&cd) {
				return
			}
			lhs := sv.setVals[c.LHS]
			if c.Const != nil && lhs.UnionWith(c.Const) {
				sv.markSet(c.LHS)
				changed = true
			}
			for _, v := range c.Vars {
				src := sv.setVals[v]
				if sv.setShard[v] != s {
					src = sv.setSnap[sv.setSnapIdx[v]]
				}
				if lhs.UnionWith(src) {
					sv.markSet(c.LHS)
					changed = true
				}
			}
		}
		for _, ci := range sv.subOf[s] {
			c := &sys.Subsets[ci]
			*evals++
			if sv.tick(&cd) {
				return
			}
			src := sv.setVals[c.Sub]
			if sv.setShard[c.Sub] != s {
				src = sv.setSnap[sv.setSnapIdx[c.Sub]]
			}
			if sv.setVals[c.Sup].UnionWith(src) {
				sv.markSet(c.Sup)
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

func (sv *solver) markSet(v constraints.SetVar) {
	if sv.setSnapIdx[v] >= 0 {
		sv.setChanged[v] = true
	}
}

func (sv *solver) markPair(v constraints.PairVar) {
	if sv.pairSnapIdx[v] >= 0 {
		sv.pairChanged[v] = true
	}
}

// solveL2 mirrors solveL1 for the level-2 system. Round 0 also folds
// the cross terms (level 1 is at its global fixpoint, so every cross
// term is a constant pair set — phase 3 of Section 5.3); since round 0
// queues every shard, each cross term is folded exactly once.
func (sv *solver) solveL2() {
	if sv.aborted.Load() {
		return
	}
	queue := sv.allShards()
	inQueue := make([]bool, sv.k)
	fold := true
	for {
		sv.roundsL2++
		doFold := fold
		fold = false
		sv.runShards(queue, func(s int32) { sv.l2Local(s, doFold) })
		if sv.aborted.Load() {
			return
		}
		var next []int32
		for slot, v := range sv.pairSlotVar {
			if !sv.pairChanged[v] {
				continue
			}
			sv.pairChanged[v] = false
			sv.pairSnap.Union(slot, sv.pairVals, int(v))
			for _, rs := range sv.pairReaders[slot] {
				if !inQueue[rs] {
					inQueue[rs] = true
					next = append(next, rs)
				}
			}
		}
		if len(next) == 0 {
			return
		}
		for _, s := range next {
			inQueue[s] = false
		}
		queue = next
	}
}

// l2Local solves shard s's level-2 constraints to a local fixpoint.
// Set values are frozen by now and read directly wherever they live.
func (sv *solver) l2Local(s int32, fold bool) {
	sys := sv.sys
	cd := cancelStride
	evals := &sv.evals[s].n
	if fold {
		for _, ci := range sv.l2Of[s] {
			c := &sys.L2s[ci]
			for _, ct := range c.Crosses {
				*evals++
				if sv.tick(&cd) {
					return
				}
				if sv.pairVals.CrossSym(int(c.LHS), ct.Const, sv.setVals[ct.Var], sys.PhaseCode) {
					sv.markPair(c.LHS)
				}
			}
		}
	}
	for {
		changed := false
		for _, ci := range sv.l2Of[s] {
			c := &sys.L2s[ci]
			for _, v := range c.Pairs {
				*evals++
				if sv.tick(&cd) {
					return
				}
				var ch bool
				if sv.pairShard[v] != s {
					ch = sv.pairVals.Union(int(c.LHS), sv.pairSnap, int(sv.pairSnapIdx[v]))
				} else {
					ch = sv.pairVals.Union(int(c.LHS), sv.pairVals, int(v))
				}
				if ch {
					sv.markPair(c.LHS)
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}
