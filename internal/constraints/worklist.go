package constraints

// Worklist solving: instead of full Gauss–Seidel passes (the paper's
// "iterative data flow" style, Section 5.2), re-evaluate only the
// constraints whose inputs changed. The least solution is identical;
// the work is proportional to the number of useful re-evaluations,
// which the Solution records in Evaluations. SolveDelta's restricted
// re-solve (solvedelta.go) is built on the same worklist.

// workqueue is a FIFO of constraint ids. Pops advance a head index
// instead of reslicing (the old queue = queue[1:] retained the whole
// backing array and grew it forever); once the dead prefix reaches
// half the buffer it is compacted in place, so each element is moved
// at most once per residence — amortized O(1) with bounded memory.
type workqueue struct {
	buf  []int32
	head int
}

func (q *workqueue) reset(capHint int) {
	if cap(q.buf) < capHint {
		q.buf = make([]int32, 0, capHint)
	}
	q.buf = q.buf[:0]
	q.head = 0
}

func (q *workqueue) empty() bool { return q.head == len(q.buf) }

func (q *workqueue) push(ci int32) { q.buf = append(q.buf, ci) }

func (q *workqueue) pop() int32 {
	ci := q.buf[q.head]
	q.head++
	if q.head >= 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return ci
}

// solverScratch holds the worklist buffers. The level-2 solve reuses
// the level-1 solve's allocations where the shapes allow: the queue
// buffer and in-queue flags are resized in place, and the dependents
// index reuses both the outer array and the per-variable inner slices
// (truncated, capacity kept).
type solverScratch struct {
	wq      workqueue
	inQueue []bool
	deps    [][]int32
}

// flags returns n cleared booleans, reusing the previous buffer.
func (sc *solverScratch) flags(n int) []bool {
	if cap(sc.inQueue) < n {
		sc.inQueue = make([]bool, n)
		return sc.inQueue
	}
	f := sc.inQueue[:n]
	for i := range f {
		f[i] = false
	}
	return f
}

// dependents returns n empty dependency lists, reusing previous inner
// slices' capacity.
func (sc *solverScratch) dependents(n int) [][]int32 {
	if cap(sc.deps) < n {
		old := sc.deps[:cap(sc.deps)]
		sc.deps = make([][]int32, n)
		copy(sc.deps, old)
	}
	sc.deps = sc.deps[:n]
	for i := range sc.deps {
		sc.deps[i] = sc.deps[i][:0]
	}
	return sc.deps
}

// solveL1Worklist computes the level-1 least solution with a
// worklist.
func (sol *Solution) solveL1Worklist() {
	s := sol.sys
	// constraint ids: 0..len(L1s)-1 are equalities, then subsets.
	total := len(s.L1s) + len(s.Subsets)
	// dependents[v] lists the constraints that read set variable v.
	dependents := sol.scratch.dependents(len(s.SetVarNames))
	for ci, c := range s.L1s {
		for _, v := range c.Vars {
			dependents[v] = append(dependents[v], int32(ci))
		}
	}
	for si, c := range s.Subsets {
		dependents[c.Sub] = append(dependents[c.Sub], int32(len(s.L1s)+si))
	}

	queue := &sol.scratch.wq
	queue.reset(total)
	inQueue := sol.scratch.flags(total)
	for i := 0; i < total; i++ {
		queue.push(int32(i))
		inQueue[i] = true
	}

	for !queue.empty() {
		ci := queue.pop()
		inQueue[ci] = false
		sol.Evaluations++
		sol.checkCancel()

		var lhs SetVar
		changed := false
		if int(ci) < len(s.L1s) {
			c := s.L1s[ci]
			lhs = c.LHS
			dst := sol.setVals[lhs]
			if c.Const != nil && dst.UnionWith(c.Const) {
				changed = true
			}
			for _, v := range c.Vars {
				if dst.UnionWith(sol.setVals[v]) {
					changed = true
				}
			}
		} else {
			c := s.Subsets[int(ci)-len(s.L1s)]
			lhs = c.Sup
			changed = sol.setVals[lhs].UnionWith(sol.setVals[c.Sub])
		}
		if changed {
			for _, d := range dependents[lhs] {
				if !inQueue[d] {
					inQueue[d] = true
					queue.push(d)
				}
			}
		}
	}
}

// solveL2Worklist computes the level-2 least solution with a
// worklist; cross terms are folded in once (level-1 is already
// solved), then only pair-variable unions propagate.
func (sol *Solution) solveL2Worklist() {
	s := sol.sys
	dependents := sol.scratch.dependents(len(s.PairVarNames))
	for ci, c := range s.L2s {
		for _, v := range c.Pairs {
			dependents[v] = append(dependents[v], int32(ci))
		}
	}
	queue := &sol.scratch.wq
	queue.reset(len(s.L2s))
	inQueue := sol.scratch.flags(len(s.L2s))

	// Fold the constant cross terms and seed the queue with every
	// constraint, so pure-union chains fire.
	for ci, c := range s.L2s {
		sol.checkCancel()
		lhs := sol.pairVals[c.LHS]
		for _, ct := range c.Crosses {
			lhs.crossSym(ct.Const, sol.setVals[ct.Var], s.PhaseCode)
		}
		queue.push(int32(ci))
		inQueue[ci] = true
	}

	for !queue.empty() {
		ci := queue.pop()
		inQueue[ci] = false
		sol.Evaluations++
		sol.checkCancel()

		c := s.L2s[ci]
		lhs := sol.pairVals[c.LHS]
		changed := false
		for _, v := range c.Pairs {
			if lhs.unionWith(sol.pairVals[v]) {
				changed = true
			}
		}
		if changed {
			for _, d := range dependents[c.LHS] {
				if !inQueue[d] {
					inQueue[d] = true
					queue.push(d)
				}
			}
		}
	}
}
