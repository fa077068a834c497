package clocks

import (
	"fmt"
	"strings"

	"fx10/internal/intset"
	"fx10/internal/syntax"
)

// Exhaustive exploration of clocked programs: the clocked analogue of
// internal/explore, enumerating every interleaving under the real
// barrier semantics with state deduplication. The result's MHP is the
// exact may-happen-in-parallel relation of the clocked program — the
// ground truth the phase-aware analysis is measured against, the way
// the erased explorer serves the core analysis.
//
// States extend the paper's execution trees with clock bookkeeping:
// each leaf carries its activity's registration and whether it is
// parked at the barrier, and each ▷ node remembers the registration of
// the activity that executed the finish. That last bit is what the
// erased tree loses and the barrier needs: a registered activity
// blocked at a finish join (its body thread terminated, children still
// running) must HOLD the barrier — X10's clocked-finish deadlock —
// while the dormant continuation of an activity whose body thread is
// itself parked at the barrier must not be double-counted as a second
// live activity. The two cases are distinguished by whether the fin's
// spine thread has terminated (see spineDone).
//
// The clock's phase counter is deliberately NOT part of the state key:
// the observable pair relation does not depend on the absolute phase,
// and keying on it would make any program with next inside a loop
// explore an unbounded space.

// ctree is a clocked execution tree.
type ctree interface{ isCtree() }

// cdone is √.
type cdone struct{}

// cleaf is ⟨s⟩ running in an activity with the given clock
// registration; Parked means the activity sits at a next waiting for
// the barrier.
type cleaf struct {
	S      *syntax.Stmt
	Reg    bool
	Parked bool
}

// cfin is T1 ▷ T2. Reg is the registration of the activity that
// executed the finish (the spine activity of L, resumed as R).
type cfin struct {
	L, R ctree
	Reg  bool
}

// cpar is T1 ∥ T2 (L is the spawned activity, R the spawner).
type cpar struct{ L, R ctree }

func (cdone) isCtree()  {}
func (*cleaf) isCtree() {}
func (*cfin) isCtree()  {}
func (*cpar) isCtree()  {}

// cstate is one explored configuration.
type cstate struct {
	a []int64
	t ctree
}

func (st cstate) key() string {
	var b strings.Builder
	fmt.Fprint(&b, st.a)
	b.WriteByte('|')
	writeCKey(&b, st.t)
	return b.String()
}

func writeCKey(b *strings.Builder, t ctree) {
	switch t := t.(type) {
	case cdone:
		b.WriteByte('D')
	case *cleaf:
		b.WriteByte('<')
		for cur := t.S; cur != nil; cur = cur.Next {
			fmt.Fprintf(b, "%d,", int(cur.Instr.Label()))
		}
		if t.Reg {
			b.WriteByte('R')
		}
		if t.Parked {
			b.WriteByte('B')
		}
		b.WriteByte('>')
	case *cfin:
		b.WriteByte('F')
		if t.Reg {
			b.WriteByte('R')
		}
		b.WriteByte('(')
		writeCKey(b, t.L)
		b.WriteByte(',')
		writeCKey(b, t.R)
		b.WriteByte(')')
	case *cpar:
		b.WriteString("P(")
		writeCKey(b, t.L)
		b.WriteByte(',')
		writeCKey(b, t.R)
		b.WriteByte(')')
	}
}

// spineDone reports whether the spine activity of t — the thread of
// the activity that created t's root — has terminated. The spine of a
// ∥ node is its right side (the spawner); a ▷ node's spine is alive
// as long as the node exists (it is either inside L or waiting at the
// join).
func spineDone(t ctree) bool {
	switch t := t.(type) {
	case cdone:
		return true
	case *cleaf:
		return false
	case *cfin:
		return false
	case *cpar:
		return spineDone(t.R)
	}
	return false
}

// clockCensus tallies what the barrier release decision needs:
// whether any registered activity is runnable or join-blocked, and
// how many activities are parked at the barrier. The R side of a ▷ is
// dormant continuation code, not a live activity, so it is never
// walked — but when the fin's spine thread inside L has terminated,
// the activity itself is waiting at the join and counts as blocked.
func clockCensus(t ctree, runningReg, joinBlockedReg *bool, parked *int) {
	switch t := t.(type) {
	case cdone:
	case *cleaf:
		if t.Parked {
			*parked++
		} else if t.Reg {
			*runningReg = true
		}
	case *cfin:
		clockCensus(t.L, runningReg, joinBlockedReg, parked)
		if t.Reg && spineDone(t.L) {
			*joinBlockedReg = true
		}
	case *cpar:
		clockCensus(t.L, runningReg, joinBlockedReg, parked)
		clockCensus(t.R, runningReg, joinBlockedReg, parked)
	}
}

// releaseBarrier returns t with every parked leaf advanced past its
// next, or t unchanged (structurally shared) when nothing is parked.
func releaseBarrier(t ctree) ctree {
	switch t := t.(type) {
	case cdone:
		return t
	case *cleaf:
		if !t.Parked {
			return t
		}
		if t.S.Next == nil {
			return cdone{}
		}
		return &cleaf{S: t.S.Next, Reg: t.Reg}
	case *cfin:
		return &cfin{L: releaseBarrier(t.L), R: t.R, Reg: t.Reg}
	case *cpar:
		return &cpar{L: releaseBarrier(t.L), R: releaseBarrier(t.R)}
	}
	return t
}

// firstLabels collects the current labels of the active (unparked,
// non-dormant) leaves of t.
func firstLabels(t ctree, out *intset.Set) {
	switch t := t.(type) {
	case cdone:
	case *cleaf:
		if !t.Parked {
			out.Add(int(t.S.Instr.Label()))
		}
	case *cfin:
		firstLabels(t.L, out) // R is dormant until the join fires
	case *cpar:
		firstLabels(t.L, out)
		firstLabels(t.R, out)
	}
}

// addParallel unions into dst the symmetric cross of active first
// labels across every ∥ node — parallel(T) of the paper, restricted
// to activities the barrier has not parked (matching what Interp
// observes: a parked activity has no current instruction).
func addParallel(dst *intset.PairSet, n int, t ctree) {
	switch t := t.(type) {
	case *cfin:
		addParallel(dst, n, t.L)
	case *cpar:
		addParallel(dst, n, t.L)
		addParallel(dst, n, t.R)
		l, r := intset.New(n), intset.New(n)
		firstLabels(t.L, l)
		firstLabels(t.R, r)
		dst.CrossSym(l, r)
	}
}

// cleafOf returns ⟨k⟩ for the same activity, or √ when the
// continuation is empty.
func cleafOf(k *syntax.Stmt, reg bool) ctree {
	if k == nil {
		return cdone{}
	}
	return &cleaf{S: k, Reg: reg}
}

// csucc enumerates the one-step successors of (a, t). clockErr is set
// when some interleaving executes next in an unregistered activity
// (X10's ClockUseException); that branch is not expanded.
func csucc(p *syntax.Program, a []int64, t ctree) (out []cstate, clockErr bool) {
	switch t := t.(type) {
	case cdone:
		return nil, false

	case *cfin:
		if _, isDone := t.L.(cdone); isDone {
			return []cstate{{a: a, t: t.R}}, false
		}
		succ, ce := csucc(p, a, t.L)
		for _, s := range succ {
			out = append(out, cstate{a: s.a, t: &cfin{L: s.t, R: t.R, Reg: t.Reg}})
		}
		return out, ce

	case *cpar:
		if _, isDone := t.L.(cdone); isDone {
			out = append(out, cstate{a: a, t: t.R})
		}
		// T ∥ √ → T collapses the terminated spine side — but only when
		// it does not falsify spineDone for an enclosing ▷: promoting a
		// live child into spine position would hide a join-blocked
		// registered spawner from the barrier census (the clocked-finish
		// deadlock would wrongly release). The node is kept instead; it
		// disappears via √ ∥ √ → √ once the child also terminates.
		if _, isDone := t.R.(cdone); isDone && spineDone(t.L) {
			out = append(out, cstate{a: a, t: t.L})
		}
		ls, ce1 := csucc(p, a, t.L)
		for _, s := range ls {
			out = append(out, cstate{a: s.a, t: &cpar{L: s.t, R: t.R}})
		}
		rs, ce2 := csucc(p, a, t.R)
		for _, s := range rs {
			out = append(out, cstate{a: s.a, t: &cpar{L: t.L, R: s.t}})
		}
		return out, ce1 || ce2

	case *cleaf:
		return csuccLeaf(p, a, t)
	}
	return nil, false
}

func csuccLeaf(p *syntax.Program, a []int64, lf *cleaf) ([]cstate, bool) {
	if lf.Parked {
		return nil, false // only the global barrier release moves it
	}
	s := lf.S
	k := s.Next
	switch i := s.Instr.(type) {
	case *syntax.Skip:
		return []cstate{{a: a, t: cleafOf(k, lf.Reg)}}, false

	case *syntax.Assign:
		na := make([]int64, len(a))
		copy(na, a)
		switch e := i.Rhs.(type) {
		case syntax.Const:
			na[i.D] = e.C
		case syntax.Plus:
			na[i.D] = a[e.D] + 1
		}
		return []cstate{{a: na, t: cleafOf(k, lf.Reg)}}, false

	case *syntax.While:
		if a[i.D] == 0 {
			return []cstate{{a: a, t: cleafOf(k, lf.Reg)}}, false
		}
		return []cstate{{a: a, t: &cleaf{S: syntax.Seq(i.Body, s), Reg: lf.Reg}}}, false

	case *syntax.Call:
		return []cstate{{a: a, t: &cleaf{S: syntax.Seq(p.Methods[i.Method].Body, k), Reg: lf.Reg}}}, false

	case *syntax.Async:
		child := &cleaf{S: i.Body, Reg: i.Clocked}
		return []cstate{{a: a, t: &cpar{L: child, R: cleafOf(k, lf.Reg)}}}, false

	case *syntax.Finish:
		body := &cleaf{S: i.Body, Reg: lf.Reg}
		return []cstate{{a: a, t: &cfin{L: body, R: cleafOf(k, lf.Reg), Reg: lf.Reg}}}, false

	case *syntax.Next:
		if !lf.Reg {
			return nil, true // dynamic clock-use error; branch halts
		}
		return []cstate{{a: a, t: &cleaf{S: s, Reg: true, Parked: true}}}, false
	}
	panic(fmt.Sprintf("clocks: unknown instruction %T", s.Instr))
}

// ExploreResult is the outcome of an exhaustive clocked exploration.
type ExploreResult struct {
	// MHP is the exact may-happen-in-parallel relation under the
	// barrier semantics (union of parallel(T) over visited states).
	MHP *intset.PairSet
	// States and Steps count distinct states and examined transitions.
	States, Steps int
	// Complete is false when the state budget ran out; MHP is then a
	// lower bound.
	Complete bool
	// Terminated reports whether some interleaving ran to completion.
	Terminated bool
	// Deadlocks counts distinct states where no activity can step and
	// the barrier cannot be released (clocked finish deadlock).
	Deadlocks int
	// ClockErrors counts states where some interleaving executes next
	// in an unregistered activity.
	ClockErrors int
}

// Explore enumerates the reachable clocked state space of p from the
// initial array a0 (nil = zeros), visiting at most maxStates distinct
// states. The main activity is registered on the implicit clock, as
// in X10.
func Explore(p *syntax.Program, a0 []int64, maxStates int) ExploreResult {
	n := p.NumLabels()
	res := ExploreResult{MHP: intset.NewPairs(n)}

	a := make([]int64, p.ArrayLen)
	copy(a, a0)
	start := cstate{a: a, t: &cleaf{S: p.Main().Body, Reg: true}}

	seen := map[string]bool{start.key(): true}
	frontier := []cstate{start}

	for len(frontier) > 0 {
		cur := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		res.States++

		addParallel(res.MHP, n, cur.t)
		if _, isDone := cur.t.(cdone); isDone {
			res.Terminated = true
			continue
		}

		succ, clockErr := csucc(p, cur.a, cur.t)
		if clockErr {
			res.ClockErrors++
		}
		// The barrier release is a global transition: enabled when at
		// least one activity is parked and every registered activity is
		// either parked or terminated (a registered activity that is
		// runnable, or blocked at a finish join, holds the clock).
		var runningReg, joinBlockedReg bool
		parked := 0
		clockCensus(cur.t, &runningReg, &joinBlockedReg, &parked)
		if parked > 0 && !runningReg && !joinBlockedReg {
			succ = append(succ, cstate{a: cur.a, t: releaseBarrier(cur.t)})
		}

		if len(succ) == 0 && !clockErr {
			res.Deadlocks++
		}
		res.Steps += len(succ)
		for _, s := range succ {
			k := s.key()
			if seen[k] {
				continue
			}
			if res.States+len(frontier) >= maxStates {
				return res
			}
			seen[k] = true
			frontier = append(frontier, s)
		}
	}
	res.Complete = true
	return res
}
