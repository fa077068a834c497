package clocks

import (
	"strconv"

	"fx10/internal/intset"
	"fx10/internal/syntax"
)

// Phase is an abstract clock phase: unset (⊥), a known concrete
// phase, or unknown (⊤).
type Phase struct {
	// state: 0 = unset, 1 = known, 2 = unknown.
	state int8
	n     int
}

// Unset is the lattice bottom.
var Unset = Phase{state: 0}

// Unknown is the lattice top: the label may execute at any phase.
var Unknown = Phase{state: 2}

// Known returns the phase "exactly n barriers have been passed".
func Known(n int) Phase { return Phase{state: 1, n: n} }

// IsKnown reports whether the phase is a concrete value, and returns
// it.
func (p Phase) IsKnown() (int, bool) { return p.n, p.state == 1 }

// Join is the lattice join: ⊥ is the identity, ⊤ absorbs, and two
// different known phases merge to ⊤. It is commutative, associative
// and idempotent (see the lattice-law tests).
func (p Phase) Join(q Phase) Phase {
	switch {
	case p.state == 0:
		return q
	case q.state == 0:
		return p
	case p.state == 2 || q.state == 2:
		return Unknown
	case p.n == q.n:
		return p
	default:
		return Unknown
	}
}

// add shifts a known phase by a delta; unknown deltas poison it.
func (p Phase) add(d delta) Phase {
	if p.state != 1 {
		return p
	}
	if !d.fixed {
		return Unknown
	}
	return Known(p.n + d.n)
}

// Ordered reports whether two phases are provably ordered by the
// single implicit clock: both are known and different, so the barrier
// serializes them and the labels can never execute simultaneously.
// Any ⊥ or ⊤ operand yields false (no ordering fact).
func (p Phase) Ordered(q Phase) bool {
	return p.state == 1 && q.state == 1 && p.n != q.n
}

func (p Phase) String() string {
	switch p.state {
	case 0:
		return "⊥"
	case 1:
		return strconv.Itoa(p.n)
	default:
		return "?"
	}
}

// delta is how many barriers a statement (or method body) passes in
// the executing activity: a fixed count, or unknown (a next inside a
// loop, or a loop whose trip count decides).
type delta struct {
	fixed bool
	n     int
}

var zeroDelta = delta{fixed: true}
var unknownDelta = delta{}

func (d delta) plus(e delta) delta {
	if !d.fixed || !e.fixed {
		return unknownDelta
	}
	return delta{fixed: true, n: d.n + e.n}
}

// PhaseInfo is the result of the static phase analysis: for every
// label, the clock phase its activity is guaranteed to be at whenever
// the label executes — or Unknown when that is not static.
//
// The key soundness fact (single implicit clock): a registered
// activity observes the global phase exactly; between its own
// barriers the clock cannot advance, because a barrier needs *every*
// live registered activity parked at a next. So a label's phase is
// its activity's spawn phase plus the number of barriers on the path
// from the activity's start — exact whenever that count is fixed.
// Labels in unregistered activities, under phase-varying loops, or in
// methods reachable at several phases are Unknown.
type PhaseInfo struct {
	p      *syntax.Program
	phases []Phase
	// methodDelta[mi] is how many barriers a call to mi passes in the
	// caller's activity.
	methodDelta []delta
	// methodEntry[mi] is the join of phases the method is entered at.
	methodEntry []Phase
}

// ComputePhases runs the analysis.
func ComputePhases(p *syntax.Program) *PhaseInfo {
	pi := &PhaseInfo{
		p:           p,
		phases:      make([]Phase, p.NumLabels()),
		methodDelta: make([]delta, len(p.Methods)),
		methodEntry: make([]Phase, len(p.Methods)),
	}
	pi.computeDeltas()
	pi.propagate()
	return pi
}

// computeDeltas fixpoints the per-method barrier deltas (recursive
// methods that pass barriers converge to unknown via the loop rule;
// a recursive method with no nexts anywhere stays at zero).
func (pi *PhaseInfo) computeDeltas() {
	for i := range pi.methodDelta {
		pi.methodDelta[i] = zeroDelta
	}
	for {
		changed := false
		for mi, m := range pi.p.Methods {
			d := pi.stmtDelta(m.Body)
			if d != pi.methodDelta[mi] {
				pi.methodDelta[mi] = d
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// stmtDelta is the barrier delta of running s in the current
// activity.
func (pi *PhaseInfo) stmtDelta(s *syntax.Stmt) delta {
	d := zeroDelta
	for cur := s; cur != nil; cur = cur.Next {
		switch i := cur.Instr.(type) {
		case *syntax.Next:
			d = d.plus(delta{fixed: true, n: 1})
		case *syntax.While:
			if body := pi.stmtDelta(i.Body); !body.fixed || body.n != 0 {
				return unknownDelta // trip count decides the phase
			}
		case *syntax.Finish:
			// The finish body runs in the same activity.
			d = d.plus(pi.stmtDelta(i.Body))
		case *syntax.Call:
			d = d.plus(pi.methodDelta[i.Method])
		case *syntax.Async:
			// A child activity's barriers are its own.
		}
	}
	return d
}

// propagate fixpoints label phases from main (phase 0).
func (pi *PhaseInfo) propagate() {
	pi.methodEntry[pi.p.MainIndex] = Known(0)
	for {
		changed := false
		for mi, m := range pi.p.Methods {
			entry := pi.methodEntry[mi]
			if entry.state == 0 {
				continue // not reachable (yet)
			}
			if pi.walk(m.Body, entry) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// setLabel joins ph into the label's phase and reports change.
func (pi *PhaseInfo) setLabel(l syntax.Label, ph Phase) bool {
	next := pi.phases[l].Join(ph)
	if next != pi.phases[l] {
		pi.phases[l] = next
		return true
	}
	return false
}

// setEntry joins ph into a method's entry phase and reports change.
func (pi *PhaseInfo) setEntry(mi int, ph Phase) bool {
	next := pi.methodEntry[mi].Join(ph)
	if next != pi.methodEntry[mi] {
		pi.methodEntry[mi] = next
		return true
	}
	return false
}

// walk threads the current phase through the statement, labeling as
// it goes; it reports whether any phase grew.
func (pi *PhaseInfo) walk(s *syntax.Stmt, cur Phase) bool {
	changed := false
	for st := s; st != nil; st = st.Next {
		i := st.Instr
		if pi.setLabel(i.Label(), cur) {
			changed = true
		}
		switch i := i.(type) {
		case *syntax.Next:
			// The barrier instruction itself runs at the incoming
			// phase; the continuation is one phase later.
			cur = cur.add(delta{fixed: true, n: 1})

		case *syntax.While:
			// A barrier-free body keeps the whole loop in the
			// incoming phase (the clock cannot advance while this
			// registered activity is between barriers); a body that
			// passes barriers makes the phase trip-count-dependent,
			// the loop's own label included: its test runs again
			// after each pass through the body.
			bodyDelta := pi.stmtDelta(i.Body)
			inside := cur
			if !bodyDelta.fixed || bodyDelta.n != 0 {
				inside = Unknown
				if pi.setLabel(i.L, Unknown) {
					changed = true
				}
			}
			if pi.walk(i.Body, inside) {
				changed = true
			}
			cur = inside

		case *syntax.Finish:
			if pi.walk(i.Body, cur) {
				changed = true
			}
			cur = cur.add(pi.stmtDelta(i.Body))

		case *syntax.Async:
			spawn := cur
			if !i.Clocked {
				// Unregistered: the clock advances underneath it.
				spawn = Unknown
			}
			if pi.walk(i.Body, spawn) {
				changed = true
			}

		case *syntax.Call:
			if pi.setEntry(i.Method, cur) {
				changed = true
			}
			cur = cur.add(pi.methodDelta[i.Method])
		}
	}
	return changed
}

// PhaseOf returns the computed phase of a label.
func (pi *PhaseInfo) PhaseOf(l syntax.Label) Phase { return pi.phases[l] }

// Codes flattens the analysis to one int32 per label: the concrete
// phase for Known labels, -1 for ⊥/⊤. Two labels with non-negative,
// different codes are Ordered. This is the compact form the
// constraint solvers consume on their hot path.
func (pi *PhaseInfo) Codes() []int32 {
	codes := make([]int32, len(pi.phases))
	for l, ph := range pi.phases {
		if n, ok := ph.IsKnown(); ok {
			codes[l] = int32(n)
		} else {
			codes[l] = -1
		}
	}
	return codes
}

// Refine removes from an MHP pair set every pair whose two labels
// have known, different phases: the single clock serializes different
// phases, so such statements can never execute simultaneously. The
// result is a subset of m and remains a sound MHP approximation for
// the clocked semantics.
func (pi *PhaseInfo) Refine(m *intset.PairSet) *intset.PairSet {
	out := intset.NewPairs(pi.p.NumLabels())
	m.Each(func(i, j int) {
		a, aok := pi.phases[i].IsKnown()
		b, bok := pi.phases[j].IsKnown()
		if aok && bok && a != b {
			return
		}
		out.Add(i, j)
	})
	return out
}
