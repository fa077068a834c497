package constraints

import (
	"context"
)

// Cancellation support: SolveCtx and SolveDeltaCtx are the
// context-aware entry points a long-lived caller (internal/server)
// uses to abandon a solve mid-flight — a client gone away must not pin
// a worker for the rest of a large fixpoint. The solver loops poll
// the context every CancelStride constraint evaluations (polling every
// evaluation would put an atomic load on the hottest path for no
// benefit; a stride keeps the overhead to a countdown decrement) and
// bail out by panicking with a private sentinel that the entry points
// recover into a plain error. The context-free Solve/SolveDelta
// wrappers never pay more than a nil check per stride.

// CancelStride is the number of constraint evaluations between
// context polls. At typical sub-microsecond evaluation cost this
// bounds cancellation latency well under a millisecond.
const CancelStride = 256

// canceledPanic is the sentinel unwound through the solver loops on
// cancellation; it never escapes SolveCtx/SolveDeltaCtx.
type canceledPanic struct{ err error }

// cancelState is embedded in Solution. ctx is nil when the solve is
// not cancellable (the common case), making checkCancel a branch on
// cheap local state.
type cancelState struct {
	ctx       context.Context
	countdown int
}

// arm enables cancellation polling when ctx can actually be
// cancelled; a Background-like context keeps the fast path.
func (cs *cancelState) arm(ctx context.Context) {
	if ctx != nil && ctx.Done() != nil {
		cs.ctx = ctx
		cs.countdown = CancelStride
	}
}

// check polls the context every CancelStride calls and aborts the
// solve (canceledPanic) if it is done.
func (cs *cancelState) check() {
	if cs.ctx == nil {
		return
	}
	cs.countdown--
	if cs.countdown > 0 {
		return
	}
	cs.countdown = CancelStride
	if err := cs.ctx.Err(); err != nil {
		panic(canceledPanic{err: err})
	}
}

// checkCancel is called once per constraint evaluation by every
// solver loop.
func (sol *Solution) checkCancel() { sol.cancel.check() }

// recoverCanceled converts the cancellation sentinel into err,
// re-panicking anything else. Use in a deferred call.
func recoverCanceled(err *error) {
	if r := recover(); r != nil {
		cp, ok := r.(canceledPanic)
		if !ok {
			panic(r)
		}
		*err = cp.err
	}
}

// SolveCtx is Solve with cooperative cancellation: it returns
// (nil, ctx.Err()) if ctx is cancelled mid-solve, and the least
// solution otherwise. Every algorithm checks for cancellation every
// CancelStride constraint evaluations, so a cancel is honoured
// promptly even deep inside a large fixpoint. A partial solve is
// never returned.
func (s *System) SolveCtx(ctx context.Context, alg Algorithm) (sol *Solution, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer recoverCanceled(&err)
	return s.solve(ctx, alg), nil
}

// SolveDeltaCtx is SolveDelta with cooperative cancellation; the
// closure solve (and the full-solve fallback) polls ctx every
// CancelStride evaluations. On cancellation it returns
// (nil, DeltaInfo{}, ctx.Err()) and no partial solution.
func (s *System) SolveDeltaCtx(ctx context.Context, prev *Solution, dirty []MethodID) (sol *Solution, info DeltaInfo, err error) {
	if err := ctx.Err(); err != nil {
		return nil, DeltaInfo{}, err
	}
	defer recoverCanceled(&err)
	sol, info = s.solveDelta(ctx, prev, dirty)
	return sol, info, nil
}
