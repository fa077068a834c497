package constraints

import (
	"context"
	"errors"
	"testing"

	"fx10/internal/labels"
	"fx10/internal/parser"
	"fx10/internal/workloads"
)

const cancelSrc = `
array 4;
void main() {
  finish {
    async { f(); }
    l1: a[0] = 1;
    f();
  }
}
void f() {
  finish {
    async { l2: a[1] = a[2] + 1; }
    g();
  }
}
void g() {
  while (a[3] != 0) { async { l3: a[2] = 0; } }
}
`

// algorithms lists every Algorithm; each must honour cancellation.
var algorithms = []Algorithm{Phased, Topo}

func cancelSystem(t *testing.T, mode Mode) *System {
	t.Helper()
	p, err := parser.Parse(cancelSrc)
	if err != nil {
		t.Fatal(err)
	}
	return Generate(labels.Compute(p), mode)
}

// SolveCtx with a live context must agree exactly with Solve, for
// every strategy.
func TestSolveCtxMatchesSolve(t *testing.T) {
	for _, mode := range []Mode{ContextSensitive, ContextInsensitive} {
		sys := cancelSystem(t, mode)
		for _, alg := range algorithms {
			want := sys.Solve(alg)
			got, err := sys.SolveCtx(context.Background(), alg)
			if err != nil {
				t.Fatalf("%v %v: unexpected error %v", mode, alg, err)
			}
			if !got.MainM().Equal(want.MainM()) {
				t.Errorf("%v %v: SolveCtx diverges from Solve", mode, alg)
			}
		}
	}
}

// A context cancelled before the call returns immediately with its
// error and no solution.
func TestSolveCtxPreCancelled(t *testing.T) {
	sys := cancelSystem(t, ContextSensitive)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range algorithms {
		sol, err := sys.SolveCtx(ctx, alg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: want context.Canceled, got %v", alg, err)
		}
		if sol != nil {
			t.Fatalf("%v: got partial solution on cancellation", alg)
		}
	}
}

// expiringCtx is a deadline that passes while the solver runs: Err
// reports nil for its first call — the upfront check in SolveCtx and
// SolveDeltaCtx — and context.DeadlineExceeded from then on, so the
// first stride poll inside the solver loops observes the expiry. The
// embedded context must be cancellable (non-nil Done), or the solver
// would not poll at all.
type expiringCtx struct {
	context.Context
	polls int
}

func (c *expiringCtx) Err() error {
	c.polls++
	if c.polls == 1 {
		return nil
	}
	return context.DeadlineExceeded
}

// A deadline that expires mid-solve aborts the solve at the next
// stride poll: the solver unwinds, the entry point returns
// (nil, context.DeadlineExceeded), and the System is left intact — it
// still solves to the reference valuation afterwards. mg needs several
// CancelStride windows under every algorithm, so the poll that aborts
// is one inside the solver loops, not the upfront check.
func TestSolveCtxExpiredDeadline(t *testing.T) {
	wl, err := workloads.Get("mg")
	if err != nil {
		t.Fatal(err)
	}
	sys := Generate(labels.Compute(wl.Program()), ContextSensitive)
	ref := sys.Solve(Phased)
	all := make([]MethodID, len(sys.P.Methods))
	for i := range all {
		all[i] = i
	}

	expire := func(t *testing.T, solve func(context.Context) (*Solution, error)) {
		t.Helper()
		live, cancel := context.WithCancel(context.Background())
		defer cancel()
		ctx := &expiringCtx{Context: live}
		sol, err := solve(ctx)
		if !errors.Is(err, context.DeadlineExceeded) || sol != nil {
			t.Fatalf("want (nil, context.DeadlineExceeded), got (%v, %v)", sol, err)
		}
		if ctx.polls < 2 {
			t.Fatalf("context polled %d times: the solve never started", ctx.polls)
		}
	}
	for _, alg := range algorithms {
		t.Run(alg.String(), func(t *testing.T) {
			expire(t, func(ctx context.Context) (*Solution, error) { return sys.SolveCtx(ctx, alg) })
			if !sys.Solve(alg).ValuationEqual(ref) {
				t.Fatal("solve after a mid-solve abort differs from the reference")
			}
		})
	}
	t.Run("delta", func(t *testing.T) {
		expire(t, func(ctx context.Context) (*Solution, error) {
			sol, _, err := sys.SolveDeltaCtx(ctx, ref, all)
			return sol, err
		})
		if sol, _ := sys.SolveDelta(ref, all); !sol.ValuationEqual(ref) {
			t.Fatal("delta solve after a mid-solve abort differs from the reference")
		}
	})
}

// SolveDeltaCtx: live context matches SolveDelta; cancelled context
// returns the context error.
func TestSolveDeltaCtx(t *testing.T) {
	sys := cancelSystem(t, ContextSensitive)
	prev := sys.Solve(Phased)

	got, info, err := sys.SolveDeltaCtx(context.Background(), prev, []MethodID{0})
	if err != nil {
		t.Fatal(err)
	}
	want, winfo := sys.SolveDelta(prev, []MethodID{0})
	if !got.MainM().Equal(want.MainM()) || info.MethodsResolved != winfo.MethodsResolved {
		t.Fatal("SolveDeltaCtx diverges from SolveDelta")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, _, err := sys.SolveDeltaCtx(ctx, prev, []MethodID{0})
	if !errors.Is(err, context.Canceled) || sol != nil {
		t.Fatalf("want (nil, context.Canceled), got (%v, %v)", sol, err)
	}
}
