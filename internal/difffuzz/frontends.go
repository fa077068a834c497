package difffuzz

import (
	"bytes"
	"errors"
	"fmt"

	"fx10/internal/condensed"
	"fx10/internal/engine"
	"fx10/internal/frontend"
	"fx10/internal/gofront"
	"fx10/internal/intset"
	"fx10/internal/mhp"
	"fx10/internal/syntax"
	"fx10/internal/x10"

	fxruntime "fx10/internal/runtime"
)

// KindFrontendDivergence: the same condensed unit, rendered as X10
// source and as Go source and pushed through the respective front
// ends, produced different MHP reports — a front-end (or renderer)
// bug: the boundary's contract is that the analysis cannot tell which
// language the program arrived in.
const KindFrontendDivergence Kind = "frontend-divergence"

// CheckFrontends is the cross-front-end oracle: convert a generated
// program to condensed form, render it both as X10-subset source
// (x10.Render) and as restricted-Go source (gofront.Render), build
// both programs with frontend.Program, and assert that every solver
// strategy produces bit-identical report JSON for the two. The
// goroutine runtime observer then executes the Go-lowered program and
// its observed pairs must be contained in the static relation
// (observed ⊆ static on real-Go-derived programs).
//
// Clocked programs are skipped — clock barriers have no rendering in
// the Go subset — as are place-switching asyncs (progen never
// generates places).
func CheckFrontends(p *syntax.Program, seed int64, strategies []string) (vs []*Violation) {
	if len(strategies) == 0 {
		strategies = engine.Strategies()
	}
	fail := func(kind Kind, format string, args ...any) {
		vs = append(vs, &Violation{Kind: kind, Seed: seed, Detail: fmt.Sprintf(format, args...), Program: p})
	}
	defer func() {
		if r := recover(); r != nil {
			fail(KindError, "panic during front-end oracle: %v", r)
		}
	}()

	if p.UsesClocks() {
		return nil
	}
	u, err := condensed.FromProgram(p)
	if err != nil {
		fail(KindError, "condensed.FromProgram: %v", err)
		return vs
	}
	xsrc := x10.Render(u)
	gsrc, err := gofront.Render(u)
	if err != nil {
		fail(KindError, "gofront.Render: %v", err)
		return vs
	}

	xprog, _, err := frontend.Program("x10", "", xsrc)
	if err != nil {
		fail(KindError, "x10 front end rejected its own rendering: %v", err)
		return vs
	}
	gprog, _, err := frontend.Program("go", "", gsrc)
	if err != nil {
		fail(KindError, "go front end rejected its own rendering: %v", err)
		return vs
	}

	var gM *intset.PairSet
	for _, s := range strategies {
		xrep, _, err := frontendReport(xprog, s)
		if err != nil {
			fail(KindError, "front-end oracle x10 analysis (%s): %v", s, err)
			return vs
		}
		grep, m, err := frontendReport(gprog, s)
		if err != nil {
			fail(KindError, "front-end oracle go analysis (%s): %v", s, err)
			return vs
		}
		gM = m
		if !bytes.Equal(xrep, grep) {
			fail(KindFrontendDivergence,
				"strategy %q: x10-rendered report (%d bytes) != go-rendered report (%d bytes), first diff at byte %d",
				s, len(xrep), len(grep), firstByteDiff(xrep, grep))
		}
	}

	// Runtime observer on the Go-lowered program: every pair an actual
	// execution exhibits must be in the static answer.
	observed := intset.NewPairs(gprog.NumLabels())
	for run := 0; run < 2; run++ {
		opts := fxruntime.Options{
			RecordParallel: true,
			Seed:           seed + int64(run)*7919,
			MaxSteps:       100_000,
		}
		res, err := fxruntime.Run(gprog, nil, opts)
		if err != nil && !errors.Is(err, fxruntime.ErrFuelExhausted) {
			fail(KindError, "front-end oracle runtime run %d: %v", run, err)
			return vs
		}
		observed.UnionWith(res.Observed)
	}
	if gM != nil && !observed.SubsetOf(gM) {
		i, j, _ := firstMissing(observed, gM)
		fail(KindObservedNotStatic,
			"go-lowered program: observed pair (%s, %s) missing from static M",
			gprog.LabelName(syntax.Label(i)), gprog.LabelName(syntax.Label(j)))
	}
	return vs
}

// frontendReport returns the report bytes the daemon and
// `fx10 mhp -json` serve for p under strategy, and M.
func frontendReport(p *syntax.Program, strategy string) ([]byte, *intset.PairSet, error) {
	res, err := analyze(p, strategy)
	if err != nil {
		return nil, nil, err
	}
	return mhp.FromEngine(res).ReportJSON(""), res.M, nil
}

func firstByteDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
