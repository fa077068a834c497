package engine

import (
	"context"
	"errors"
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/fixtures"
	"fx10/internal/syntax"
	"fx10/internal/workloads"
)

// AnalyzeCtx with a live context must match Analyze exactly and
// populate the cache as usual.
func TestAnalyzeCtxMatchesAnalyze(t *testing.T) {
	eng := MustNew(Config{})
	p := fixtures.Example21()
	want, err := eng.Analyze(Job{Name: "ex21", Program: p})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.AnalyzeCtx(context.Background(), Job{Name: "ex21", Program: p})
	if err != nil {
		t.Fatal(err)
	}
	if !got.M.Equal(want.M) {
		t.Fatal("AnalyzeCtx diverges from Analyze")
	}
	if !got.Stats.CacheHit {
		t.Fatal("second identical request missed the cache")
	}
}

// A cancelled context aborts the solve, returns the context error,
// and leaves the cache unpoisoned: the same program analyzed again
// with a live context must still miss (nothing partial was stored)
// and then succeed with the correct result.
func TestAnalyzeCtxCancelDoesNotPoisonCache(t *testing.T) {
	eng := MustNew(Config{})
	mg, err := workloads.Get("mg")
	if err != nil {
		t.Fatal(err)
	}
	p := mg.Program()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.AnalyzeCtx(ctx, Job{Name: "mg", Program: p}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if hits := eng.CacheStats().Hits; hits != 0 {
		t.Fatalf("cache hits after cancelled miss: %d", hits)
	}

	res, err := eng.AnalyzeCtx(context.Background(), Job{Name: "mg", Program: p})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHit {
		t.Fatal("cancelled request left a cache entry behind")
	}
	direct := constraints.Generate(res.Info, constraints.ContextSensitive).Solve(constraints.Phased)
	if !res.M.Equal(direct.MainM()) {
		t.Fatal("post-cancellation result differs from a direct solve")
	}
}

// AnalyzeDeltaCtx honours cancellation without touching the base
// result or the cache.
func TestAnalyzeDeltaCtxCancel(t *testing.T) {
	eng := MustNew(Config{})
	base, err := eng.Analyze(Job{Name: "ex22", Program: fixtures.Example22()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.AnalyzeDeltaCtx(ctx, base, fixtures.Example21()); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The base must still serve a correct delta afterwards.
	res, err := eng.AnalyzeDeltaCtx(context.Background(), base, fixtures.Example21())
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := eng.Analyze(Job{Program: fixtures.Example21()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.M.Equal(scratch.M) {
		t.Fatal("delta after cancellation diverges from scratch")
	}
}

// TestAnalysisPanicsAreErrors: a panic in the pipeline (here a call
// to a method past the method table) comes back from Analyze and from
// AnalyzeDelta as an *AnalysisError. The cache is off: the broken
// program prints, and so hashes, like the one it was made from.
func TestAnalysisPanicsAreErrors(t *testing.T) {
	eng := MustNew(Config{CacheSize: -1})
	base, err := eng.Analyze(Job{Program: fixtures.Example22()})
	if err != nil {
		t.Fatal(err)
	}
	broken := fixtures.Example22()
	broken.EachInstr(func(_ int, i syntax.Instr) {
		if c, ok := i.(*syntax.Call); ok {
			c.Method = 999
		}
	})
	var ae *AnalysisError
	if _, err := eng.Analyze(Job{Name: "broken", Program: broken}); !errors.As(err, &ae) {
		t.Errorf("Analyze: err = %v, want an *AnalysisError", err)
	}
	if _, err := eng.AnalyzeDelta(base, broken); !errors.As(err, &ae) {
		t.Errorf("AnalyzeDelta: err = %v, want an *AnalysisError", err)
	}
}
