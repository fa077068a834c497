package engine

import (
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/progen"
	"fx10/internal/syntax"
)

// deltaStrategies are the built-in strategies every incremental result
// is checked under.
var deltaStrategies = []string{"phased", "topo"}

// TestAnalyzeDeltaEquivalenceCorpus is the acceptance sweep for the
// incremental pipeline: 200 seeded (program, single-method edit)
// pairs, each analyzed under both strategies, with AnalyzeDelta
// required to match a from-scratch analysis bit for bit — valuation,
// M, and Env. Context-sensitive throughout (the summary-bearing mode);
// TestAnalyzeDeltaContextInsensitive covers CI.
func TestAnalyzeDeltaEquivalenceCorpus(t *testing.T) {
	pairs := 0
	for seed := int64(0); seed < 50; seed++ {
		cfg := progen.Default()
		if seed%2 == 1 {
			cfg = progen.Finite()
		}
		p := progen.Generate(seed, cfg)
		for k := 0; k < 4; k++ {
			mi := (int(seed) + k) % len(p.Methods)
			edited := progen.MutateMethod(p, mi, seed*4+int64(k))
			pairs++
			for _, strat := range deltaStrategies {
				e := MustNew(Config{Strategy: strat, CacheSize: -1})
				base, err := e.Analyze(Job{Program: p, Mode: constraints.ContextSensitive})
				if err != nil {
					t.Fatal(err)
				}
				delta, err := e.AnalyzeDelta(base, edited)
				if err != nil {
					t.Fatalf("seed %d edit %d (%s): %v", seed, k, strat, err)
				}
				scratch, err := e.Analyze(Job{Program: edited, Mode: constraints.ContextSensitive})
				if err != nil {
					t.Fatal(err)
				}
				if !delta.Sol.ValuationEqual(scratch.Sol) {
					t.Fatalf("seed %d edit %d (%s): delta valuation differs from scratch\n%s",
						seed, k, strat, syntax.Print(edited))
				}
				if !delta.M.Equal(scratch.M) {
					t.Fatalf("seed %d edit %d (%s): delta M differs from scratch", seed, k, strat)
				}
				if !delta.Sol.Env().Equal(scratch.Sol.Env()) {
					t.Fatalf("seed %d edit %d (%s): delta Env differs from scratch", seed, k, strat)
				}
				ds := delta.Stats.Delta
				if ds == nil {
					t.Fatalf("seed %d edit %d (%s): no DeltaStats", seed, k, strat)
				}
				if ds.MethodsTotal != len(edited.Methods) ||
					ds.MethodsReused+ds.MethodsResolved != ds.MethodsTotal {
					t.Fatalf("seed %d edit %d (%s): inconsistent DeltaStats %+v", seed, k, strat, *ds)
				}
				if !ds.Full && len(ds.DirtyMethods) == 0 {
					t.Fatalf("seed %d edit %d (%s): edit produced no dirty methods", seed, k, strat)
				}
			}
		}
	}
	if pairs != 200 {
		t.Fatalf("swept %d (program, edit) pairs, want 200", pairs)
	}
}

// TestAnalyzeDeltaContextInsensitive covers the CI closure rule
// (weak components over the union of old and new call graphs).
func TestAnalyzeDeltaContextInsensitive(t *testing.T) {
	e := MustNew(Config{CacheSize: -1})
	for seed := int64(0); seed < 25; seed++ {
		p := progen.Generate(seed, progen.Default())
		base, err := e.Analyze(Job{Program: p, Mode: constraints.ContextInsensitive})
		if err != nil {
			t.Fatal(err)
		}
		for mi := range p.Methods {
			edited := progen.MutateMethod(p, mi, seed*17+int64(mi))
			delta, err := e.AnalyzeDelta(base, edited)
			if err != nil {
				t.Fatal(err)
			}
			scratch, err := e.Analyze(Job{Program: edited, Mode: constraints.ContextInsensitive})
			if err != nil {
				t.Fatal(err)
			}
			if !delta.Sol.ValuationEqual(scratch.Sol) || !delta.M.Equal(scratch.M) {
				t.Fatalf("seed %d method %d: CI delta differs from scratch\n%s",
					seed, mi, syntax.Print(edited))
			}
		}
	}
}

// TestAnalyzeDeltaReusesMethods: on a fan-out program, editing one
// leaf must leave the sibling methods seeded, not re-solved.
func TestAnalyzeDeltaReusesMethods(t *testing.T) {
	build := func(extra bool) *syntax.Program {
		b := syntax.NewBuilder(4)
		b.MustAddMethod("left", b.Stmts(b.Async("", b.Stmts(b.Skip("")))))
		instrs := []syntax.Instr{b.Async("", b.Stmts(b.Skip("")))}
		if extra {
			instrs = append(instrs, b.Skip(""))
		}
		b.MustAddMethod("right", b.Stmts(instrs...))
		b.MustAddMethod("main", b.Stmts(
			b.Finish("", b.Stmts(b.Call("", "left"), b.Call("", "right"))),
		))
		return b.MustProgram()
	}
	e := MustNew(Config{CacheSize: -1})
	base, err := e.Analyze(Job{Program: build(false), Mode: constraints.ContextSensitive})
	if err != nil {
		t.Fatal(err)
	}
	delta, err := e.AnalyzeDelta(base, build(true))
	if err != nil {
		t.Fatal(err)
	}
	ds := delta.Stats.Delta
	if ds.Full {
		t.Fatal("delta fell back to full solve")
	}
	if ds.MethodsReused == 0 {
		t.Fatalf("no methods reused: %+v", *ds)
	}
	// The content hash covers a method's whole call-graph subtree, so
	// the edit dirties "right" and its caller "main" — but never the
	// untouched sibling "left".
	dirty := map[string]bool{}
	for _, name := range ds.DirtyMethods {
		dirty[name] = true
	}
	if !dirty["right"] || dirty["left"] {
		t.Fatalf("dirty methods = %v, want right (and possibly main) but never left", ds.DirtyMethods)
	}
}

// TestAnalyzeDeltaCacheHit: when the edited program is already in the
// program cache, AnalyzeDelta serves it with zero re-solving.
func TestAnalyzeDeltaCacheHit(t *testing.T) {
	e := MustNew(Config{CacheSize: 8})
	p := progen.Generate(1, progen.Default())
	edited := progen.AppendSkip(p, 0)
	base, err := e.Analyze(Job{Program: p, Mode: constraints.ContextSensitive})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Analyze(Job{Program: edited, Mode: constraints.ContextSensitive}); err != nil {
		t.Fatal(err)
	}
	delta, err := e.AnalyzeDelta(base, edited)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Stats.CacheHit {
		t.Fatal("expected a program-cache hit")
	}
	ds := delta.Stats.Delta
	if ds == nil || ds.MethodsReused != ds.MethodsTotal || ds.MethodsResolved != 0 {
		t.Fatalf("cache-hit DeltaStats = %+v, want everything reused", ds)
	}
}

// TestCacheHitCarriesNoDeltaStats: a cache hit re-solved nothing, so
// Analyze served from an entry a delta populated carries no
// DeltaStats, and AnalyzeDelta served from it reports every method
// reused. Neither hit writes to the stored entry.
func TestCacheHitCarriesNoDeltaStats(t *testing.T) {
	e := MustNew(Config{CacheSize: 8})
	p := progen.Generate(1, progen.Default())
	edited := progen.AppendSkip(p, 0)
	base, err := e.Analyze(Job{Program: p})
	if err != nil {
		t.Fatal(err)
	}
	delta, err := e.AnalyzeDelta(base, edited)
	if err != nil || delta.Stats.CacheHit || delta.Stats.Delta == nil {
		t.Fatalf("delta solve: err %v, stats %+v; want a miss with delta stats", err, delta.Stats)
	}
	hit, err := e.Analyze(Job{Program: edited})
	if err != nil || !hit.Stats.CacheHit || hit.Stats.Delta != nil {
		t.Fatalf("Analyze of the delta's program: err %v, hit %v, delta stats %+v; want a hit with none",
			err, hit.Stats.CacheHit, hit.Stats.Delta)
	}
	again, err := e.AnalyzeDelta(base, edited)
	if err != nil || !again.Stats.CacheHit {
		t.Fatalf("repeated delta: err %v; want a cache hit", err)
	}
	if ds := again.Stats.Delta; ds == nil || ds.MethodsTotal != len(edited.Methods) ||
		ds.MethodsReused != ds.MethodsTotal || ds.MethodsResolved != 0 {
		t.Fatalf("repeated delta's stats = %+v, want every method reused", ds)
	}
	stored, _ := e.Cached(edited.Hash(), constraints.ContextSensitive)
	if stored != delta || stored.Stats.CacheHit || stored.Stats.Delta != delta.Stats.Delta {
		t.Fatal("a cache hit wrote to the stored entry")
	}
}

// TestAnalyzeDeltaErrors: incomplete bases are rejected.
func TestAnalyzeDeltaErrors(t *testing.T) {
	e := MustNew(Config{CacheSize: -1})
	p := progen.Generate(2, progen.Default())
	if _, err := e.AnalyzeDelta(nil, p); err == nil {
		t.Error("nil base accepted")
	}
	base, err := e.Analyze(Job{Program: p, Mode: constraints.ContextSensitive})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AnalyzeDelta(base, nil); err == nil {
		t.Error("nil edited program accepted")
	}
}
