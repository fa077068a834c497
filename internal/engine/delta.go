package engine

import (
	"context"
	"fmt"
	"sort"
	"time"

	"fx10/internal/constraints"
	"fx10/internal/labels"
	"fx10/internal/syntax"
)

// AnalyzeDelta analyzes edited incrementally against base, a result
// for a previous version of the program (same mode, same engine
// strategy family of guarantees): methods whose content hash matches
// their same-named method in the base program keep their solved
// values (translated to the edited program's labels), and only the
// dirty closure is re-solved (constraints.SolveDelta). The returned
// Result is bitwise-identical to Analyze(edited) — Theorems 5–6 give
// the least solution's uniqueness, and the engine's equivalence tests
// plus difffuzz's incremental oracle check the implementation — with
// Stats.Delta reporting what was reused.
//
// The program cache still participates: a cache hit for the edited
// program is served directly (everything reused), and a delta-solved
// result populates the cache for future requests.
func (e *Engine) AnalyzeDelta(base *Result, edited *syntax.Program) (*Result, error) {
	return e.AnalyzeDeltaCtx(context.Background(), base, edited)
}

// AnalyzeDeltaCtx is AnalyzeDelta with cooperative cancellation (the
// same contract as AnalyzeCtx: cancellation caches nothing and
// returns ctx's error).
func (e *Engine) AnalyzeDeltaCtx(ctx context.Context, base *Result, edited *syntax.Program) (*Result, error) {
	if base == nil || base.Sys == nil || base.Sol == nil || base.Program == nil {
		return nil, fmt.Errorf("engine: AnalyzeDelta needs a complete base result")
	}
	if edited == nil {
		return nil, fmt.Errorf("engine: AnalyzeDelta needs an edited program")
	}
	mode := base.Sys.Mode
	start := time.Now()

	var key cacheKey
	if e.cache != nil {
		key = keyFor(edited, mode, e.strategy.Name())
	}
	if c, ok := e.cacheGet(key); ok {
		stats := c.stats
		stats.CacheHit = true
		stats.Delta = &DeltaStats{
			MethodsTotal:  len(edited.Methods),
			MethodsReused: len(edited.Methods),
		}
		t0 := time.Now()
		res := &Result{
			Program: c.core.program,
			Info:    c.core.info,
			Sys:     c.core.sys,
			Sol:     c.core.sol,
			Env:     c.core.sol.Env(),
			M:       c.core.sol.MainM(),
		}
		stats.Report = time.Since(t0)
		stats.Total = time.Since(start)
		res.Stats = stats
		return res, nil
	}

	// Diff method content hashes against the base, by name. The hash
	// covers a method's whole call-graph subtree, so transitive
	// callers of an edited method are dirty here already; SolveDelta
	// recomputes the closure anyway for callers that present it with
	// body-only dirt.
	baseHash := make(map[string]syntax.ProgramHash, len(base.Program.Methods))
	for mi, m := range base.Program.Methods {
		baseHash[m.Name] = base.Program.MethodHash(mi)
	}
	var dirty []constraints.MethodID
	var dirtyNames []string
	for mi, m := range edited.Methods {
		if h, ok := baseHash[m.Name]; !ok || h != edited.MethodHash(mi) {
			dirty = append(dirty, mi)
			dirtyNames = append(dirtyNames, m.Name)
		}
	}
	sort.Strings(dirtyNames)

	stats := Stats{Strategy: e.strategy.Name()}

	t0 := time.Now()
	info := labels.Compute(edited)
	stats.Labels = time.Since(t0)

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	t0 = time.Now()
	sys := constraints.Generate(info, mode)
	stats.Generate = time.Since(t0)

	t0 = time.Now()
	sol, dinfo, err := sys.SolveDeltaCtx(ctx, base.Sol, dirty)
	if err != nil {
		return nil, err
	}
	stats.Solve = time.Since(t0)

	stats.IterSlabels = sol.IterSlabels
	stats.IterL1 = sol.IterL1
	stats.IterL2 = sol.IterL2
	stats.Evaluations = sol.Evaluations
	stats.AllocBytes = sol.AllocBytes
	stats.FootprintBytes = sol.FootprintBytes

	stats.Delta = &DeltaStats{
		MethodsTotal:           len(edited.Methods),
		MethodsReused:          dinfo.MethodsReused,
		MethodsResolved:        dinfo.MethodsResolved,
		DirtyMethods:           dirtyNames,
		ConstraintsReevaluated: dinfo.ConstraintsReevaluated,
		Full:                   dinfo.Full,
	}

	core := pipelineCore{program: edited, info: info, sys: sys, sol: sol}
	// The delta result is bitwise-identical to a from-scratch solve,
	// so it can serve future cache lookups for the edited program.
	e.cachePut(key, cached{core: core, stats: stats})

	t0 = time.Now()
	res := &Result{
		Program: core.program,
		Info:    core.info,
		Sys:     core.sys,
		Sol:     core.sol,
		Env:     core.sol.Env(),
		M:       core.sol.MainM(),
	}
	stats.Report = time.Since(t0)
	stats.Total = time.Since(start)
	res.Stats = stats
	return res, nil
}

// AnalyzeDeltaSafe is AnalyzeDeltaCtx behind a recover barrier,
// converting pipeline panics into *AnalysisError — the delta
// counterpart of AnalyzeSafe.
func (e *Engine) AnalyzeDeltaSafe(ctx context.Context, base *Result, edited *syntax.Program) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &AnalysisError{Name: "<delta>", Value: r}
		}
	}()
	return e.AnalyzeDeltaCtx(ctx, base, edited)
}
