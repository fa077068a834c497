package engine

import (
	"context"
	"fmt"
	"sort"
	"time"

	"fx10/internal/constraints"
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
// It is Analyze's pipeline with the delta solve step, so the program
// cache participates: a cache hit for the edited program is served
// directly (everything reused), and a delta-solved result populates
// the cache for future requests.
func (e *Engine) AnalyzeDelta(base *Result, edited *syntax.Program) (*Result, error) {
	return e.AnalyzeDeltaCtx(context.Background(), base, edited)
}

// AnalyzeDeltaCtx is AnalyzeDelta with cooperative cancellation, under
// AnalyzeCtx's contract: cancellation caches nothing and returns ctx's
// error, and a panic in the pipeline comes back as an *AnalysisError.
func (e *Engine) AnalyzeDeltaCtx(ctx context.Context, base *Result, edited *syntax.Program) (res *Result, err error) {
	defer contain("<delta>", &res, &err)
	if base == nil || base.Sys == nil || base.Sol == nil || base.Program == nil {
		return nil, fmt.Errorf("engine: AnalyzeDelta needs a complete base result")
	}
	if edited == nil {
		return nil, fmt.Errorf("engine: AnalyzeDelta needs an edited program")
	}
	res, err = e.pipeline(ctx, time.Now(), edited, base.Sys.Mode, func(ctx context.Context, sys *constraints.System) (*constraints.Solution, *DeltaStats, error) {
		dirty, dirtyNames := dirtyMethods(base.Program, edited)
		sol, info, err := sys.SolveDeltaCtx(ctx, base.Sol, dirty)
		if err != nil {
			return nil, nil, err
		}
		return sol, &DeltaStats{DeltaInfo: info, MethodsTotal: len(edited.Methods), DirtyMethods: dirtyNames}, nil
	})
	if err == nil && res.Stats.CacheHit {
		n := len(edited.Methods)
		res.Stats.Delta = &DeltaStats{DeltaInfo: constraints.DeltaInfo{MethodsReused: n}, MethodsTotal: n}
	}
	return res, err
}

// dirtyMethods diffs method content hashes against the base, by name,
// returning the dirty methods' indices and their sorted names. The
// hash covers a method's whole call-graph subtree, so transitive
// callers of an edited method are dirty here already; SolveDelta
// recomputes the closure anyway for callers that present it with
// body-only dirt.
func dirtyMethods(base, edited *syntax.Program) ([]constraints.MethodID, []string) {
	baseHash := make(map[string]syntax.ProgramHash, len(base.Methods))
	for mi, m := range base.Methods {
		baseHash[m.Name] = base.MethodHash(mi)
	}
	var dirty []constraints.MethodID
	var names []string
	for mi, m := range edited.Methods {
		if h, ok := baseHash[m.Name]; !ok || h != edited.MethodHash(mi) {
			dirty = append(dirty, mi)
			names = append(names, m.Name)
		}
	}
	sort.Strings(names)
	return dirty, names
}
