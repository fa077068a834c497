package progen

import (
	"fmt"
	"math/rand"

	"fx10/internal/syntax"
)

// HugeConfig shapes the "huge" scale tier: programs of a hundred
// thousand or more labels, built from a deep call tree of structured
// methods rather than the random nesting of Config. Where Generate
// exercises the analysis's breadth (every construct, adversarial
// nesting), GenerateHuge exercises its scale: the constraint graph's
// condensation becomes a wide, deep DAG of independent call
// subtrees, while the finish discipline below keeps pair counts and
// escape sets bounded so solving stays memory-feasible at 100k+
// labels.
type HugeConfig struct {
	// Labels is the target label count. The generated program meets
	// or exceeds it (the per-method shape quantizes the total).
	Labels int
	// Branch is the call-tree fan-out: method i calls methods
	// Branch·i+1 … Branch·i+Branch (heap indexing, so the call graph
	// is a forward-edge tree plus Extra chords — acyclic by
	// construction). Smaller Branch gives deeper chains.
	Branch int
	// Groups is the number of finish{async…} groups per method body;
	// GroupWidth asyncs per group run in parallel, each with
	// GroupBody assignments. The enclosing finish keeps the group's
	// pairs local: pair bags grow linearly in method count, not
	// quadratically in program size.
	Groups, GroupWidth, GroupBody int
	// Escape is the number of asyncs spawned outside any finish —
	// they outlive the method, populating its O set. Callers wrap
	// calls in finish, so escapees stop one level up instead of
	// accumulating along the whole call chain.
	Escape int
	// Extra is the number of additional random forward calls per
	// method, adding DAG chords so the condensation is not a pure
	// tree.
	Extra int
	// ArrayLen is the shared array length (≥ 1).
	ArrayLen int
}

// Huge returns the default huge-tier shape for a target label count.
func Huge(labels int) HugeConfig {
	return HugeConfig{
		Labels: labels,
		Branch: 4, Groups: 2, GroupWidth: 3, GroupBody: 3,
		Escape: 1, Extra: 1, ArrayLen: 8,
	}
}

// GenerateHuge builds a huge-tier program, deterministic in the seed.
func GenerateHuge(seed int64, cfg HugeConfig) *syntax.Program {
	if cfg.ArrayLen < 1 {
		cfg.ArrayLen = 1
	}
	if cfg.Branch < 1 {
		cfg.Branch = 1
	}
	if cfg.Labels < 1 {
		cfg.Labels = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := syntax.NewBuilder(cfg.ArrayLen)
	idx := func() int { return rng.Intn(cfg.ArrayLen) }
	expr := func() syntax.Expr {
		if rng.Intn(2) == 0 {
			return syntax.Const{C: int64(rng.Intn(2))}
		}
		return syntax.Plus{D: idx()}
	}

	// Average labels per method: each group is 1 finish + GroupWidth
	// asyncs of GroupBody assigns each; each escapee is async+assign;
	// amortized over the tree each method has about 1+Extra callees
	// (the tree has k-1 child edges over k methods), each finish+call;
	// plus the trailing assign.
	perMethod := cfg.Groups*(1+cfg.GroupWidth*(1+cfg.GroupBody)) +
		cfg.Escape*2 + (1+cfg.Extra)*2 + 1
	if perMethod < 1 {
		perMethod = 1
	}
	k := (cfg.Labels + perMethod - 1) / perMethod
	if k < 1 {
		k = 1
	}

	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	// Deepest-index first, like Generate: every call targets an
	// already-added method.
	for i := k - 1; i >= 0; i-- {
		var instrs []syntax.Instr
		for g := 0; g < cfg.Groups; g++ {
			asyncs := make([]syntax.Instr, 0, cfg.GroupWidth)
			for a := 0; a < cfg.GroupWidth; a++ {
				body := make([]syntax.Instr, 0, cfg.GroupBody)
				for s := 0; s < cfg.GroupBody; s++ {
					body = append(body, b.Assign("", idx(), expr()))
				}
				asyncs = append(asyncs, b.Async("", b.Stmts(body...)))
			}
			instrs = append(instrs, b.Finish("", b.Stmts(asyncs...)))
		}
		for c := cfg.Branch*i + 1; c <= cfg.Branch*i+cfg.Branch && c < k; c++ {
			instrs = append(instrs, b.Finish("", b.Stmts(b.Call("", names[c]))))
		}
		for e := 0; e < cfg.Extra && i+1 < k; e++ {
			j := i + 1 + rng.Intn(k-i-1)
			instrs = append(instrs, b.Finish("", b.Stmts(b.Call("", names[j]))))
		}
		// Escapees are spawned after the calls: they overlap only the
		// method's trailing statement (plus whatever the caller runs
		// before its bounding finish joins), not the entire callee
		// subtree — keeping the pair count linear in program size
		// while still populating every method's O set.
		for e := 0; e < cfg.Escape; e++ {
			instrs = append(instrs, b.Async("", b.Stmts(b.Assign("", idx(), expr()))))
		}
		instrs = append(instrs, b.Assign("", idx(), expr()))
		b.MustAddMethod(names[i], b.Stmts(instrs...))
	}
	b.MustAddMethod("main", b.Stmts(b.Call("", names[0]), b.Assign("", idx(), expr())))
	return b.MustProgram()
}
