// Package fx10 is a Go reproduction of "Featherweight X10: A Core
// Calculus for Async-Finish Parallelism" (Lee and Palsberg, PPoPP
// 2010): the FX10 calculus and its small-step operational semantics,
// the may-happen-in-parallel type system and its constraint-based
// type inference (context-sensitive and context-insensitive), a
// goroutine-backed runtime, a language-agnostic front-end layer
// (internal/frontend) over the paper's condensed program form with
// two registered front ends — the X10 subset and real Go
// (internal/gofront: `go` statements lower to async,
// WaitGroup/errgroup join spans to finish, the rest skip-lowered
// conservatively with diagnostics, so `fx10 mhp main.go` analyzes
// ordinary Go), synthetic reconstructions of the paper's 13
// benchmarks, and harnesses regenerating Figures 5–9. The analysis
// runs through a unified engine with two pluggable solver strategies
// — SCC-condensed topological solving (topo, the default) and the
// paper's three-phase algorithm (phased, the reference) — a
// content-hash cache of whole-program results and method-granular
// incremental re-analysis (engine.AnalyzeDelta, which re-solves the
// edit's closure with topo's SCC pass), all differentially
// fuzzed against exact and observed parallelism and scale-tested on
// internal/progen's huge tier of generated programs. The engine also
// serves as a long-lived HTTP/JSON daemon (cmd/fx10d):
// admission-controlled solves, singleflight coalescing, batch corpus
// submission under one admission slot (/v1/batch), editor delta
// sessions, per-request language selection through the front-end
// registry, and live metrics. Front
// ends are held to the analysis's soundness bar by a cross-front-end
// oracle (X10 and Go renderings of the same program must analyze
// bit-identically under every strategy, and runtime-observed pairs
// on lowered Go must be contained in the static relation). The Section 8 clocks
// extension is analyzed, not just executed: per-label phase
// inference (internal/clocks) feeds phase-ordering facts into
// constraint solving, so barrier-separated pairs are pruned
// identically under every solver strategy and the incremental path,
// with soundness fuzzed against an exhaustive barrier-semantics
// explorer and a clocked reference interpreter.
//
// Start at README.md for the tour, DESIGN.md for the system
// inventory, and EXPERIMENTS.md for paper-vs-measured results. The
// implementation lives under internal/; the executables are
// cmd/fx10, cmd/fx10d, cmd/x10c and cmd/mhpbench; runnable examples
// are under examples/.
package fx10
