// Package difffuzz is the differential soundness fuzzer: it drives
// randomly generated FX10 programs (internal/progen) through three
// independent implementations of the may-happen-in-parallel question
// and checks that their answers form the lattice the paper's theorems
// promise:
//
//		observed ⊆ exact ⊆ static
//
//	  - observed: label pairs actually seen executing in parallel by the
//	    instrumented goroutine runtime (internal/runtime with
//	    Options.RecordParallel) under randomized schedules — a lower
//	    bound on the exact relation by construction;
//	  - exact: the exhaustive-interleaving relation of internal/explore,
//	    the ground truth MHP(p) of Theorem 2 (budget-bounded, so itself
//	    a lower bound when exploration is incomplete);
//	  - static: the type-inference relation M of the analysis engine,
//	    which Theorems 2–3 prove is a sound over-approximation.
//
// The static relation is computed under every registered solver
// strategy and the results must be bit-identical — the strategies
// implement one specification and any divergence is a solver bug.
//
// The gap static \ exact is the analysis' imprecision; Run reports it
// per program in a Figure-7-style summary table (FormatReport).
//
// On any violation a delta-debugging minimizer (Minimize) shrinks the
// offending program to a minimal reproducer, which WriteFailure
// persists under testdata/fuzz-failures/ for regression replay.
package difffuzz

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"

	"fx10/internal/clocks"
	"fx10/internal/constraints"
	"fx10/internal/engine"
	"fx10/internal/explore"
	"fx10/internal/intset"
	"fx10/internal/parser"
	"fx10/internal/progen"
	"fx10/internal/syntax"

	fxruntime "fx10/internal/runtime"
)

// StaticFunc computes the static MHP relation of p under a named
// solver strategy. The default (EngineStatic) runs the production
// analysis engine; tests substitute deliberately broken
// implementations (UnsoundStatic) to prove the harness catches them.
type StaticFunc func(p *syntax.Program, strategy string) (*intset.PairSet, error)

// EngineStatic returns the production StaticFunc: M from the shared
// engine for the strategy (see analyze).
func EngineStatic() StaticFunc {
	return func(p *syntax.Program, strategy string) (*intset.PairSet, error) {
		res, err := analyze(p, strategy)
		if err != nil {
			return nil, err
		}
		return res.M, nil
	}
}

// engines holds one cache-free engine per strategy, created lazily and
// shared by every oracle. Caching is off: the fuzzer analyzes each
// program once per strategy, and the minimizer must re-analyze every
// shrunk candidate for real.
var (
	enginesMu sync.Mutex
	engines   = map[string]*engine.Engine{}
)

// analyze runs p context-sensitively on the shared engine for
// strategy.
func analyze(p *syntax.Program, strategy string) (*engine.Result, error) {
	enginesMu.Lock()
	e := engines[strategy]
	if e == nil {
		var err error
		e, err = engine.New(engine.Config{Strategy: strategy, CacheSize: -1})
		if err != nil {
			enginesMu.Unlock()
			return nil, err
		}
		engines[strategy] = e
	}
	enginesMu.Unlock()
	return e.Analyze(engine.Job{Name: "difffuzz", Program: p, Mode: constraints.ContextSensitive})
}

// UnsoundStatic wraps base with a deliberate soundness bug: every
// pair involving the lowest label present in the result is dropped.
// The mutation self-test uses it to verify the harness detects the
// resulting exact ⊄ static violation and that the minimizer shrinks
// the witness program.
func UnsoundStatic(base StaticFunc) StaticFunc {
	return func(p *syntax.Program, strategy string) (*intset.PairSet, error) {
		m, err := base(p, strategy)
		if err != nil {
			return nil, err
		}
		drop := -1
		m.Each(func(i, j int) {
			if drop == -1 || i < drop {
				drop = i
			}
			if j < drop {
				drop = j
			}
		})
		if drop == -1 {
			return m, nil
		}
		out := intset.NewPairs(m.Universe())
		m.Each(func(i, j int) {
			if i != drop && j != drop {
				out.Add(i, j)
			}
		})
		return out, nil
	}
}

// Kind classifies a violation.
type Kind string

// The violation kinds, from most to least alarming.
const (
	// KindExactNotStatic: the exhaustive explorer found a pair the
	// static analysis misses — a Theorem 2/3 soundness bug.
	KindExactNotStatic Kind = "exact-not-in-static"
	// KindObservedNotStatic: the real runtime observed a pair the
	// static analysis misses — also a soundness bug, witnessed by an
	// actual execution.
	KindObservedNotStatic Kind = "observed-not-in-static"
	// KindObservedNotExact: the runtime observed a pair the explorer
	// proves impossible — an instrumentation or semantics bug. Only
	// checkable when exploration completed.
	KindObservedNotExact Kind = "observed-not-in-exact"
	// KindStrategyDivergence: two solver strategies disagree.
	KindStrategyDivergence Kind = "strategy-divergence"
	// KindDeltaDivergence: incremental re-analysis (engine.AnalyzeDelta
	// after a single-method mutation) differs from solving the mutated
	// program from scratch — a delta-invalidation bug.
	KindDeltaDivergence Kind = "delta-divergence"
	// KindProgress: the explorer visited a state violating Theorem 1
	// (a well-typed non-√ tree with no enabled step).
	KindProgress Kind = "progress-violation"
	// KindClockDeadlock: the clocked explorer found a deadlocked
	// interleaving. The clocked generator's rules make the corpus
	// deadlock-free by construction, so this is a generator or
	// semantics bug.
	KindClockDeadlock Kind = "clock-deadlock"
	// KindClockError: an interleaving hit a dynamic clock-use error
	// (next on an unregistered activity), which progen and
	// syntax.CheckClockUse rule out statically.
	KindClockError Kind = "clock-use-error"
	// KindError: an analysis or runtime call failed outright
	// (including recovered panics).
	KindError Kind = "error"
)

// Violation is one detected disagreement.
type Violation struct {
	Kind Kind
	// Seed is the progen seed that generated Program.
	Seed int64
	// Detail is a human-readable witness, e.g. the first offending
	// label pair.
	Detail string
	// Program is the generated program that exposed the violation.
	Program *syntax.Program
	// Minimized is the delta-debugged reproducer (nil unless
	// Config.Minimize was set and minimization made progress).
	Minimized *syntax.Program
	// File is where the reproducer was written (empty if no
	// FailureDir was configured).
	File string
}

func (v *Violation) String() string {
	return fmt.Sprintf("[%s] seed=%d: %s", v.Kind, v.Seed, v.Detail)
}

// ProgramStat is the per-program record of one differential check.
type ProgramStat struct {
	BaseSeed int64 // Config.Seeds entry this program came from
	Seed     int64 // derived progen seed
	Instrs   int   // instruction count
	States   int   // states visited by the explorer
	Complete bool  // explorer finished within budget
	Exact    int   // unordered exact pairs
	Static   int   // unordered static pairs
	Observed int   // unordered observed pairs (union over runs)
	// Precision is static − exact in unordered pairs: the analysis'
	// imprecision on this program. Only meaningful when Complete.
	Precision int
}

// Report is the outcome of a fuzzing sweep.
type Report struct {
	Programs   int
	Complete   int // programs whose exploration finished
	Strategies []string
	Stats      []ProgramStat
	Violations []*Violation
}

// Config configures Run. The zero value is filled with usable
// defaults; only Seeds is required.
type Config struct {
	// Seeds are the base seeds; each expands to N derived program
	// seeds.
	Seeds []int64
	// N is the number of programs per base seed (default 100).
	N int
	// Gen shapes the generated programs. The zero value selects
	// progen.Finite() (or progen.ClockedFinite() when Clocked is set),
	// whose programs always terminate and have finite state spaces.
	Gen progen.Config
	// Clocked selects the clocked corpus: the default Gen becomes
	// progen.ClockedFinite(). Independently of this flag, any program
	// that uses clocks is checked against the barrier-aware exact
	// relation (clocks.Explore) and observed pairs come from the
	// clocked reference interpreter — the clock-erased relations are
	// strict supersets and would misreport the analysis' phase pruning
	// as a soundness bug.
	Clocked bool
	// MaxStates bounds the exhaustive exploration per program
	// (default 200_000). Exceeding it is not a violation: the exact
	// relation is then a lower bound and the observed ⊆ exact check
	// is skipped.
	MaxStates int
	// Runs is the number of recorded runtime executions per program
	// (default 3), each under a different schedule perturbation.
	Runs int
	// MaxSteps is the per-execution instruction budget (default
	// 100_000).
	MaxSteps int64
	// Parallel bounds worker concurrency (default GOMAXPROCS).
	Parallel int
	// Strategies are the solver strategies to cross-check (default:
	// all registered, i.e. engine.Strategies()).
	Strategies []string
	// Static computes the static relation (default EngineStatic()).
	Static StaticFunc
	// Frontends enables the cross-front-end oracle: each (unclocked)
	// program is rendered as X10 and as Go source, lowered through
	// both front ends, and the per-strategy MHP reports must be
	// bit-identical; the runtime observer additionally checks
	// observed ⊆ static on the Go-lowered program. See CheckFrontends.
	Frontends bool
	// Incremental enables the incremental oracle: each program is
	// mutated in one seeded-random method and re-analyzed both
	// incrementally (engine.AnalyzeDelta) and from scratch under every
	// strategy and both modes; any valuation difference is a
	// KindDeltaDivergence violation.
	Incremental bool
	// Minimize enables delta-debugging of violating programs.
	Minimize bool
	// MinimizeBudget bounds candidate evaluations per minimization
	// (default 2000).
	MinimizeBudget int
	// FailureDir, when non-empty, receives one .fx10 reproducer file
	// per violation.
	FailureDir string
}

func (cfg Config) withDefaults() Config {
	if cfg.N <= 0 {
		cfg.N = 100
	}
	if (cfg.Gen == progen.Config{}) {
		if cfg.Clocked {
			cfg.Gen = progen.ClockedFinite()
		} else {
			cfg.Gen = progen.Finite()
		}
	}
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = 200_000
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 3
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 100_000
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = runtime.GOMAXPROCS(0)
	}
	if len(cfg.Strategies) == 0 {
		cfg.Strategies = engine.Strategies()
	}
	if cfg.Static == nil {
		cfg.Static = EngineStatic()
	}
	if cfg.MinimizeBudget <= 0 {
		cfg.MinimizeBudget = 2000
	}
	return cfg
}

// Run executes the differential sweep: len(Seeds)×N generated
// programs, each checked on a worker pool. Violations are minimized
// (if configured) and written to FailureDir (if configured) after the
// sweep. The error is non-nil only for harness-level failures (e.g. an
// unwritable FailureDir); detected violations are reported in the
// Report, not as an error.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()

	type job struct {
		base, seed int64
	}
	var jobs []job
	for _, base := range cfg.Seeds {
		rng := rand.New(rand.NewSource(base))
		for i := 0; i < cfg.N; i++ {
			jobs = append(jobs, job{base: base, seed: rng.Int63()})
		}
	}

	type outcome struct {
		stat ProgramStat
		vs   []*Violation
	}
	results := make([]outcome, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Parallel)
	for idx := range jobs {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			j := jobs[idx]
			p := normalize(progen.Generate(j.seed, cfg.Gen))
			stat, vs := checkProgram(cfg, p, j.seed)
			stat.BaseSeed = j.base
			results[idx] = outcome{stat: stat, vs: vs}
		}(idx)
	}
	wg.Wait()

	rep := &Report{Strategies: cfg.Strategies}
	for _, out := range results {
		rep.Programs++
		if out.stat.Complete {
			rep.Complete++
		}
		rep.Stats = append(rep.Stats, out.stat)
		rep.Violations = append(rep.Violations, out.vs...)
	}

	for _, v := range rep.Violations {
		if cfg.Minimize && v.Kind != KindError {
			v.Minimized = Minimize(v.Program, cfg.reproduces(v.Kind, v.Seed), cfg.MinimizeBudget)
		}
		if cfg.FailureDir != "" {
			file, err := WriteFailure(cfg.FailureDir, v)
			if err != nil {
				return rep, err
			}
			v.File = file
		}
	}
	return rep, nil
}

// reproduces builds the minimizer predicate: does this candidate
// program still exhibit a violation of the same kind?
func (cfg Config) reproduces(kind Kind, seed int64) func(*syntax.Program) bool {
	cfg = cfg.withDefaults()
	return func(p *syntax.Program) bool {
		_, vs := checkProgram(cfg, p, seed)
		for _, v := range vs {
			if v.Kind == kind {
				return true
			}
		}
		return false
	}
}

// checkProgram runs the full differential check on one program:
// static under every strategy, exhaustive exploration, recorded
// runtime executions, then the lattice assertions.
func checkProgram(cfg Config, p *syntax.Program, seed int64) (stat ProgramStat, vs []*Violation) {
	stat.Seed = seed
	p.EachInstr(func(int, syntax.Instr) { stat.Instrs++ })
	fail := func(kind Kind, format string, args ...any) {
		vs = append(vs, &Violation{Kind: kind, Seed: seed, Detail: fmt.Sprintf(format, args...), Program: p})
	}
	defer func() {
		if r := recover(); r != nil {
			fail(KindError, "panic during differential check: %v", r)
		}
	}()

	// Static relation under every strategy; all must agree bitwise.
	statics := make([]*intset.PairSet, len(cfg.Strategies))
	for i, s := range cfg.Strategies {
		m, err := cfg.Static(p, s)
		if err != nil {
			fail(KindError, "static analysis (%s): %v", s, err)
			return stat, vs
		}
		statics[i] = m
	}
	static := statics[0]
	for i := 1; i < len(statics); i++ {
		if !statics[i].Equal(static) {
			fail(KindStrategyDivergence, "strategy %q: %d ordered pairs vs %q: %d (first diff %s)",
				cfg.Strategies[i], statics[i].Len(), cfg.Strategies[0], static.Len(),
				firstDiff(statics[i], static))
		}
	}
	stat.Static = static.UnorderedLen()

	// Incremental oracle: a seeded single-method mutation must
	// re-analyze to the same valuation incrementally as from scratch.
	if cfg.Incremental {
		vs = append(vs, checkIncremental(cfg, p, seed)...)
	}

	// Cross-front-end oracle: X10 and Go renderings of the program
	// must analyze bit-identically through their front ends.
	if cfg.Frontends {
		vs = append(vs, CheckFrontends(p, seed, cfg.Strategies)...)
	}

	// Exact relation by exhaustive interleaving search — under the
	// full barrier semantics for clocked programs (the erased relation
	// is a strict superset and would misreport the analysis' phase
	// pruning as a soundness bug).
	clocked := p.UsesClocks()
	var exactM *intset.PairSet
	var complete bool
	if clocked {
		res := clocks.Explore(p, nil, cfg.MaxStates)
		stat.States = res.States
		stat.Complete = res.Complete
		exactM, complete = res.MHP, res.Complete
		// Deadlock states and clock errors are local facts about
		// visited states: real even when exploration is truncated.
		if res.ClockErrors > 0 {
			fail(KindClockError, "%d interleavings hit a dynamic clock-use error among %d states",
				res.ClockErrors, res.States)
		}
		if res.Deadlocks > 0 {
			fail(KindClockDeadlock, "%d deadlocked interleavings among %d states", res.Deadlocks, res.States)
		}
	} else {
		res := explore.MHP(p, nil, cfg.MaxStates)
		stat.States = res.States
		stat.Complete = res.Complete
		exactM, complete = res.MHP, res.Complete
		if res.ProgressViolations > 0 {
			fail(KindProgress, "%d stuck states among %d visited", res.ProgressViolations, res.States)
		}
	}
	stat.Exact = exactM.UnorderedLen()
	// Even a truncated exploration only visits reachable states, so
	// every exact pair must be in the static relation regardless of
	// Complete (Theorem 2's containment direction).
	if !exactM.SubsetOf(static) {
		i, j, _ := firstMissing(exactM, static)
		fail(KindExactNotStatic, "exact pair (%s, %s) missing from static M (exact %d ⊄ static %d unordered pairs)",
			p.LabelName(syntax.Label(i)), p.LabelName(syntax.Label(j)), stat.Exact, stat.Static)
	}
	if complete {
		stat.Precision = stat.Static - stat.Exact
	}

	// Observed relation: union over randomized executions — the
	// clocked reference interpreter for clocked programs, the recorded
	// goroutine runtime (which erases clocks) otherwise. For the
	// goroutine runtime, alternate the goroutine bound to also
	// exercise the inline-degrade path.
	observed := intset.NewPairs(p.NumLabels())
	for run := 0; run < cfg.Runs; run++ {
		if clocked {
			res, err := clocks.Run(p, nil, seed+int64(run)*7919, int(cfg.MaxSteps))
			if err != nil && !errors.Is(err, clocks.ErrFuel) {
				fail(KindError, "clocked interpreter run %d: %v", run, err)
				return stat, vs
			}
			observed.UnionWith(res.Pairs)
			continue
		}
		opts := fxruntime.Options{
			RecordParallel: true,
			Seed:           seed + int64(run)*7919,
			MaxSteps:       cfg.MaxSteps,
		}
		if run%2 == 1 {
			opts.MaxGoroutines = 2
		}
		res, err := fxruntime.Run(p, nil, opts)
		if err != nil && !errors.Is(err, fxruntime.ErrFuelExhausted) {
			fail(KindError, "runtime run %d: %v", run, err)
			return stat, vs
		}
		observed.UnionWith(res.Observed)
	}
	stat.Observed = observed.UnorderedLen()

	if !observed.SubsetOf(static) {
		i, j, _ := firstMissing(observed, static)
		fail(KindObservedNotStatic, "observed pair (%s, %s) missing from static M",
			p.LabelName(syntax.Label(i)), p.LabelName(syntax.Label(j)))
	}
	if complete && !observed.SubsetOf(exactM) {
		i, j, _ := firstMissing(observed, exactM)
		fail(KindObservedNotExact, "observed pair (%s, %s) not in the complete exact relation",
			p.LabelName(syntax.Label(i)), p.LabelName(syntax.Label(j)))
	}
	return stat, vs
}

// checkIncremental is the incremental oracle: mutate one
// seeded-random method of p, then assert for every strategy and both
// analysis modes that engine.AnalyzeDelta over the base result equals
// a from-scratch analysis of the mutant bit for bit. The mutation is
// deterministic in (p, seed), so violations replay through the
// minimizer.
func checkIncremental(cfg Config, p *syntax.Program, seed int64) (vs []*Violation) {
	fail := func(kind Kind, format string, args ...any) {
		vs = append(vs, &Violation{Kind: kind, Seed: seed, Detail: fmt.Sprintf(format, args...), Program: p})
	}
	rng := rand.New(rand.NewSource(seed ^ 0x1e7a))
	mi := rng.Intn(len(p.Methods))
	edited := progen.MutateMethod(p, mi, rng.Int63())
	for _, s := range cfg.Strategies {
		for _, mode := range []constraints.Mode{constraints.ContextSensitive, constraints.ContextInsensitive} {
			// Cache off: the delta and scratch paths must both solve
			// for real.
			e, err := engine.New(engine.Config{Strategy: s, CacheSize: -1})
			if err != nil {
				fail(KindError, "incremental oracle (%s): %v", s, err)
				return vs
			}
			base, err := e.Analyze(engine.Job{Name: "difffuzz-base", Program: p, Mode: mode})
			if err != nil {
				fail(KindError, "incremental oracle base (%s, %v): %v", s, mode, err)
				continue
			}
			delta, err := e.AnalyzeDelta(base, edited)
			if err != nil {
				fail(KindError, "incremental oracle delta (%s, %v): %v", s, mode, err)
				continue
			}
			scratch, err := e.Analyze(engine.Job{Name: "difffuzz-scratch", Program: edited, Mode: mode})
			if err != nil {
				fail(KindError, "incremental oracle scratch (%s, %v): %v", s, mode, err)
				continue
			}
			if !delta.Sol.ValuationEqual(scratch.Sol) || !delta.M.Equal(scratch.M) {
				fail(KindDeltaDivergence,
					"strategy %q, mode %v: delta re-analysis after mutating method %q differs from scratch (first M diff %s)",
					s, mode, p.Methods[mi].Name, firstDiff(delta.M, scratch.M))
			}
		}
	}
	return vs
}

// normalize reprints and reparses p, so its label numbering matches
// what reloading a persisted reproducer produces (parser order:
// container labels before their bodies). Violations detected on a
// normalized program therefore replay identically from a .fx10 file.
func normalize(p *syntax.Program) *syntax.Program {
	q, err := parser.Parse(syntax.Print(p))
	if err != nil {
		return p
	}
	return q
}

// firstMissing returns the first ordered pair of sub not in super.
func firstMissing(sub, super *intset.PairSet) (int, int, bool) {
	fi, fj, found := -1, -1, false
	sub.Each(func(i, j int) {
		if !found && !super.Has(i, j) {
			fi, fj, found = i, j, true
		}
	})
	return fi, fj, found
}

// firstDiff renders the first ordered pair on which a and b disagree.
func firstDiff(a, b *intset.PairSet) string {
	if i, j, ok := firstMissing(a, b); ok {
		return fmt.Sprintf("(%d,%d) only in former", i, j)
	}
	if i, j, ok := firstMissing(b, a); ok {
		return fmt.Sprintf("(%d,%d) only in latter", i, j)
	}
	return "none"
}

// FormatReport renders the sweep in the style of the paper's Figure 7
// table: one row per base seed with aggregate precision statistics,
// then a precision histogram and any violations.
func FormatReport(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "differential fuzz: %d programs, %d explored completely, strategies: %s\n\n",
		r.Programs, r.Complete, strings.Join(r.Strategies, " "))

	type agg struct {
		programs, complete, states      int
		exact, static, observed, precis int
		maxPrecis                       int
	}
	perSeed := map[int64]*agg{}
	var order []int64
	for _, s := range r.Stats {
		a := perSeed[s.BaseSeed]
		if a == nil {
			a = &agg{}
			perSeed[s.BaseSeed] = a
			order = append(order, s.BaseSeed)
		}
		a.programs++
		a.states += s.States
		a.exact += s.Exact
		a.static += s.Static
		a.observed += s.Observed
		if s.Complete {
			a.complete++
			a.precis += s.Precision
			if s.Precision > a.maxPrecis {
				a.maxPrecis = s.Precision
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	fmt.Fprintf(&b, "%10s %6s %9s %9s %8s %8s %9s %10s %8s\n",
		"seed", "progs", "complete", "states", "exact", "static", "observed", "precision", "maxprec")
	for _, seed := range order {
		a := perSeed[seed]
		fmt.Fprintf(&b, "%10d %6d %9d %9d %8d %8d %9d %10d %8d\n",
			seed, a.programs, a.complete, a.states, a.exact, a.static, a.observed, a.precis, a.maxPrecis)
	}

	// Precision histogram over completely explored programs: how far
	// above ground truth the static analysis sits.
	buckets := []struct {
		name   string
		lo, hi int
		count  int
	}{
		{name: "exact (0)", lo: 0, hi: 0},
		{name: "1-2", lo: 1, hi: 2},
		{name: "3-5", lo: 3, hi: 5},
		{name: "6-10", lo: 6, hi: 10},
		{name: ">10", lo: 11, hi: 1 << 30},
	}
	for _, s := range r.Stats {
		if !s.Complete {
			continue
		}
		for i := range buckets {
			if s.Precision >= buckets[i].lo && s.Precision <= buckets[i].hi {
				buckets[i].count++
				break
			}
		}
	}
	b.WriteString("\nprecision (static − exact, unordered pairs) over completely explored programs:\n")
	for _, bk := range buckets {
		fmt.Fprintf(&b, "  %-10s %d\n", bk.name, bk.count)
	}

	if len(r.Violations) == 0 {
		b.WriteString("\nviolations: none — observed ⊆ exact ⊆ static held and all strategies agreed\n")
	} else {
		fmt.Fprintf(&b, "\nviolations: %d\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
			if v.File != "" {
				fmt.Fprintf(&b, "    reproducer: %s\n", v.File)
			}
		}
	}
	return b.String()
}
