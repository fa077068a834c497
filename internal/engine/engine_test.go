package engine

import (
	"context"
	"strings"
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/fixtures"
	"fx10/internal/parser"
	"fx10/internal/progen"
	"fx10/internal/syntax"
)

// TestRegistryBuiltins pins the registry to the two built-in
// strategies, with topo as the default.
func TestRegistryBuiltins(t *testing.T) {
	if DefaultStrategy != "topo" {
		t.Errorf("DefaultStrategy = %q, want topo", DefaultStrategy)
	}
	if got := strings.Join(Strategies(), " "); got != "phased topo" {
		t.Errorf("Strategies() = [%s], want [phased topo]", got)
	}
	for _, name := range Strategies() {
		s, err := Lookup(name)
		if err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
		} else if s.Name() != name {
			t.Errorf("Lookup(%q) returned strategy %q", name, s.Name())
		}
	}
	if s, err := Lookup(""); err != nil || s.Name() != DefaultStrategy {
		t.Errorf("empty name should resolve to %s: %v, %v", DefaultStrategy, s, err)
	}
	if _, err := Lookup("no-such-solver"); err == nil {
		t.Error("Lookup of unknown strategy succeeded")
	}
	if err := Register(fakeStrategy("phased")); err == nil {
		t.Error("duplicate Register succeeded")
	}
	if err := Register(fakeStrategy("")); err == nil {
		t.Error("empty-name Register succeeded")
	}
}

// fakeStrategy is a test strategy with an arbitrary name that solves
// with the reference algorithm.
type fakeStrategy string

func (f fakeStrategy) Name() string { return string(f) }

func (fakeStrategy) Solve(ctx context.Context, sys *constraints.System) (*constraints.Solution, error) {
	return sys.SolveCtx(ctx, constraints.Phased)
}

// registerForTest registers a test strategy for the duration of t, so
// the registry holds only the built-ins outside such tests.
func registerForTest(t *testing.T, s Strategy) {
	t.Helper()
	MustRegister(s)
	t.Cleanup(func() {
		registryMu.Lock()
		delete(registry, s.Name())
		registryMu.Unlock()
	})
}

func TestNewRejectsUnknownStrategy(t *testing.T) {
	if _, err := New(Config{Strategy: "no-such-solver"}); err == nil {
		t.Fatal("New with unknown strategy succeeded")
	}
}

// TestAnalyzeMatchesDirectPipeline pins the engine to the hand-wired
// chain it replaces.
func TestAnalyzeMatchesDirectPipeline(t *testing.T) {
	p := fixtures.Example21()
	eng := MustNew(Config{})
	res, err := eng.Analyze(Job{Name: "example-2.1", Program: p})
	if err != nil {
		t.Fatal(err)
	}
	direct := constraints.Generate(res.Info, constraints.ContextSensitive).Solve(constraints.Phased)
	if !res.M.Equal(direct.MainM()) {
		t.Error("engine M differs from direct pipeline M")
	}
	if res.Stats.Strategy != "topo" || res.Stats.CacheHit {
		t.Errorf("unexpected stats: %+v", res.Stats)
	}
	if res.Stats.Evaluations == 0 || res.Stats.IterSlabels == 0 {
		t.Errorf("missing solver counters: %+v", res.Stats)
	}
	if res.Stats.PipelineDuration() <= 0 {
		t.Error("no pipeline duration recorded")
	}
}

// TestCacheHitIdenticalResult checks the content-hash cache: a
// second analysis of a content-identical (but distinct) program value
// is served from cache and yields identical results.
func TestCacheHitIdenticalResult(t *testing.T) {
	eng := MustNew(Config{CacheSize: 8})
	p1 := parser.MustParse(fixtures.Example22Source)
	p2 := parser.MustParse(fixtures.Example22Source)

	r1, err := eng.Analyze(Job{Program: p1})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.CacheHit {
		t.Fatal("first analysis reported a cache hit")
	}
	r2, err := eng.Analyze(Job{Program: p2})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Stats.CacheHit {
		t.Fatal("second analysis missed the cache")
	}
	if !r1.Sol.ValuationEqual(r2.Sol) {
		t.Error("cached valuation differs")
	}
	// E(main).M is densified once per solved program and shared
	// read-only: every hit returns the very pair set the populating
	// run built, and the engine extracts no Env.
	if r2.M != r1.M {
		t.Error("cache hit re-extracted M instead of sharing it")
	}
	if !r1.M.Equal(r1.Sol.MainM()) {
		t.Error("shared M differs from the solution's E(main).M")
	}
	if r1.Env != nil || r2.Env != nil {
		t.Error("engine extracted an Env")
	}
	r3, err := eng.Analyze(Job{Program: p1})
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Stats.CacheHit || r3.M != r1.M {
		t.Fatal("third analysis did not share the cached M")
	}
	if cs := eng.CacheStats(); cs.Hits != 2 || cs.Misses != 1 {
		t.Errorf("cache stats = %+v, want 2 hits / 1 miss", cs)
	}
}

// TestCacheKeying: different modes and different strategies must not
// share cache entries.
func TestCacheKeying(t *testing.T) {
	p := fixtures.Example22()
	eng := MustNew(Config{CacheSize: 8})
	cs, err := eng.Analyze(Job{Program: p, Mode: constraints.ContextSensitive})
	if err != nil {
		t.Fatal(err)
	}
	ci, err := eng.Analyze(Job{Program: p, Mode: constraints.ContextInsensitive})
	if err != nil {
		t.Fatal(err)
	}
	if ci.Stats.CacheHit {
		t.Error("context-insensitive analysis served from context-sensitive entry")
	}
	// The Section 2.2 example is precisely the one where the two
	// modes disagree, so a keying bug is observable.
	if cs.M.Equal(ci.M) {
		t.Error("modes produced equal M on the context-sensitivity example; keying test is vacuous")
	}

	ph := MustNew(Config{Strategy: "phased", CacheSize: 8})
	pr, err := ph.Analyze(Job{Program: p})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Stats.CacheHit || pr.Stats.Strategy != "phased" {
		t.Errorf("fresh engine reported stats %+v", pr.Stats)
	}
}

func TestCacheEviction(t *testing.T) {
	eng := MustNew(Config{CacheSize: 2})
	progs := []*syntax.Program{
		progen.Generate(1, progen.Finite()),
		progen.Generate(2, progen.Finite()),
		progen.Generate(3, progen.Finite()),
	}
	for _, p := range progs {
		if _, err := eng.Analyze(Job{Program: p}); err != nil {
			t.Fatal(err)
		}
	}
	if n := eng.cache.len(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	// progs[0] is the evicted one: re-analyzing it must miss.
	if _, err := eng.Analyze(Job{Program: progs[0]}); err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.Hits != 0 {
		t.Errorf("expected no hits after eviction, got %+v", cs)
	}
}

// TestCacheByteBound: a put evicts least recently used entries while
// the cached results retain more than the byte bound, and keeps the
// entry just put even when it alone is over the bound.
func TestCacheByteBound(t *testing.T) {
	res, err := MustNew(Config{CacheSize: -1}).Analyze(Job{Program: progen.Generate(1, progen.Finite())})
	if err != nil {
		t.Fatal(err)
	}
	size := res.retainedBytes()
	if min := res.Stats.FootprintBytes + res.M.MemoryFootprint(); size <= min {
		t.Fatalf("retainedBytes = %d, want more than the solution and M's %d", size, min)
	}
	key := func(b byte) cacheKey { return cacheKey{syntax.ProgramHash{b}, constraints.ContextSensitive} }

	c := newResultCache(8, 2*size)
	for b := byte(1); b <= 3; b++ {
		c.put(key(b), res)
	}
	if _, ok := c.get(key(1)); ok || c.len() != 2 || c.bytes != 2*size {
		t.Errorf("over the byte bound: %d entries, %d bytes, oldest kept %v; want 2, %d, false", c.len(), c.bytes, ok, 2*size)
	}

	c = newResultCache(8, size-1)
	for b := byte(1); b <= 2; b++ {
		c.put(key(b), res)
		if _, ok := c.get(key(b)); !ok || c.len() != 1 {
			t.Errorf("an entry over the bound on its own: kept %v with %d entries, want true with 1", ok, c.len())
		}
	}
}

func TestCacheDisabled(t *testing.T) {
	eng := MustNew(Config{CacheSize: -1})
	p := fixtures.Example21()
	for i := 0; i < 2; i++ {
		r, err := eng.Analyze(Job{Program: p})
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats.CacheHit {
			t.Fatal("cache hit with caching disabled")
		}
	}
	if cs := eng.CacheStats(); cs.Hits != 0 || cs.Misses != 0 {
		t.Errorf("disabled cache recorded traffic: %+v", cs)
	}
	if _, ok := eng.Cached(p.Hash(), constraints.ContextSensitive); ok {
		t.Error("Cached found a program with caching disabled")
	}
}

// TestCachedReadsTheStoredResult: Cached returns the very Result the
// solve stored, untouched by later hits, keyed by mode; it counts
// neither a hit nor a miss, and it refreshes the entry's recency.
func TestCachedReadsTheStoredResult(t *testing.T) {
	eng := MustNew(Config{CacheSize: 2})
	progs := []*syntax.Program{
		progen.Generate(1, progen.Finite()),
		progen.Generate(2, progen.Finite()),
		progen.Generate(3, progen.Finite()),
	}
	first, err := eng.Analyze(Job{Program: progs[0]})
	if err != nil {
		t.Fatal(err)
	}
	hit, err := eng.Analyze(Job{Program: progs[0]})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := eng.Cached(progs[0].Hash(), constraints.ContextSensitive)
	if !ok || got != first {
		t.Fatal("Cached did not return the Result the solve stored")
	}
	if got.Stats.CacheHit || !hit.Stats.CacheHit || hit.M != got.M {
		t.Error("a cache hit wrote to the stored Result instead of a copy")
	}
	if _, ok := eng.Cached(progs[0].Hash(), constraints.ContextInsensitive); ok {
		t.Error("Cached served a context-sensitive entry for a context-insensitive lookup")
	}
	if _, ok := eng.Cached(progs[1].Hash(), constraints.ContextSensitive); ok {
		t.Error("Cached found a program never analyzed")
	}
	if cs := eng.CacheStats(); cs.Hits != 1 || cs.Misses != 1 {
		t.Errorf("cache stats = %+v, want the analyses' 1 hit / 1 miss only", cs)
	}

	// progs[0] is least recently used until Cached touches it; then
	// progs[1] is, and progs[2]'s entry evicts it instead.
	if _, err := eng.Analyze(Job{Program: progs[1]}); err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.Cached(progs[0].Hash(), constraints.ContextSensitive); !ok {
		t.Fatal("progs[0] evicted early")
	}
	if _, err := eng.Analyze(Job{Program: progs[2]}); err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.Cached(progs[0].Hash(), constraints.ContextSensitive); !ok {
		t.Error("Cached did not refresh the entry's recency")
	}
	if _, ok := eng.Cached(progs[1].Hash(), constraints.ContextSensitive); ok {
		t.Error("the least recently used entry survived")
	}
}

// panicStrategy panics on every solve — a stand-in for a malformed
// program tripping an invariant deep in the pipeline.
type panicStrategy struct{}

func (panicStrategy) Name() string { return "test-panic" }
func (panicStrategy) Solve(context.Context, *constraints.System) (*constraints.Solution, error) {
	panic("solver invariant violated")
}

// TestCorpusPanicIsolation: one bad program must not kill the sweep.
func TestCorpusPanicIsolation(t *testing.T) {
	registerForTest(t, panicStrategy{})
	eng := MustNew(Config{Strategy: "test-panic", Workers: 4})
	jobs := []Job{
		{Name: "p1", Program: fixtures.Example21()},
		{Name: "p2", Program: fixtures.Example22()},
	}
	results := eng.AnalyzeCorpus(jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	for i, cr := range results {
		if cr.Err == nil {
			t.Errorf("job %d (%s): expected an error", i, cr.Job.Name)
		}
		if cr.Result != nil {
			t.Errorf("job %d (%s): result alongside error", i, cr.Job.Name)
		}
	}
	if !strings.Contains(results[0].Err.Error(), "panic analyzing p1") {
		t.Errorf("panic error lacks job name: %v", results[0].Err)
	}
}

// TestCorpusParallelMatchesSequential: the pool must be a pure
// scheduling change — same results in the same (input) order.
func TestCorpusParallelMatchesSequential(t *testing.T) {
	var jobs []Job
	for seed := int64(0); seed < 20; seed++ {
		jobs = append(jobs, Job{Program: progen.Generate(seed, progen.Default())})
	}
	seq := MustNew(Config{Workers: 1, CacheSize: -1}).AnalyzeCorpus(jobs)
	par := MustNew(Config{Workers: 8, CacheSize: -1}).AnalyzeCorpus(jobs)
	for i := range jobs {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("job %d failed: seq=%v par=%v", i, seq[i].Err, par[i].Err)
		}
		if !seq[i].Result.M.Equal(par[i].Result.M) {
			t.Errorf("job %d: parallel M differs from sequential", i)
		}
		if !seq[i].Result.Sol.ValuationEqual(par[i].Result.Sol) {
			t.Errorf("job %d: parallel valuation differs from sequential", i)
		}
	}
}

// TestCorpusSharedCache: identical programs in one sweep are served
// from cache after the first solve, and hits equal misses absent.
func TestCorpusSharedCache(t *testing.T) {
	p := progen.Generate(42, progen.Default())
	jobs := make([]Job, 6)
	for i := range jobs {
		// Distinct parses of the same printed program: content-equal,
		// pointer-distinct.
		jobs[i] = Job{Program: parser.MustParse(syntax.Print(p))}
	}
	eng := MustNew(Config{Workers: 1, CacheSize: 8})
	results := eng.AnalyzeCorpus(jobs)
	for i, cr := range results {
		if cr.Err != nil {
			t.Fatalf("job %d: %v", i, cr.Err)
		}
		if !results[0].Result.M.Equal(cr.Result.M) {
			t.Errorf("job %d: cached M differs", i)
		}
		if wantHit := i > 0; cr.Result.Stats.CacheHit != wantHit {
			t.Errorf("job %d: CacheHit = %v, want %v", i, cr.Result.Stats.CacheHit, wantHit)
		}
	}
	if cs := eng.CacheStats(); cs.Hits != 5 || cs.Misses != 1 {
		t.Errorf("cache stats = %+v, want 5 hits / 1 miss", cs)
	}
}
