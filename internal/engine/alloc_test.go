package engine

import (
	"runtime"
	"testing"

	"fx10/internal/progen"
)

// TestCacheAddsNoPerSolveWork pins that the program cache is the
// engine's only side structure: on a 3000-label program, a solve
// through a caching engine allocates at most 10% more than the same
// solve with caching disabled. A tier that processes every method's
// summary after each solve (densifying it into an n×n pair set) costs
// far more than that.
func TestCacheAddsNoPerSolveWork(t *testing.T) {
	alloc := func(cfg Config) uint64 {
		// A fresh program per engine, so neither run inherits the
		// other's memoized hashes.
		p := progen.GenerateHuge(1, progen.Huge(3000))
		e := MustNew(cfg)
		// Two collections empty the pair-set pool (and its victim
		// cache), so both runs start from the same recycled state.
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := e.Analyze(Job{Program: p}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	uncached := alloc(Config{CacheSize: -1})
	cached := alloc(Config{CacheSize: 1})
	t.Logf("allocated: cached %.1f MB, uncached %.1f MB", float64(cached)/1e6, float64(uncached)/1e6)
	if float64(cached) > 1.1*float64(uncached) {
		t.Fatalf("cached solve allocated %d bytes, more than 1.1× the uncached %d", cached, uncached)
	}
}
