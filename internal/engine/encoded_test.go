package engine

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"fx10/internal/constraints"
	"fx10/internal/fixtures"
	"fx10/internal/parser"
	"fx10/internal/progen"
)

// countingEncoder returns an encoder that counts its calls and renders
// n bytes.
func countingEncoder(calls *atomic.Int32, n int) func(*Result) []byte {
	return func(*Result) []byte {
		calls.Add(1)
		return bytes.Repeat([]byte{'r'}, n)
	}
}

// TestEncodedOncePerProgram: concurrent cache hits on one entry run the
// encoder once and all get the same bytes, which the stored result,
// Cached and every hit copy share; the fill is charged to the entry.
func TestEncodedOncePerProgram(t *testing.T) {
	eng := MustNew(Config{CacheSize: 8})
	p := parser.MustParse(fixtures.Example22Source)
	stored, err := eng.Analyze(Job{Program: p})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	encode := countingEncoder(&calls, 100)

	got := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := eng.Analyze(Job{Program: parser.MustParse(fixtures.Example22Source)})
			if err != nil || !res.Stats.CacheHit {
				t.Errorf("hit %d: err %v, cache hit %v", i, err, err == nil && res.Stats.CacheHit)
				return
			}
			got[i] = eng.Encoded(res, encode)
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("8 hits ran the encoder %d times, want 1", n)
	}
	cached, _ := eng.Cached(p.Hash(), constraints.ContextSensitive)
	for _, b := range append(got, eng.Encoded(stored, encode), eng.Encoded(cached, encode)) {
		if len(b) != 100 || &b[0] != &got[0][0] {
			t.Fatal("a hit, the stored result or Cached got bytes other than the one encoding")
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("encoder ran %d times, want 1", n)
	}
	if want := stored.retainedBytes() + 100; eng.cache.bytes != want {
		t.Errorf("cache holds %d bytes, want the entry's %d plus its report", eng.cache.bytes, want)
	}
}

// TestEncodedChargeEvicts: filling a slot that takes the cache over its
// byte bound evicts the least recently used entry.
func TestEncodedChargeEvicts(t *testing.T) {
	eng := MustNew(Config{CacheSize: 8})
	older, newer := progen.Generate(1, progen.Finite()), progen.Generate(2, progen.Finite())
	if _, err := eng.Analyze(Job{Program: older}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Analyze(Job{Program: newer})
	if err != nil {
		t.Fatal(err)
	}
	eng.cache.maxBytes = eng.cache.bytes + 10
	var calls atomic.Int32
	eng.Encoded(res, countingEncoder(&calls, 11))
	if _, ok := eng.Cached(older.Hash(), constraints.ContextSensitive); ok {
		t.Error("the least recently used entry survived a fill over the byte bound")
	}
	if _, ok := eng.Cached(newer.Hash(), constraints.ContextSensitive); !ok {
		t.Error("the filled entry was evicted instead of the least recently used one")
	}
	if want := res.retainedBytes() + 11; eng.cache.bytes != want {
		t.Errorf("cache holds %d bytes, want %d", eng.cache.bytes, want)
	}
}

// TestEncodedChargesOnlyItsEntry: a fill for a result whose entry was
// evicted, or whose key holds another result (a concurrent solve of
// the same program lost the put), encodes but charges nothing.
func TestEncodedChargesOnlyItsEntry(t *testing.T) {
	eng := MustNew(Config{CacheSize: 1})
	a, b := progen.Generate(1, progen.Finite()), progen.Generate(2, progen.Finite())
	evicted, err := eng.Analyze(Job{Program: a})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Analyze(Job{Program: b}); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	encode := countingEncoder(&calls, 1000)
	charged := func(res *Result) int {
		before := eng.cache.bytes
		if n := len(eng.Encoded(res, encode)); n != 1000 {
			t.Fatalf("Encoded returned %d bytes, want 1000", n)
		}
		return eng.cache.bytes - before
	}
	if n := charged(evicted); n != 0 {
		t.Errorf("a fill for an evicted entry charged %d bytes", n)
	}

	stored, err := eng.Analyze(Job{Program: a})
	if err != nil {
		t.Fatal(err)
	}
	lost, err := MustNew(Config{CacheSize: -1}).Analyze(Job{Program: a})
	if err != nil {
		t.Fatal(err)
	}
	eng.cache.put(cacheKey{a.Hash(), constraints.ContextSensitive}, lost)
	if n := charged(lost); n != 0 {
		t.Errorf("a fill for a result the cache does not hold charged %d bytes", n)
	}
	if n := charged(stored); n != 1000 {
		t.Errorf("a fill for the stored result charged %d bytes, want 1000", n)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("encoder ran %d times for three distinct results, want 3", n)
	}
}

// TestEncodedWithoutSlot: a Result the pipeline did not build has no
// slot, so every call encodes afresh and nothing is charged.
func TestEncodedWithoutSlot(t *testing.T) {
	eng := MustNew(Config{CacheSize: 8})
	res, err := eng.Analyze(Job{Program: fixtures.Example21()})
	if err != nil {
		t.Fatal(err)
	}
	bare := &Result{Program: res.Program, Sys: res.Sys, Sol: res.Sol, M: res.M}
	before := eng.cache.bytes
	for i := 0; i < 2; i++ {
		if got := eng.Encoded(bare, func(*Result) []byte { return []byte(fmt.Sprint(i)) }); string(got) != fmt.Sprint(i) {
			t.Errorf("call %d served %q from a slot", i, got)
		}
	}
	if eng.cache.bytes != before {
		t.Error("a slotless result charged the cache")
	}
}

// TestEncodedAfterPanic: an encoder that panics while filling the slot
// leaves it empty, so later calls encode again instead of serving
// nothing.
func TestEncodedAfterPanic(t *testing.T) {
	eng := MustNew(Config{CacheSize: 8})
	res, err := eng.Analyze(Job{Program: fixtures.Example21()})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the encoder's panic did not reach the caller")
			}
		}()
		eng.Encoded(res, func(*Result) []byte { panic("broken encoder") })
	}()
	if got := eng.Encoded(res, func(*Result) []byte { return []byte("ok") }); string(got) != "ok" {
		t.Errorf("after a panicked fill Encoded served %q, want a fresh encoding", got)
	}
}
