package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"fx10/internal/constraints"
)

// Strategy is one way of computing the least solution of a generated
// constraint system. Theorems 5–6 guarantee every strategy reaches
// the same solution; strategies differ only in how they iterate (and
// therefore in time, space and the metrics they report). Strategies
// must be safe for concurrent use: the engine calls Solve from many
// worker goroutines.
type Strategy interface {
	// Name is the registry key ("topo", "phased").
	Name() string
	// Solve computes the least solution of sys, aborting with
	// ctx.Err() if ctx is cancelled mid-solve. A partial solution is
	// never returned.
	Solve(ctx context.Context, sys *constraints.System) (*constraints.Solution, error)
}

// DefaultStrategy is the strategy an Engine uses when its Config
// names none: SCC-condensed topological solving, the fastest of the
// built-ins on the committed benchmarks (BENCH_solver.json). "phased",
// the paper's three-phase solver (Section 5.3), is the reference the
// tests and figures compare against.
const DefaultStrategy = "topo"

// algorithm adapts a constraints.Algorithm to the Strategy interface;
// the built-in strategies are its values, named by the algorithm.
type algorithm constraints.Algorithm

func (a algorithm) Name() string { return constraints.Algorithm(a).String() }

func (a algorithm) Solve(ctx context.Context, sys *constraints.System) (*constraints.Solution, error) {
	return sys.SolveCtx(ctx, constraints.Algorithm(a))
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Strategy{}
)

func init() {
	for _, a := range []constraints.Algorithm{constraints.Phased, constraints.Topo} {
		MustRegister(algorithm(a))
	}
}

// Register adds a strategy to the registry. It fails on an empty name
// or a name already taken: a name is a strategy's identity (Stats and
// every front end report it), so silent replacement would change what
// a name means.
func Register(s Strategy) error {
	name := s.Name()
	if name == "" {
		return fmt.Errorf("engine: strategy has empty name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("engine: strategy %q already registered", name)
	}
	registry[name] = s
	return nil
}

// MustRegister is Register, panicking on error — for init-time
// wiring.
func MustRegister(s Strategy) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// UnknownStrategyError is returned by Lookup for an unregistered
// name. It is a distinct type so command-line front ends can map it
// to a usage exit code; Known lists the registered names, sorted.
type UnknownStrategyError struct {
	Name  string
	Known []string
}

func (e *UnknownStrategyError) Error() string {
	return fmt.Sprintf("engine: unknown strategy %q (have %v)", e.Name, e.Known)
}

// Lookup resolves a strategy name; the empty name resolves to
// DefaultStrategy.
func Lookup(name string) (Strategy, error) {
	if name == "" {
		name = DefaultStrategy
	}
	registryMu.RLock()
	defer registryMu.RUnlock()
	s, ok := registry[name]
	if !ok {
		return nil, &UnknownStrategyError{Name: name, Known: strategyNamesLocked()}
	}
	return s, nil
}

// Strategies returns the registered strategy names, sorted.
func Strategies() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return strategyNamesLocked()
}

func strategyNamesLocked() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
