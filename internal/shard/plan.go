// Package shard implements the place-sharded constraint solver behind
// the engine's "shard" strategy: the constraint system is partitioned
// into method shards (grouped by place when the program is
// place-annotated), shards run pass-based local fixpoints
// concurrently, and a deterministic merge step publishes cross-shard
// values between rounds until the global fixpoint is reached.
//
// The result is bit-identical to every other strategy: the constraints
// define a monotone function on a finite lattice with a unique least
// fixpoint (Theorems 5–6), every union a shard performs is
// constraint-derived from the bottom valuation, and the solve only
// stops when a whole round changes nothing — at which point the
// published snapshots equal the live values and every constraint is
// satisfied. See DESIGN.md §12 for the full soundness argument.
package shard

import (
	"sort"

	"fx10/internal/constraints"
	"fx10/internal/places"
)

// Plan assigns every method of a program to a shard.
type Plan struct {
	// NumShards is the number of shard indices in use (some may own no
	// methods when the weight distribution is extreme).
	NumShards int
	// ShardOf maps a MethodID to its shard.
	ShardOf []int32
}

// PlanSystem partitions sys's methods into at most k shards (k ≤ 0
// means runtime.GOMAXPROCS is chosen by the caller; here it defaults
// to 1). The plan is deterministic in the program alone: methods are
// ordered by primary place (so activities that the Section 8 place
// analysis pins to the same place land in the same shard and their
// dense cross-shard traffic becomes intra-shard) and then cut into
// contiguous runs balanced by constraint-variable weight.
func PlanSystem(sys *constraints.System, k int) Plan {
	nm := len(sys.P.Methods)
	if k > nm {
		k = nm
	}
	if k < 1 {
		k = 1
	}

	w := make([]int, nm)
	total := 0
	for mi := 0; mi < nm; mi++ {
		w[mi] = len(sys.SetVarsOf(mi)) + len(sys.PairVarsOf(mi)) + 1
		total += w[mi]
	}

	order := make([]int, nm)
	for i := range order {
		order[i] = i
	}
	if pi := places.Compute(sys.P); pi.NumPlaces > 1 {
		prim := make([]int, nm)
		for mi := range prim {
			prim[mi] = primaryPlace(pi, mi)
		}
		sort.SliceStable(order, func(a, b int) bool {
			return prim[order[a]] < prim[order[b]]
		})
	}

	shardOf := make([]int32, nm)
	acc, cut := 0, 0
	for _, mi := range order {
		if cut < k-1 && acc >= total*(cut+1)/k {
			cut++
		}
		shardOf[mi] = int32(cut)
		acc += w[mi]
	}
	return Plan{NumShards: cut + 1, ShardOf: shardOf}
}

// primaryPlace is the smallest place a method may run at; methods the
// place fixpoint never reaches (dead code) sort as place 0.
func primaryPlace(pi *places.Info, mi int) int {
	first := 0
	found := false
	pi.MethodPlaces(mi).Each(func(e int) {
		if !found || e < first {
			first, found = e, true
		}
	})
	return first
}
