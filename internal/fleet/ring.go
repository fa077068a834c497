// Package fleet turns N fx10d replicas into one analysis service: a
// consistent-hash ring routes each request's content key
// (Program.Hash, mode, language) to a replica, health checks evict
// dead replicas, and failover retries the next ring position. Because
// every replica computes bit-identical reports (the solvers' unique
// least fixpoint), routing is purely a cache-locality optimization:
// ANY replica can serve ANY request correctly, so failover never
// changes a response byte. See DESIGN.md §11 for the routing
// invariants.
//
// No command in this module uses the package: fx10d only serves. It
// remains as the bench/ module's probe of one proxy hop's cost
// (fleet.proxy_p50_us) and goes when that metric does.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is an immutable consistent-hash ring over backend addresses.
// Construction is deterministic in the address strings alone — no
// process state, timestamps or map order — so independently started
// routers (or one restarted) route identically, and adding or
// removing one backend moves only ~1/N of the keyspace.
type Ring struct {
	backends []string
	points   []ringPoint // sorted by hash
	vnodes   int
}

type ringPoint struct {
	hash    uint64
	backend int32 // index into backends
}

// DefaultVnodes is the per-backend virtual-node count: enough for the
// keyspace share of N real backends to concentrate within a few
// percent of 1/N, cheap enough that ring construction is trivial.
const DefaultVnodes = 64

// NewRing builds a ring over the given backends (deduplicated,
// sorted). vnodes ≤ 0 selects DefaultVnodes.
func NewRing(backends []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	seen := map[string]bool{}
	var uniq []string
	for _, b := range backends {
		if b == "" {
			return nil, fmt.Errorf("fleet: empty backend address")
		}
		if !seen[b] {
			seen[b] = true
			uniq = append(uniq, b)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("fleet: no backends")
	}
	sort.Strings(uniq)
	r := &Ring{backends: uniq, vnodes: vnodes}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for bi, b := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hashString(fmt.Sprintf("%s#%d", b, v)),
				backend: int32(bi),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].backend < r.points[j].backend
	})
	return r, nil
}

// Backends returns the ring's backend addresses, sorted.
func (r *Ring) Backends() []string {
	out := make([]string, len(r.backends))
	copy(out, r.backends)
	return out
}

// Lookup returns the backend owning key: the first ring point at or
// clockwise after the key's hash.
func (r *Ring) Lookup(key string) string {
	return r.backends[r.points[r.search(key)].backend]
}

// LookupN returns up to n distinct backends in ring order starting at
// the key's owner — the failover order: if the owner is down, the
// next distinct backend clockwise takes over, exactly as if the owner
// had been removed from the ring.
func (r *Ring) LookupN(key string, n int) []string {
	if n > len(r.backends) {
		n = len(r.backends)
	}
	out := make([]string, 0, n)
	seen := make([]bool, len(r.backends))
	for i, start := 0, r.search(key); len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			out = append(out, r.backends[p.backend])
		}
	}
	return out
}

func (r *Ring) search(key string) int {
	h := hashString(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// hashString is FNV-64a with a splitmix64 avalanche finalizer. Ring
// point labels ("backend#vnode") and route keys are short, similar
// strings; raw FNV leaves their hashes correlated in the high bits,
// which skews arc lengths badly. The finalizer restores a uniform
// spread while keeping the function a pure, stable property of the
// string — the determinism the restart invariant needs.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
