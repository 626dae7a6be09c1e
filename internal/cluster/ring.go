// Package cluster scales the single-node serving layer horizontally: a
// consistent-hash ring assigns every request to an owning replica, and a
// health-aware router forwards batches with per-node circuit breakers
// and failover to ring successors. The exactly-once guarantees of
// one longtaild (journaled accepts, retransmit dedup by X-Request-Id)
// compose across the cluster because failover retries carry the same
// request ID the original attempt did: whichever replica accepted the
// batch answers the retry byte-identically from its ledger.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is how many ring positions each replica occupies
// when Options.VirtualNodes is zero. The serving engine's shard affinity
// uses a plain FNV mod over a fixed shard count; the ring generalizes
// that to a dynamic member set, and virtual nodes keep the key space
// balanced when membership is small or changes.
const DefaultVirtualNodes = 64

// Ring is an immutable consistent-hash ring over replica addresses.
// Mutation is copy-on-write: membership changes build a new Ring and
// swap it in atomically, so readers never lock.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // distinct member addresses, sorted
}

type ringPoint struct {
	hash uint64
	addr string
}

// NewRing builds a ring with vnodes virtual points per address (0
// selects DefaultVirtualNodes). An empty address set is valid and yields
// a ring that owns nothing.
func NewRing(addrs []string, vnodes int) (*Ring, error) {
	if vnodes == 0 {
		vnodes = DefaultVirtualNodes
	}
	if vnodes < 1 {
		return nil, fmt.Errorf("cluster: vnodes %d must be >= 1", vnodes)
	}
	seen := make(map[string]bool, len(addrs))
	nodes := make([]string, 0, len(addrs))
	for _, a := range addrs {
		if a == "" {
			return nil, fmt.Errorf("cluster: empty replica address")
		}
		if seen[a] {
			return nil, fmt.Errorf("cluster: duplicate replica address %q", a)
		}
		seen[a] = true
		nodes = append(nodes, a)
	}
	sort.Strings(nodes)
	r := &Ring{nodes: nodes}
	r.points = make([]ringPoint, 0, len(nodes)*vnodes)
	for _, a := range nodes {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hashKey(fmt.Sprintf("%s#%d", a, i)), addr: a})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].addr < r.points[j].addr
	})
	return r, nil
}

// hashKey is FNV-1a 64 — the same family the engine's shard affinity
// uses — finished with a 64-bit avalanche mix. The mix matters: ring
// point labels differ only in a short numeric suffix, and raw FNV-1a
// leaves enough correlation between such near-identical inputs to skew
// key ownership badly (one of three replicas owning <10% of the space).
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the murmur3 fmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Len returns the number of distinct members.
func (r *Ring) Len() int { return len(r.nodes) }

// Owner returns the replica owning key: the first ring point at or after
// the key's hash, wrapping around. Empty string on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(hashKey(key))].addr
}

// Successors returns every distinct member in ring order starting from
// the owner of key — the failover candidate sequence. All callers see
// the same order for the same key, so retries converge on the same
// fallback replica and its ledger.
func (r *Ring) Successors(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	start := r.search(hashKey(key))
	out := make([]string, 0, len(r.nodes))
	seen := make(map[string]bool, len(r.nodes))
	for i := 0; i < len(r.points) && len(out) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.addr] {
			seen[p.addr] = true
			out = append(out, p.addr)
		}
	}
	return out
}

// search returns the index of the first point with hash >= h, wrapping
// to 0 past the end.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
