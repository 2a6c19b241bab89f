// Package cluster turns N independent specmpkd daemons into one service: a
// coordinator consistent-hashes normalized job keys across the nodes, so
// every submission of a key lands on the owner whose content-addressed
// result store answers it after the first run (cluster-wide single-flight),
// tracks per-peer health off /v1/healthz, hedges requests to the next
// replica when a peer exceeds a latency budget, re-places jobs via
// content-addressed resubmission when a node dies mid-run, and degrades to
// local-only simulation when every peer is down.
//
// The design leans entirely on PR 4's content addressing: a job key names a
// deterministic computation, so any node can run it, any cached copy is
// bit-identical, and every retry/hedge/resubmission is idempotent by
// construction.
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// defaultVNodes is the virtual-node count per physical node. 64 vnodes keep
// the keyspace imbalance across a handful of nodes within a few percent
// while the ring stays small enough to rebuild on every membership change.
const defaultVNodes = 64

// Ring is a consistent-hash ring over node addresses. Hashing is FNV-64a of
// "node#vnodeIndex" through a SplitMix64 finalizer — deliberately
// dependency-free and stable across processes, architectures and Go
// versions, so every node (and every smart client) computes identical
// placement from the same membership list.
// A Ring is immutable after construction; rebuild it to change membership.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash (ties broken by node name)
	nodes  []string    // distinct members, sorted
}

type ringPoint struct {
	hash uint64
	node string
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is SplitMix64's finalizer. FNV-64a alone has weak avalanche on
// short, similar inputs — a node's vnode labels ("n#0".."n#63") hash to
// near-consecutive values, clumping its points into a few runs on the ring
// and skewing ownership badly (one node of four measured at 60% of the
// keyspace). The finalizer scatters them uniformly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewRing builds a ring over the given nodes (duplicates and empties are
// dropped) with the given virtual-node count (<= 0 selects the default).
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	seen := make(map[string]bool, len(nodes))
	var distinct []string
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		distinct = append(distinct, n)
	}
	sort.Strings(distinct)
	r := &Ring{
		vnodes: vnodes,
		nodes:  distinct,
		points: make([]ringPoint, 0, len(distinct)*vnodes),
	}
	for _, n := range distinct {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(n + "#" + strconv.Itoa(i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Nodes returns the ring's distinct members, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// successor returns the index of the first ring point at or after the key's
// hash, wrapping at the top.
func (r *Ring) successor(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the node owning key — the first node clockwise from the
// key's hash. Empty string on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.successor(key)].node
}

// Order returns every node in ring order starting from the key's owner:
// the owner first, then each distinct node as its first vnode is passed
// walking clockwise. This is the key's replica/failover preference list —
// deterministic across processes, like Owner.
func (r *Ring) Order(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.nodes))
	seen := make(map[string]bool, len(r.nodes))
	for i, start := 0, r.successor(key); i < len(r.points) && len(out) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
