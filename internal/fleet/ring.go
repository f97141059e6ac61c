// Package fleet is the coordination substrate for running asyncsynthd as
// a multi-node service: a consistent-hash ring that assigns every
// content-addressed document a stable owner node, a health-checked peer
// set that lets routing skip dead nodes, retry-with-backoff for
// forwarded requests, and an HTTP pull client for the shared remote
// minimization-cache tier (memo.Remote).
//
// The package deliberately mirrors the source paper's premise: the fleet
// is a set of independent asynchronous components that coordinate only
// through explicit messages (job forwarding, cache fills, health
// probes), never through shared state. Every node can serve every
// request; the ring is an optimization that concentrates identical work
// on one owner so that node's cache sees it, and a node that cannot
// reach an owner degrades to local execution rather than failing the
// job.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVnodes is how many virtual points each node contributes to the
// ring. 64 keeps the ownership split within a few percent of even for
// small fleets while the ring stays tiny.
const DefaultVnodes = 64

// Ring is an immutable consistent-hash ring over a set of node names
// (asyncsynthd uses advertised base URLs). A key's owner is the node
// whose first virtual point is at or clockwise-after the key's hash;
// removing a node only reassigns the keys it owned.
type Ring struct {
	points []ringPoint
	nodes  []string
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring over nodes with vnodes virtual points each
// (vnodes <= 0 selects DefaultVnodes). Duplicate node names are
// collapsed; the node order does not affect ownership.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	seen := map[string]bool{}
	r := &Ring{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: pointHash(n, i), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.node < b.node // deterministic on (vanishingly rare) collisions
	})
	sort.Strings(r.nodes)
	return r
}

// Nodes returns the distinct node names on the ring, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Has reports whether node is on the ring.
func (r *Ring) Has(node string) bool {
	i := sort.SearchStrings(r.nodes, node)
	return i < len(r.nodes) && r.nodes[i] == node
}

// Owner returns the node owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	return r.OwnerAlive(key, nil)
}

// OwnerAlive returns the first node at or clockwise-after key's hash for
// which alive returns true, walking distinct nodes in ring order. A nil
// alive accepts every node. It returns "" when the ring is empty or no
// node is alive — callers treat that as "execute locally".
func (r *Ring) OwnerAlive(key string, alive func(node string) bool) string {
	if len(r.points) == 0 {
		return ""
	}
	h := keyHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	tried := map[string]bool{}
	for i := 0; len(tried) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if tried[p.node] {
			continue
		}
		tried[p.node] = true
		if alive == nil || alive(p.node) {
			return p.node
		}
	}
	return ""
}

func pointHash(node string, vnode int) uint64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", node, vnode)))
	return binary.BigEndian.Uint64(sum[:8])
}

func keyHash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}
