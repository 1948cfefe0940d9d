// Package baorouter implements the fleet front door for a sharded bao
// serving deployment: a consistent-hash ring maps tenants onto shards,
// and a reverse proxy forwards /v1/* traffic to the owning shard,
// failing over (and rehashing) when a shard dies. Because every tenant's
// durable state — experience log plus checkpoints — lives in its own
// namespace, reassignment needs no data movement: the new owner's lazy
// activation replays the log and restores the newest checkpoint, which
// is the paper's "models are small and training data is cheap to keep"
// operational story made concrete.
package baorouter

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// vnodes is how many virtual points each shard claims on the
// ring. More vnodes flatten the tenant distribution; 64 keeps the ring
// small while bounding per-shard imbalance to a few percent at fleet
// sizes this repo targets.
const vnodes = 64

// ringPoint is one virtual node: a hash position owned by a shard.
type ringPoint struct {
	hash  uint64
	shard string
}

// Ring is a consistent-hash ring over shard names. Membership changes
// (a shard dying or joining) move only the tenants whose arcs changed
// owner; everything else keeps its shard, which keeps their models
// resident and their plan caches warm. Safe for concurrent use.
type Ring struct {
	mu     sync.RWMutex
	points []ringPoint     // sorted by hash
	member map[string]bool // shard -> in-ring
}

// NewRing builds an empty ring.
func NewRing() *Ring {
	return &Ring{member: map[string]bool{}}
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // fnv never errors
	x := h.Sum64()
	// FNV avalanches poorly on short keys ("s1#7"), clustering ring
	// points; a splitmix64 finalizer spreads them uniformly.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a shard's virtual points. Adding a present shard is a
// no-op.
func (r *Ring) Add(shard string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.member[shard] {
		return
	}
	r.member[shard] = true
	for i := 0; i < vnodes; i++ {
		r.points = append(r.points, ringPoint{hash64(fmt.Sprintf("%s#%d", shard, i)), shard})
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
}

// Remove deletes a shard's virtual points. Removing an absent shard is
// a no-op.
func (r *Ring) Remove(shard string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.member[shard] {
		return
	}
	delete(r.member, shard)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.shard != shard {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owner returns the shard owning tenant: the first virtual point at or
// clockwise after the tenant's hash. Returns "" when the ring is empty.
func (r *Ring) Owner(tenant string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(tenant)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// Members returns the shards currently in the ring, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.member))
	for s := range r.member {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of member shards.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.member)
}
