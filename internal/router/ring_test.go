package baorouter

import (
	"fmt"
	"testing"
)

// TestRingOwnerDeterministic pins the basic ring contract: ownership is
// a pure function of membership, every tenant has an owner while the
// ring is non-empty, and an empty ring owns nothing.
func TestRingOwnerDeterministic(t *testing.T) {
	r := NewRing()
	if got := r.Owner("anyone"); got != "" {
		t.Fatalf("empty ring owner = %q, want \"\"", got)
	}
	r.Add("a")
	r.Add("b")
	r.Add("c")
	for i := 0; i < 200; i++ {
		tn := fmt.Sprintf("tenant-%d", i)
		o1, o2 := r.Owner(tn), r.Owner(tn)
		if o1 == "" || o1 != o2 {
			t.Fatalf("owner(%s) unstable: %q then %q", tn, o1, o2)
		}
	}
	if got := len(r.Members()); got != 3 {
		t.Fatalf("members = %d, want 3", got)
	}
}

// TestRingRemoveMovesOnlyOrphans is the consistent-hashing property the
// fleet depends on: when a shard dies, only its own tenants rehash;
// every tenant owned by a survivor keeps its shard (so its resident
// model and plan cache stay warm).
func TestRingRemoveMovesOnlyOrphans(t *testing.T) {
	r := NewRing()
	shards := []string{"s0", "s1", "s2", "s3"}
	for _, s := range shards {
		r.Add(s)
	}
	const tenants = 500
	before := make(map[string]string, tenants)
	for i := 0; i < tenants; i++ {
		tn := fmt.Sprintf("tenant-%d", i)
		before[tn] = r.Owner(tn)
	}
	r.Remove("s2")
	moved := 0
	for tn, owner := range before {
		after := r.Owner(tn)
		if after == "s2" {
			t.Fatalf("tenant %s still owned by removed shard", tn)
		}
		if owner != "s2" && after != owner {
			t.Fatalf("tenant %s moved %s -> %s though its shard survived", tn, owner, after)
		}
		if owner == "s2" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no tenants were owned by s2; test proves nothing")
	}
	// Re-adding restores the exact original assignment (vnode hashes are
	// position-stable).
	r.Add("s2")
	for tn, owner := range before {
		if after := r.Owner(tn); after != owner {
			t.Fatalf("tenant %s did not return to %s after re-add (got %s)", tn, owner, after)
		}
	}
}

// TestRingBalance sanity-checks the vnode count: no shard owns a wildly
// disproportionate share of tenants.
func TestRingBalance(t *testing.T) {
	r := NewRing()
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("s%d", i))
	}
	counts := map[string]int{}
	const tenants = 4000
	for i := 0; i < tenants; i++ {
		counts[r.Owner(fmt.Sprintf("tenant-%d", i))]++
	}
	for s, n := range counts {
		if n < tenants/4/3 || n > tenants/4*3 {
			t.Fatalf("shard %s owns %d of %d tenants; ring badly unbalanced: %v", s, n, tenants, counts)
		}
	}
}
