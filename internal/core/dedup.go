package core

import (
	"math"

	"bao/internal/planner"
)

// fnv64 is the running FNV-1a (64-bit) hash behind planFingerprint. It
// hashes in place, so a fingerprint allocates nothing.
type fnv64 uint64

func newFNV64() fnv64 { return 14695981039346656037 }

// tag hashes one byte: a field marker, a flag, an operator code.
func (h *fnv64) tag(b byte) { *h = (*h ^ fnv64(b)) * 1099511628211 }

// u64 hashes v's eight bytes, little-endian.
func (h *fnv64) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.tag(byte(v >> (8 * i)))
	}
}

// str hashes s and a terminating zero, so adjacent strings cannot trade
// bytes.
func (h *fnv64) str(s string) {
	for i := 0; i < len(s); i++ {
		h.tag(s[i])
	}
	h.tag(0)
}

// planFingerprint hashes exactly the plan properties the featurizer can
// see: tree shape, per-node operator, the table identity (which, with the
// operator, determines the cache-residency feature), and the optimizer's
// cardinality and cost estimates. Two plans with equal fingerprints
// therefore vectorize to identical feature trees and receive identical
// model predictions — the precondition that makes per-query plan
// deduplication (§2: many of the 49 hint sets collapse to a handful of
// distinct plans) safe. FNV-1a over 64 bits makes an accidental collision
// among ~49 plans vanishingly unlikely; a collision's worst case is one
// arm borrowing an identical-featured sibling's prediction.
func planFingerprint(root *planner.Node) uint64 {
	h := newFNV64()
	h.plan(root)
	return uint64(h)
}

// plan hashes a plan tree in pre-order.
func (h *fnv64) plan(n *planner.Node) {
	if n == nil {
		// Distinguish "no child" from any node so shape is encoded.
		h.tag(0xff)
		return
	}
	h.tag(byte(n.Op))
	h.str(n.Table)
	h.u64(math.Float64bits(n.EstRows))
	h.u64(math.Float64bits(n.EstCost))
	h.plan(n.Left)
	h.plan(n.Right)
}

// DedupPlans is the one plan-identity rule: it groups the per-arm plans by
// fingerprint. Select featurizes and predicts one plan per group, and the
// experiment harness executes one per group. It returns, for each arm, the
// index of its group's representative plan in order of first appearance,
// and the group count. Arm i's plan is a duplicate iff armGroup[i] !=
// position of a first appearance; arm 0's plan is always group 0.
// planner.PlanArms often returns arms with the same plan sharing one root,
// so each distinct root is hashed once and the rest are matched by
// pointer; equal plans under distinct roots meet by fingerprint.
func DedupPlans(plans []*planner.Node) (armGroup []int, groups int) {
	armGroup = make([]int, len(plans))
	byRoot := make(map[*planner.Node]int)
	byFP := make(map[uint64]int)
	for i, p := range plans {
		g, seen := byRoot[p]
		if !seen {
			fp := planFingerprint(p)
			if g, seen = byFP[fp]; !seen {
				g = groups
				groups++
				byFP[fp] = g
			}
			byRoot[p] = g
		}
		armGroup[i] = g
	}
	return armGroup, groups
}
