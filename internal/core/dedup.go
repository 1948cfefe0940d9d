package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"bao/internal/planner"
)

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
	h := fnv.New64a()
	var buf [8]byte
	var walk func(n *planner.Node)
	walk = func(n *planner.Node) {
		if n == nil {
			// Distinguish "no child" from any node so shape is encoded.
			h.Write([]byte{0xff})
			return
		}
		buf[0] = byte(n.Op)
		h.Write(buf[:1])
		h.Write([]byte(n.Table))
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(n.EstRows))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(n.EstCost))
		h.Write(buf[:])
		walk(n.Left)
		walk(n.Right)
	}
	walk(root)
	return h.Sum64()
}

// dedupPlans groups the per-arm plans by fingerprint. It returns, for each
// arm, the index of its group's representative plan in order of first
// appearance, plus each group's fingerprint (so len(groupFP) is the group
// count and groupFP[armGroup[i]] is arm i's plan hash — the shape cache
// stores these instead of re-hashing every plan on a repeat query). Arm
// i's plan is a duplicate iff armGroup[i] != position of a first
// appearance; arm 0's plan is always group 0. planner.PlanArms returns
// arms with the same plan sharing one root, so each distinct root is
// hashed once and the rest are matched by pointer.
func dedupPlans(plans []*planner.Node) (armGroup []int, groupFP []uint64) {
	armGroup = make([]int, len(plans))
	byRoot := make(map[*planner.Node]int)
	byFP := make(map[uint64]int)
	for i, p := range plans {
		g, seen := byRoot[p]
		if !seen {
			fp := planFingerprint(p)
			if g, seen = byFP[fp]; !seen {
				g = len(groupFP)
				groupFP = append(groupFP, fp)
				byFP[fp] = g
			}
			byRoot[p] = g
		}
		armGroup[i] = g
	}
	return armGroup, groupFP
}
