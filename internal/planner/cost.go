package planner

import "math"

// The cost formulas, as pure functions of child costs and cardinalities.
// The multi-arm enumeration (PlanArms) evaluates them over flat per-arm
// tables and the node constructors (nodes.go) evaluate them over built
// children, so a formula exists once and a materialized node's EstCost is
// bit-identical to the table entry that selected it. Hint penalties are
// not part of a formula: callers add them afterwards (armPen), so the
// penalized cost is always `formula + penalty` in that order.

// armPen is one hint set's additive cost penalties, disablePenalty where
// the operator class is off and 0 where it is on. Adding 0 is exact for
// every cost the model can produce (costs are sums of non-negative terms,
// never -0), so `cost + pen.x` equals the conditional `+= disablePenalty`.
type armPen struct {
	seqScan, indexScan, indexOnlyScan float64
	hashJoin, mergeJoin, nestLoop     float64
}

func penalties(h Hints) armPen {
	pen := func(on bool) float64 {
		if on {
			return 0
		}
		return disablePenalty
	}
	return armPen{
		seqScan: pen(h.SeqScan), indexScan: pen(h.IndexScan), indexOnlyScan: pen(h.IndexOnlyScan),
		hashJoin: pen(h.HashJoin), mergeJoin: pen(h.MergeJoin), nestLoop: pen(h.NestLoop),
	}
}

// scan returns the penalty of a scan operator class.
func (p *armPen) scan(op Op) float64 {
	switch op {
	case OpSeqScan:
		return p.seqScan
	case OpIndexOnlyScan:
		return p.indexOnlyScan
	default:
		return p.indexScan
	}
}

func seqScanCost(pages, baseRows float64, nFilters int) float64 {
	return pages*seqPageCost + baseRows*cpuTupleCost +
		baseRows*float64(nFilters)*cpuOperatorCost
}

// indexScanCost prices an index scan driven by a filter matching `matched`
// rows with nRest residual filters. The 4×log2 descent term matches the
// executor's descentOpsPerLevel billing for index scans and index nested
// loops, so costed and charged descents agree.
func indexScanCost(baseRows, matched float64, nRest int) float64 {
	return math.Log2(baseRows+2)*cpuOperatorCost*4 +
		matched*cpuIndexTupleCost +
		matched*randPageCost +
		matched*(float64(nRest)*cpuOperatorCost+cpuTupleCost)
}

// indexOnlyScanCost prices the same scan answered from the index alone.
func indexOnlyScanCost(baseRows, matched float64) float64 {
	ixPages := matched/float64(catalogIndexFanout) + 1
	return math.Log2(baseRows+2)*cpuOperatorCost*4 +
		matched*cpuIndexTupleCost + ixPages*seqPageCost
}

// fullIndexScanCost prices an unfiltered walk of a whole index with heap
// fetches; fullIndexOnlyScanCost the same walk without them.
func fullIndexScanCost(baseRows float64, nFilters int) float64 {
	return baseRows*cpuIndexTupleCost + baseRows*randPageCost +
		baseRows*(float64(nFilters)*cpuOperatorCost+cpuTupleCost)
}

func fullIndexOnlyScanCost(baseRows float64) float64 {
	return baseRows*cpuIndexTupleCost + baseRows/float64(catalogIndexFanout)*seqPageCost
}

// indexProbeCost prices one parameterized index probe returning perProbe
// rows from a relation of baseRows rows with nFilters residual filters.
func indexProbeCost(baseRows, perProbe float64, nFilters int) float64 {
	return math.Log2(baseRows+2)*cpuOperatorCost*4 +
		perProbe*(cpuIndexTupleCost+randPageCost+cpuTupleCost+
			float64(nFilters)*cpuOperatorCost)
}

// sortRows is the row count a sort of estRows rows is priced at, and the
// argument of the log2 sortCost takes precomputed.
func sortRows(estRows float64) float64 { return math.Max(estRows, 2) }

// sortCost prices sorting a child of the given cost; rows is
// sortRows(child rows) and log2rows its base-2 logarithm, taken as an
// argument so the enumeration computes it once per relation subset.
func sortCost(child, rows, log2rows float64) float64 {
	return child + 2*rows*log2rows*cpuOperatorCost + rows*cpuTupleCost
}

func hashJoinCost(left, right, leftRows, rightRows, joinRows float64) float64 {
	return left + right +
		rightRows*cpuOperatorCost*1.5 +
		leftRows*cpuOperatorCost +
		joinRows*cpuTupleCost
}

// mergeJoinCost takes the costs of the (sorted as needed) merge inputs.
func mergeJoinCost(left, right, leftRows, rightRows, joinRows float64) float64 {
	return left + right +
		(leftRows+rightRows)*cpuOperatorCost +
		joinRows*cpuTupleCost
}

// nestLoopCost prices the naive nested loop: the inner is rescanned for
// every outer row. It looks cheap exactly when the outer cardinality is
// under-estimated — the paper's 16b failure mode.
func nestLoopCost(left, right, leftRows, rightRows, joinRows float64) float64 {
	return left + math.Max(leftRows, 1)*right +
		leftRows*rightRows*cpuOperatorCost +
		joinRows*cpuTupleCost
}

// indexNestLoopCost prices probing the inner relation's index once per
// outer row at probeCost each.
func indexNestLoopCost(left, leftRows, probeCost, joinRows float64) float64 {
	return left + math.Max(leftRows, 1)*probeCost +
		joinRows*cpuTupleCost
}
