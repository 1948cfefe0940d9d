package planner

// The per-hint-set Selinger enumeration PlanArms replaced, kept verbatim
// as the oracle the differential tests compare against: one full DP per
// hint set, one Node per costed candidate. Only the receiver type, the
// candidate counter's name and the ref prefix on sortedInput differ from
// the code as it last shipped.

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
)

// refPlanner runs the reference enumeration over an Optimizer's schema,
// statistics and estimation grade.
type refPlanner struct {
	*Optimizer
	// costed counts the join candidates of the most recent Plan call.
	costed int
}

// Plan produces the cheapest physical plan for the query under the hints.
func (o *refPlanner) Plan(q *Query, h Hints) (*Node, error) {
	k := len(q.Scans)
	if k == 0 {
		return nil, fmt.Errorf("planner: no relations")
	}
	if k > 16 {
		return nil, fmt.Errorf("planner: %d relations exceeds the enumeration limit", k)
	}
	o.costed = 0

	// Per-relation filtered cardinalities and per-edge selectivities.
	filtered := make([]float64, k)
	for i, si := range q.Scans {
		ts := o.Stats.TableStats(si.Table)
		if ts == nil {
			return nil, fmt.Errorf("planner: no statistics for table %s (run ANALYZE)", si.Table)
		}
		filtered[i] = math.Max(float64(ts.Rows)*o.scanSel(si, ts), 0.5)
	}
	edgeSels := make([]float64, len(q.Edges))
	for i, e := range q.Edges {
		edgeSels[i] = o.edgeSel(q, e)
	}
	// Joint cardinality per relation subset (order-independent).
	rowsOf := func(mask uint32) float64 {
		r := 1.0
		for i := 0; i < k; i++ {
			if mask&(1<<i) != 0 {
				r *= filtered[i]
			}
		}
		for i, e := range q.Edges {
			if mask&(1<<e.L) != 0 && mask&(1<<e.R) != 0 {
				r *= edgeSels[i]
			}
		}
		return math.Max(r, 0.5)
	}

	best := make([]*Node, 1<<k)
	for i, si := range q.Scans {
		n, err := o.bestScan(si, h, filtered[i])
		if err != nil {
			return nil, err
		}
		best[1<<i] = n
	}

	full := uint32(1<<k) - 1
	for mask := uint32(1); mask <= full; mask++ {
		if bits.OnesCount32(mask) < 2 {
			continue
		}
		joinRows := rowsOf(mask)
		// Enumerate ordered (left, right) partitions.
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			other := mask ^ sub
			left, right := best[sub], best[other]
			if left == nil || right == nil {
				continue
			}
			cand := o.joinCandidates(q, h, left, right, sub, other, joinRows, filtered, edgeSels)
			if cand != nil && (best[mask] == nil || cand.EstCost < best[mask].EstCost) {
				best[mask] = cand
			}
		}
	}
	root := best[full]
	if root == nil {
		return nil, fmt.Errorf("planner: no join path found (disconnected join graph)")
	}
	return o.buildTop(q, root)
}

// bestScan picks the cheapest access path for one relation under the hints.
func (o *refPlanner) bestScan(si *ScanInfo, h Hints, estRows float64) (*Node, error) {
	ts := o.Stats.TableStats(si.Table)
	cols := make([]OutCol, len(si.Needed))
	for i, name := range si.Needed {
		ci := si.Meta.ColumnIndex(name)
		cols[i] = OutCol{Alias: si.Alias, Name: name, Type: si.Meta.Columns[ci].Type}
	}
	baseRows := float64(ts.Rows)
	pages := float64(ts.Pages)

	var cands []*Node

	// Sequential scan is always available.
	seq := &Node{Op: OpSeqScan, Table: si.Table, Alias: si.Alias,
		Filters: si.Filters, Cols: cols, EstRows: estRows, SortedBy: -1}
	seq.EstCost = pages*seqPageCost + baseRows*cpuTupleCost +
		baseRows*float64(len(si.Filters))*cpuOperatorCost
	if !h.SeqScan {
		seq.EstCost += disablePenalty
	}
	cands = append(cands, seq)

	// Index scans: one per filter on an indexed column.
	for fi := range si.Filters {
		f := &si.Filters[fi]
		if f.Kind != FEq && f.Kind != FRange {
			continue
		}
		if _, ok := o.Schema.IndexOn(si.Table, f.Col); !ok {
			continue
		}
		cs := ts.Cols[colName(si, f.Col)]
		idxSel := filterSel(cs, f)
		matched := math.Max(baseRows*idxSel, 0.5)
		rest := make([]Filter, 0, len(si.Filters)-1)
		for fj := range si.Filters {
			if fj != fi {
				rest = append(rest, si.Filters[fj])
			}
		}
		ix := &Node{Op: OpIndexScan, Table: si.Table, Alias: si.Alias,
			IndexCol: f.Col, IndexFilter: f, Filters: rest, Cols: cols,
			EstRows: estRows, SortedBy: outPos(si, f.Col)}
		// The 4×log2 descent term matches the executor's
		// descentOpsPerLevel billing for index scans and index nested
		// loops, so costed and charged descents agree.
		ix.EstCost = math.Log2(baseRows+2)*cpuOperatorCost*4 +
			matched*cpuIndexTupleCost +
			matched*randPageCost +
			matched*(float64(len(rest))*cpuOperatorCost+cpuTupleCost)
		if !h.IndexScan {
			ix.EstCost += disablePenalty
		}
		cands = append(cands, ix)

		// Index-only scan: the index alone can answer the scan when every
		// needed column and every filter touches only the indexed column.
		if coveredByIndex(si, f.Col) {
			ixPages := matched/float64(catalogIndexFanout) + 1
			io := &Node{Op: OpIndexOnlyScan, Table: si.Table, Alias: si.Alias,
				IndexCol: f.Col, IndexFilter: f, Filters: rest, Cols: cols,
				EstRows: estRows, SortedBy: outPos(si, f.Col)}
			io.EstCost = math.Log2(baseRows+2)*cpuOperatorCost*4 +
				matched*cpuIndexTupleCost + ixPages*seqPageCost
			if !h.IndexOnlyScan {
				io.EstCost += disablePenalty
			}
			cands = append(cands, io)
		}
	}

	// Unfiltered full-index scans provide sorted output (useful under merge
	// joins); heap fetches make them expensive, so they rarely win unless
	// sorting is worth avoiding.
	for _, col := range si.Needed {
		if _, ok := o.Schema.IndexOn(si.Table, col); !ok {
			continue
		}
		if si.IndexedFilterOn(col) {
			continue // already considered above with the filter
		}
		ix := &Node{Op: OpIndexScan, Table: si.Table, Alias: si.Alias,
			IndexCol: col, Filters: si.Filters, Cols: cols,
			EstRows: estRows, SortedBy: outPos(si, col)}
		ix.EstCost = baseRows*cpuIndexTupleCost + baseRows*randPageCost +
			baseRows*(float64(len(si.Filters))*cpuOperatorCost+cpuTupleCost)
		if !h.IndexScan {
			ix.EstCost += disablePenalty
		}
		if coveredByIndex(si, col) {
			io := *ix
			io.Op = OpIndexOnlyScan
			io.EstCost = baseRows*cpuIndexTupleCost + baseRows/float64(catalogIndexFanout)*seqPageCost
			if !h.IndexOnlyScan {
				io.EstCost += disablePenalty
			}
			cands = append(cands, &io)
		}
		cands = append(cands, ix)
	}

	bestN := cands[0]
	for _, c := range cands[1:] {
		if c.EstCost < bestN.EstCost {
			bestN = c
		}
	}
	return bestN, nil
}

// joinCandidates costs every legal join operator for (left ⋈ right) and
// returns the cheapest, or nil when no join edge crosses the partition.
func (o *refPlanner) joinCandidates(q *Query, h Hints, left, right *Node,
	lmask, rmask uint32, joinRows float64, filtered, edgeSels []float64) *Node {
	var best *Node
	for _, c := range o.joinCandidatesByOp(q, h, left, right, lmask, rmask, joinRows, filtered, edgeSels) {
		o.costed++
		if best == nil || c.EstCost < best.EstCost {
			best = c
		}
	}
	return best
}

// joinCandidatesByOp constructs every legal join candidate for
// (left ⋈ right): hash, merge (with sorts as needed), naive nested loop,
// and a parameterized index nested loop when the inner side is a single
// indexed relation.
func (o *refPlanner) joinCandidatesByOp(q *Query, h Hints, left, right *Node,
	lmask, rmask uint32, joinRows float64, filtered, edgeSels []float64) []*Node {

	// Collect crossing edges, normalized so the left key is in `left`.
	type key struct {
		lk, rk int
		edge   int
		rCol   string // join column name on the right side
		rRel   int
	}
	var keys []key
	for ei, e := range q.Edges {
		var lRel, rRel int
		var lCol, rCol string
		switch {
		case lmask&(1<<e.L) != 0 && rmask&(1<<e.R) != 0:
			lRel, rRel, lCol, rCol = e.L, e.R, e.LCol, e.RCol
		case lmask&(1<<e.R) != 0 && rmask&(1<<e.L) != 0:
			lRel, rRel, lCol, rCol = e.R, e.L, e.RCol, e.LCol
		default:
			continue
		}
		lk := left.ColIndex(q.Scans[lRel].Alias, lCol)
		rk := right.ColIndex(q.Scans[rRel].Alias, rCol)
		if lk == -1 || rk == -1 {
			continue
		}
		keys = append(keys, key{lk: lk, rk: rk, edge: ei, rCol: rCol, rRel: rRel})
	}
	if len(keys) == 0 {
		return nil
	}
	lks := make([]int, len(keys))
	rks := make([]int, len(keys))
	for i, kk := range keys {
		lks[i], rks[i] = kk.lk, kk.rk
	}
	outCols := append(append([]OutCol{}, left.Cols...), right.Cols...)

	var cands []*Node
	consider := func(n *Node) { cands = append(cands, n) }

	// Hash join: build the right (inner) side, probe with the left.
	hj := &Node{Op: OpHashJoin, Left: left, Right: right,
		LeftKeys: lks, RightKeys: rks, Cols: outCols, EstRows: joinRows, SortedBy: -1}
	hj.EstCost = left.EstCost + right.EstCost +
		right.EstRows*cpuOperatorCost*1.5 +
		left.EstRows*cpuOperatorCost +
		joinRows*cpuTupleCost
	if !h.HashJoin {
		hj.EstCost += disablePenalty
	}
	consider(hj)

	// Merge join on the first key; extra keys are checked during the merge.
	ml := refSortedInput(left, lks[0])
	mr := refSortedInput(right, rks[0])
	mj := &Node{Op: OpMergeJoin, Left: ml, Right: mr,
		LeftKeys: lks, RightKeys: rks, Cols: outCols, EstRows: joinRows,
		SortedBy: lks[0]}
	mj.EstCost = ml.EstCost + mr.EstCost +
		(left.EstRows+right.EstRows)*cpuOperatorCost +
		joinRows*cpuTupleCost
	if !h.MergeJoin {
		mj.EstCost += disablePenalty
	}
	consider(mj)

	// Naive nested loop: rescan the inner for every outer row. Looks cheap
	// exactly when the outer cardinality is under-estimated — the paper's
	// 16b failure mode.
	nl := &Node{Op: OpNestLoop, Left: left, Right: right,
		LeftKeys: lks, RightKeys: rks, Cols: outCols, EstRows: joinRows, SortedBy: -1}
	nl.EstCost = left.EstCost + math.Max(left.EstRows, 1)*right.EstCost +
		left.EstRows*right.EstRows*cpuOperatorCost +
		joinRows*cpuTupleCost
	if !h.NestLoop {
		nl.EstCost += disablePenalty
	}
	consider(nl)

	// Index nested loop: when the inner side is a single base relation with
	// an index on a join column, probe it per outer row.
	if bits.OnesCount32(rmask) == 1 {
		for _, kk := range keys {
			si := q.Scans[kk.rRel]
			if _, ok := o.Schema.IndexOn(si.Table, kk.rCol); !ok {
				continue
			}
			ts := o.Stats.TableStats(si.Table)
			baseRows := float64(ts.Rows)
			perProbe := math.Max(filtered[kk.rRel]*edgeSels[kk.edge], 1e-4)
			probeCost := math.Log2(baseRows+2)*cpuOperatorCost*4 +
				perProbe*(cpuIndexTupleCost+randPageCost+cpuTupleCost+
					float64(len(si.Filters))*cpuOperatorCost)
			inner := &Node{Op: OpIndexScan, Table: si.Table, Alias: si.Alias,
				IndexCol: kk.rCol, Filters: si.Filters, Cols: right.Cols,
				EstRows: perProbe, EstCost: probeCost, SortedBy: -1, Param: true}
			inl := &Node{Op: OpNestLoop, Left: left, Right: inner,
				LeftKeys: lks, RightKeys: rks, Cols: outCols,
				EstRows: joinRows, SortedBy: -1}
			inl.EstCost = left.EstCost + math.Max(left.EstRows, 1)*probeCost +
				joinRows*cpuTupleCost
			if !h.NestLoop {
				inl.EstCost += disablePenalty
			}
			if !h.IndexScan {
				inl.EstCost += disablePenalty
			}
			consider(inl)
			break // one parameterized-index candidate is enough
		}
	}
	return cands
}

// sortedInput wraps a child in a Sort node when it is not already ordered
// by the merge key.
func refSortedInput(n *Node, keyPos int) *Node {
	if n.SortedBy == keyPos {
		return n
	}
	rows := math.Max(n.EstRows, 2)
	s := &Node{Op: OpSort, Left: n, SortCols: []int{keyPos},
		SortDesc: []bool{false}, Cols: n.Cols, EstRows: n.EstRows,
		SortedBy: keyPos}
	s.EstCost = n.EstCost + 2*rows*math.Log2(rows)*cpuOperatorCost + rows*cpuTupleCost
	return s
}

// ReferencePlan plans one hint set with the reference enumeration and
// returns the plan and the join candidates it costed. Exported (from a
// test file) for the workload differential test in package planner_test.
func ReferencePlan(o *Optimizer, q *Query, h Hints) (*Node, int, error) {
	ref := &refPlanner{Optimizer: o}
	n, err := ref.Plan(q, h)
	return n, ref.costed, err
}

// AllHintSets returns Bao's 49 hint sets in arm order (every non-empty
// subset of join operators × every non-empty subset of scan operators,
// the unhinted optimizer first) plus the all-off set.
func AllHintSets() []Hints {
	var out []Hints
	for j := 7; j >= 1; j-- {
		for s := 7; s >= 1; s-- {
			out = append(out, Hints{
				HashJoin: j&1 != 0, MergeJoin: j&2 != 0, NestLoop: j&4 != 0,
				SeqScan: s&1 != 0, IndexScan: s&2 != 0, IndexOnlyScan: s&4 != 0,
			})
		}
	}
	return append(out, Hints{})
}

// PlanDiff compares two plans field by field — operators, tables, aliases,
// keys, column order, sort order, and the estimates as bit patterns — and
// describes the first difference, or returns "" when there is none.
func PlanDiff(a, b *Node) string {
	return planDiff(a, b, "root")
}

func planDiff(a, b *Node, path string) string {
	if a == nil || b == nil {
		if a != b {
			return fmt.Sprintf("%s: one side is nil", path)
		}
		return ""
	}
	ne := func(field string, x, y any) string {
		return fmt.Sprintf("%s (%v): %s differs: %v vs %v", path, a.Op, field, x, y)
	}
	switch {
	case a.Op != b.Op:
		return ne("Op", a.Op, b.Op)
	case a.Table != b.Table:
		return ne("Table", a.Table, b.Table)
	case a.Alias != b.Alias:
		return ne("Alias", a.Alias, b.Alias)
	case a.IndexCol != b.IndexCol:
		return ne("IndexCol", a.IndexCol, b.IndexCol)
	case !reflect.DeepEqual(a.IndexFilter, b.IndexFilter):
		return ne("IndexFilter", a.IndexFilter, b.IndexFilter)
	case len(a.Filters) != len(b.Filters) || (len(a.Filters) > 0 && !reflect.DeepEqual(a.Filters, b.Filters)):
		return ne("Filters", a.Filters, b.Filters)
	case a.Param != b.Param:
		return ne("Param", a.Param, b.Param)
	case !slices.Equal(a.LeftKeys, b.LeftKeys):
		return ne("LeftKeys", a.LeftKeys, b.LeftKeys)
	case !slices.Equal(a.RightKeys, b.RightKeys):
		return ne("RightKeys", a.RightKeys, b.RightKeys)
	case !slices.Equal(a.SortCols, b.SortCols):
		return ne("SortCols", a.SortCols, b.SortCols)
	case !slices.Equal(a.SortDesc, b.SortDesc):
		return ne("SortDesc", a.SortDesc, b.SortDesc)
	case !slices.Equal(a.GroupCols, b.GroupCols):
		return ne("GroupCols", a.GroupCols, b.GroupCols)
	case !slices.Equal(a.Aggs, b.Aggs):
		return ne("Aggs", a.Aggs, b.Aggs)
	case !slices.Equal(a.Projection, b.Projection):
		return ne("Projection", a.Projection, b.Projection)
	case a.N != b.N:
		return ne("N", a.N, b.N)
	case !slices.Equal(a.Cols, b.Cols):
		return ne("Cols", a.Cols, b.Cols)
	case math.Float64bits(a.EstRows) != math.Float64bits(b.EstRows):
		return ne("EstRows", a.EstRows, b.EstRows)
	case math.Float64bits(a.EstCost) != math.Float64bits(b.EstCost):
		return ne("EstCost", a.EstCost, b.EstCost)
	case a.SortedBy != b.SortedBy:
		return ne("SortedBy", a.SortedBy, b.SortedBy)
	}
	if d := planDiff(a.Left, b.Left, path+".L"); d != "" {
		return d
	}
	return planDiff(a.Right, b.Right, path+".R")
}

// DiffPlanArms plans q under every hint set both ways and reports the
// first arm whose plan or candidate count differs from the reference.
func DiffPlanArms(o *Optimizer, q *Query, hints []Hints) error {
	roots, cands, err := o.PlanArms(context.Background(), q, hints)
	for a, h := range hints {
		want, wantCands, refErr := ReferencePlan(o, q, h)
		if (err != nil) != (refErr != nil) {
			return fmt.Errorf("arm %d: PlanArms err %v, reference err %v", a, err, refErr)
		}
		if err != nil {
			if err.Error() != refErr.Error() {
				return fmt.Errorf("arm %d: PlanArms err %q, reference err %q", a, err, refErr)
			}
			continue
		}
		if cands != wantCands {
			return fmt.Errorf("arm %d: %d candidates, reference costed %d", a, cands, wantCands)
		}
		if d := PlanDiff(roots[a], want); d != "" {
			return fmt.Errorf("arm %d (%+v): %s\n--- PlanArms\n%s--- reference\n%s", a, h, d, roots[a].Explain(), want.Explain())
		}
		// Plan is the one-hint call of the same routine: spot-check it on
		// the unhinted optimizer and the last hint set.
		if a == 0 || a == len(hints)-1 {
			if one, oneCands, err := o.Plan(q, h); err != nil || oneCands != wantCands || PlanDiff(one, want) != "" {
				return fmt.Errorf("arm %d: Plan alone differs from the reference (err %v, %d candidates): %s", a, err, oneCands, PlanDiff(one, want))
			}
		}
	}
	return nil
}
