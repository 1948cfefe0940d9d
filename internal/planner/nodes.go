package planner

import (
	"math"
	"math/bits"

	"bao/internal/stats"
)

// Node constructors: the one place scan and join Nodes are built. PlanArms
// calls them for the winning choice on each arm's final path; PlanSpace
// calls them for plans the learned baselines assemble themselves. Costs
// come from the formulas in cost.go plus the hint set's penalties.

// catalogIndexFanout mirrors storage.IndexEntriesPerPage without importing
// it into cost arithmetic everywhere.
const catalogIndexFanout = 256

// IndexedFilterOn reports whether the scan has an eq/range filter on col.
func (si *ScanInfo) IndexedFilterOn(col string) bool {
	for i := range si.Filters {
		if si.Filters[i].Col == col && (si.Filters[i].Kind == FEq || si.Filters[i].Kind == FRange) {
			return true
		}
	}
	return false
}

// coveredByIndex reports whether an index on col alone can satisfy the scan
// (all needed outputs and all filters are on col).
func coveredByIndex(si *ScanInfo, col string) bool {
	for _, n := range si.Needed {
		if n != col {
			return false
		}
	}
	for i := range si.Filters {
		if si.Filters[i].Col != col {
			return false
		}
	}
	return true
}

// outPos finds col's position in the scan's output, or -1.
func outPos(si *ScanInfo, col string) int {
	for i, n := range si.Needed {
		if n == col {
			return i
		}
	}
	return -1
}

// scanCols is the output schema every access path of a relation shares.
func scanCols(si *ScanInfo) []OutCol {
	cols := make([]OutCol, len(si.Needed))
	for i, name := range si.Needed {
		ci := si.Meta.ColumnIndex(name)
		cols[i] = OutCol{Alias: si.Alias, Name: name, Type: si.Meta.Columns[ci].Type}
	}
	return cols
}

// scanCand is one access path of a relation with its unpenalized cost —
// everything about the path that no hint set changes.
type scanCand struct {
	op     Op
	cost   float64
	filter int    // si.Filters index of the filter driving the index; -1 for seq and full-index scans
	col    string // indexed column; "" for a sequential scan
	sorted int    // output position the rows are ordered by, or -1
}

// scanCands lists a relation's access paths in tie-break order (a path
// replaces an earlier one only when strictly cheaper): the sequential
// scan, which is always available; per eq/range filter on an indexed
// column an index scan, then an index-only scan when the index covers the
// scan; then unfiltered full-index scans, which provide sorted output
// (useful under merge joins) but rarely win since heap fetches make them
// expensive — index-only before index.
func (o *Optimizer) scanCands(si *ScanInfo, ts *stats.TableStats) []scanCand {
	baseRows := float64(ts.Rows)
	dst := []scanCand{{op: OpSeqScan, filter: -1, sorted: -1,
		cost: seqScanCost(float64(ts.Pages), baseRows, len(si.Filters))}}
	for fi := range si.Filters {
		f := &si.Filters[fi]
		if f.Kind != FEq && f.Kind != FRange {
			continue
		}
		if _, ok := o.Schema.IndexOn(si.Table, f.Col); !ok {
			continue
		}
		matched := math.Max(baseRows*filterSel(ts.Cols[colName(si, f.Col)], f), 0.5)
		dst = append(dst, scanCand{op: OpIndexScan, filter: fi, col: f.Col, sorted: outPos(si, f.Col),
			cost: indexScanCost(baseRows, matched, len(si.Filters)-1)})
		if coveredByIndex(si, f.Col) {
			dst = append(dst, scanCand{op: OpIndexOnlyScan, filter: fi, col: f.Col, sorted: outPos(si, f.Col),
				cost: indexOnlyScanCost(baseRows, matched)})
		}
	}
	for _, col := range si.Needed {
		if _, ok := o.Schema.IndexOn(si.Table, col); !ok {
			continue
		}
		if si.IndexedFilterOn(col) {
			continue // already considered above with the filter
		}
		if coveredByIndex(si, col) {
			dst = append(dst, scanCand{op: OpIndexOnlyScan, filter: -1, col: col, sorted: outPos(si, col),
				cost: fullIndexOnlyScanCost(baseRows)})
		}
		dst = append(dst, scanCand{op: OpIndexScan, filter: -1, col: col, sorted: outPos(si, col),
			cost: fullIndexScanCost(baseRows, len(si.Filters))})
	}
	return dst
}

// cheapestScan returns the index of the cheapest candidate under the
// penalties and its penalized cost.
func cheapestScan(cands []scanCand, p *armPen) (int, float64) {
	best, bestCost := 0, cands[0].cost+p.scan(cands[0].op)
	for i := 1; i < len(cands); i++ {
		if c := cands[i].cost + p.scan(cands[i].op); c < bestCost {
			best, bestCost = i, c
		}
	}
	return best, bestCost
}

// scanNode builds the Node of one access path.
func scanNode(si *ScanInfo, c scanCand, cols []OutCol, estRows float64, p *armPen) *Node {
	n := &Node{Op: c.op, Table: si.Table, Alias: si.Alias, IndexCol: c.col,
		Filters: si.Filters, Cols: cols, EstRows: estRows, SortedBy: c.sorted,
		EstCost: c.cost + p.scan(c.op)}
	if c.filter >= 0 {
		n.IndexFilter = &si.Filters[c.filter]
		n.Filters = make([]Filter, 0, len(si.Filters)-1)
		for fi := range si.Filters {
			if fi != c.filter {
				n.Filters = append(n.Filters, si.Filters[fi])
			}
		}
	}
	return n
}

// joinKey is one equi-join predicate crossing a (left, right) partition,
// normalized so the left key is in the left input: key positions into the
// two inputs' outputs plus the edge and right-side column the index
// nested loop needs.
type joinKey struct {
	lk, rk int
	edge   int
	rRel   int
	rCol   string
}

// joinInputs is a (left ⋈ right) pair with its keys resolved — what every
// join operator's constructor starts from.
type joinInputs struct {
	left, right *Node
	keys        []joinKey
	lks, rks    []int
	cols        []OutCol
	rows        float64 // estimated join cardinality
}

// joinInputsOf resolves the predicates crossing (lmask, rmask) against the
// two inputs' outputs. ok is false when no join predicate connects them.
func joinInputsOf(q *Query, left, right *Node, lmask, rmask uint32, joinRows float64) (joinInputs, bool) {
	in := joinInputs{left: left, right: right, rows: joinRows}
	for ei, e := range q.Edges {
		flipped, ok := e.crosses(lmask, rmask)
		if !ok {
			continue
		}
		lRel, rRel, lCol, rCol := e.L, e.R, e.LCol, e.RCol
		if flipped {
			lRel, rRel, lCol, rCol = e.R, e.L, e.RCol, e.LCol
		}
		lk := left.ColIndex(q.Scans[lRel].Alias, lCol)
		rk := right.ColIndex(q.Scans[rRel].Alias, rCol)
		if lk == -1 || rk == -1 {
			continue
		}
		in.keys = append(in.keys, joinKey{lk: lk, rk: rk, edge: ei, rCol: rCol, rRel: rRel})
	}
	if len(in.keys) == 0 {
		return in, false
	}
	pos := make([]int, 2*len(in.keys)) // both key lists in one allocation
	in.lks, in.rks = pos[:len(in.keys):len(in.keys)], pos[len(in.keys):]
	for i, k := range in.keys {
		in.lks[i], in.rks[i] = k.lk, k.rk
	}
	in.cols = append(append(make([]OutCol, 0, len(left.Cols)+len(right.Cols)), left.Cols...), right.Cols...)
	return in, true
}

// hashJoin builds the right (inner) side and probes with the left.
func (in *joinInputs) hashJoin(p *armPen) *Node {
	l, r := in.left, in.right
	return &Node{Op: OpHashJoin, Left: l, Right: r,
		LeftKeys: in.lks, RightKeys: in.rks, Cols: in.cols, EstRows: in.rows, SortedBy: -1,
		EstCost: hashJoinCost(l.EstCost, r.EstCost, l.EstRows, r.EstRows, in.rows) + p.hashJoin}
}

// mergeJoin merges on the first key, sorting either input that is not
// already ordered by it; extra keys are checked during the merge.
func (in *joinInputs) mergeJoin(p *armPen) *Node {
	ml := sortedInput(in.left, in.lks[0])
	mr := sortedInput(in.right, in.rks[0])
	return &Node{Op: OpMergeJoin, Left: ml, Right: mr,
		LeftKeys: in.lks, RightKeys: in.rks, Cols: in.cols, EstRows: in.rows, SortedBy: in.lks[0],
		EstCost: mergeJoinCost(ml.EstCost, mr.EstCost, in.left.EstRows, in.right.EstRows, in.rows) + p.mergeJoin}
}

// nestLoop rescans the inner for every outer row.
func (in *joinInputs) nestLoop(p *armPen) *Node {
	l, r := in.left, in.right
	return &Node{Op: OpNestLoop, Left: l, Right: r,
		LeftKeys: in.lks, RightKeys: in.rks, Cols: in.cols, EstRows: in.rows, SortedBy: -1,
		EstCost: nestLoopCost(l.EstCost, r.EstCost, l.EstRows, r.EstRows, in.rows) + p.nestLoop}
}

// indexNestLoop probes a parameterized index scan of the inner relation
// per outer row, on the first key whose inner column is indexed (one such
// candidate is enough). It returns nil unless the inner side is a single
// base relation with an index on a join column.
func (o *Optimizer) indexNestLoop(in *joinInputs, q *Query, est *estimates, rmask uint32, p *armPen) *Node {
	if bits.OnesCount32(rmask) != 1 {
		return nil
	}
	for _, k := range in.keys {
		si := q.Scans[k.rRel]
		if _, ok := o.Schema.IndexOn(si.Table, k.rCol); !ok {
			continue
		}
		perProbe := est.perProbe(k.rRel, k.edge)
		probeCost := indexProbeCost(float64(est.tstats[k.rRel].Rows), perProbe, len(si.Filters))
		inner := &Node{Op: OpIndexScan, Table: si.Table, Alias: si.Alias,
			IndexCol: k.rCol, Filters: si.Filters, Cols: in.right.Cols,
			EstRows: perProbe, EstCost: probeCost, SortedBy: -1, Param: true}
		cost := indexNestLoopCost(in.left.EstCost, in.left.EstRows, probeCost, in.rows)
		cost += p.nestLoop
		cost += p.indexScan
		return &Node{Op: OpNestLoop, Left: in.left, Right: inner,
			LeftKeys: in.lks, RightKeys: in.rks, Cols: in.cols,
			EstRows: in.rows, SortedBy: -1, EstCost: cost}
	}
	return nil
}

// sortedInput wraps a child in a Sort node when it is not already ordered
// by the merge key.
func sortedInput(n *Node, keyPos int) *Node {
	if n.SortedBy == keyPos {
		return n
	}
	rows := sortRows(n.EstRows)
	return &Node{Op: OpSort, Left: n, SortCols: []int{keyPos},
		SortDesc: []bool{false}, Cols: n.Cols, EstRows: n.EstRows,
		SortedBy: keyPos, EstCost: sortCost(n.EstCost, rows, math.Log2(rows))}
}
