package planner

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"strings"

	"bao/internal/catalog"
	"bao/internal/sqlparser"
	"bao/internal/stats"
)

// Hints is a set of boolean optimizer flags, PostgreSQL's enable_* GUCs.
// True means the operator class is enabled. The zero value disables
// everything; use AllOn for the default configuration.
type Hints struct {
	HashJoin      bool
	MergeJoin     bool
	NestLoop      bool
	SeqScan       bool
	IndexScan     bool
	IndexOnlyScan bool
}

// AllOn returns the default hint set with every operator enabled — the
// unhinted optimizer.
func AllOn() Hints {
	return Hints{HashJoin: true, MergeJoin: true, NestLoop: true,
		SeqScan: true, IndexScan: true, IndexOnlyScan: true}
}

// SQL renders the hint set as the SET statements a DBA would issue, used by
// advisor-mode EXPLAIN output (Figure 6 of the paper).
func (h Hints) SQL() string {
	var parts []string
	add := func(on bool, name string) {
		if !on {
			parts = append(parts, fmt.Sprintf("SET enable_%s TO off;", name))
		}
	}
	add(h.HashJoin, "hashjoin")
	add(h.MergeJoin, "mergejoin")
	add(h.NestLoop, "nestloop")
	add(h.SeqScan, "seqscan")
	add(h.IndexScan, "indexscan")
	add(h.IndexOnlyScan, "indexonlyscan")
	if len(parts) == 0 {
		return "(no hints: default optimizer)"
	}
	return strings.Join(parts, " ")
}

// Optimizer is a Selinger-style cost-based planner over the analyzed query.
// Sampling switches on the ComSys-grade correlation-aware estimation. It
// holds no per-plan state, so one Optimizer serves concurrent callers.
type Optimizer struct {
	Schema   *catalog.Schema
	Stats    StatsProvider
	Sampling bool
}

// Plan produces the cheapest physical plan for the query under the hints,
// and the number of join candidates costed on the way (the cloud clock
// converts it into optimization time). It is PlanArms for one hint set.
func (o *Optimizer) Plan(q *Query, h Hints) (*Node, int, error) {
	roots, cands, err := o.PlanArms(context.Background(), q, []Hints{h})
	if err != nil {
		return nil, 0, err
	}
	return roots[0], cands, nil
}

// estimates holds the cardinality inputs of a query that no hint set
// changes: per-relation statistics and filtered row counts, per-edge join
// selectivities.
type estimates struct {
	tstats   []*stats.TableStats
	filtered []float64
	edgeSels []float64
}

func (o *Optimizer) estimate(q *Query) (*estimates, error) {
	est := &estimates{
		tstats:   make([]*stats.TableStats, len(q.Scans)),
		filtered: make([]float64, len(q.Scans)),
		edgeSels: make([]float64, len(q.Edges)),
	}
	for i, si := range q.Scans {
		ts := o.Stats.TableStats(si.Table)
		if ts == nil {
			return nil, fmt.Errorf("planner: no statistics for table %s (run ANALYZE)", si.Table)
		}
		est.tstats[i] = ts
		est.filtered[i] = math.Max(float64(ts.Rows)*o.scanSel(si, ts), 0.5)
	}
	for i, e := range q.Edges {
		est.edgeSels[i] = o.edgeSel(q, e)
	}
	return est, nil
}

// rowsOf is the joint cardinality of a relation subset (order-independent).
func (est *estimates) rowsOf(q *Query, mask uint32) float64 {
	r := 1.0
	for i := range q.Scans {
		if mask&(1<<i) != 0 {
			r *= est.filtered[i]
		}
	}
	for i, e := range q.Edges {
		if mask&(1<<e.L) != 0 && mask&(1<<e.R) != 0 {
			r *= est.edgeSels[i]
		}
	}
	return math.Max(r, 0.5)
}

// perProbe is the rows one index probe of rel returns through edge.
func (est *estimates) perProbe(rel, edge int) float64 {
	return math.Max(est.filtered[rel]*est.edgeSels[edge], 1e-4)
}

// Join operators in tie-break order: a later operator replaces an earlier
// one only when strictly cheaper.
const (
	joinHash = iota
	joinMerge
	joinNestLoop
	joinIndexNestLoop
)

// edgeCols is the hint-independent view of one join edge the enumeration
// works on: each side's column as an identity (column IDs are dense over
// all scans' outputs; -1 when the scan does not output the column) and
// whether the column is indexed.
type edgeCols struct {
	lID, rID           int32
	lIndexed, rIndexed bool
}

// enumeration is one query's join enumeration for a family of hint sets.
// Everything that does not depend on the hint set is computed once; what
// does lives in flat tables indexed [mask*arms + arm], so the dynamic
// program's innermost loop runs over the arms of one (subset, partition)
// and allocates nothing.
type enumeration struct {
	o    *Optimizer
	q    *Query
	est  *estimates
	arms int
	pens []armPen

	scans [][]scanCand // per relation
	cols  [][]OutCol   // per relation
	edges []edgeCols

	// Per relation subset.
	rows     []float64 // joint cardinality
	sortRows []float64 // sortRows(rows) and its log2, for pricing merge-join sorts
	sortLog  []float64
	reach    []bool // some join tree covers the subset

	// Per (relation subset, arm): the cheapest plan's cost, the column its
	// output is sorted by (a column ID, or -1), and the choice that
	// produced it — a scans[] index for one relation, sub<<2|operator for
	// a join of best[sub] with best[mask^sub].
	cost   []float64
	sorted []int32
	choice []uint32

	candidates int
}

// PlanArms produces, for every hint set, the cheapest physical plan under
// it — one join enumeration costing all of them, not one per hint set.
// The result is what planning each hint set on its own returns, bit for
// bit; hint sets that reach the same subplan share its Nodes, and hint
// sets with the same plan share the root, so callers can tell distinct
// plans apart by pointer before hashing them. The int is the number of
// join candidates the enumeration costs for one hint set (it does not
// depend on the hint set). The context is polled once per relation
// subset; a cancelled enumeration returns the context's error.
func (o *Optimizer) PlanArms(ctx context.Context, q *Query, hints []Hints) ([]*Node, int, error) {
	k := len(q.Scans)
	if k == 0 {
		return nil, 0, fmt.Errorf("planner: no relations")
	}
	if k > 16 {
		return nil, 0, fmt.Errorf("planner: %d relations exceeds the enumeration limit", k)
	}
	est, err := o.estimate(q)
	if err != nil {
		return nil, 0, err
	}
	en := o.newEnumeration(q, est, hints)
	if err := en.run(ctx); err != nil {
		return nil, 0, err
	}
	full := uint32(1)<<k - 1
	if !en.reach[full] {
		return nil, 0, fmt.Errorf("planner: no join path found (disconnected join graph)")
	}
	roots := make([]*Node, len(hints))
	memo := make(map[consKey]*Node, 4*k)
	tops := make(map[*Node]*Node) // join tree → finished plan
	for a := range hints {
		joinRoot := en.node(memo, full, a)
		top, ok := tops[joinRoot]
		if !ok {
			if top, err = o.buildTop(q, joinRoot); err != nil {
				return nil, 0, err
			}
			tops[joinRoot] = top
		}
		roots[a] = top
	}
	return roots, en.candidates, nil
}

func (o *Optimizer) newEnumeration(q *Query, est *estimates, hints []Hints) *enumeration {
	k, arms := len(q.Scans), len(hints)
	en := &enumeration{o: o, q: q, est: est, arms: arms,
		pens:  make([]armPen, arms),
		scans: make([][]scanCand, k),
		cols:  make([][]OutCol, k),
		edges: make([]edgeCols, len(q.Edges)),
	}
	for a, h := range hints {
		en.pens[a] = penalties(h)
	}
	colBase := make([]int32, k)
	for i, si := range q.Scans {
		if i > 0 {
			colBase[i] = colBase[i-1] + int32(len(q.Scans[i-1].Needed))
		}
		en.cols[i] = scanCols(si)
		en.scans[i] = o.scanCands(si, est.tstats[i])
	}
	colID := func(rel int, col string) int32 {
		if pos := outPos(q.Scans[rel], col); pos >= 0 {
			return colBase[rel] + int32(pos)
		}
		return -1
	}
	for i, e := range q.Edges {
		_, lIndexed := o.Schema.IndexOn(q.Scans[e.L].Table, e.LCol)
		_, rIndexed := o.Schema.IndexOn(q.Scans[e.R].Table, e.RCol)
		en.edges[i] = edgeCols{lID: colID(e.L, e.LCol), rID: colID(e.R, e.RCol),
			lIndexed: lIndexed, rIndexed: rIndexed}
	}

	subsets := 1 << k
	en.rows = make([]float64, subsets)
	en.sortRows = make([]float64, subsets)
	en.sortLog = make([]float64, subsets)
	en.reach = make([]bool, subsets)
	en.cost = make([]float64, subsets*arms)
	en.sorted = make([]int32, subsets*arms)
	en.choice = make([]uint32, subsets*arms)
	for mask := 1; mask < subsets; mask++ {
		en.rows[mask] = est.rowsOf(q, uint32(mask))
	}
	for i := range q.Scans {
		// A scan's estimate is the filtered count itself, and the scan's
		// sort column moves from output position to column ID.
		mask := 1 << i
		en.rows[mask] = est.filtered[i]
		en.reach[mask] = true
		for a := range en.pens {
			c, cost := cheapestScan(en.scans[i], &en.pens[a])
			at := mask*arms + a
			en.cost[at], en.choice[at], en.sorted[at] = cost, uint32(c), -1
			if pos := en.scans[i][c].sorted; pos >= 0 {
				en.sorted[at] = colBase[i] + int32(pos)
			}
		}
	}
	for mask := 1; mask < subsets; mask++ {
		en.sortRows[mask] = sortRows(en.rows[mask])
		en.sortLog[mask] = math.Log2(en.sortRows[mask])
	}
	return en
}

// run is the dynamic program: for every relation subset of two or more
// relations, every ordered (left, right) partition with a join predicate
// across it, every join operator, every arm. Subsets ascend, partitions
// descend from (mask-1)&mask, operators follow the join* order, and a
// candidate replaces the incumbent only when strictly cheaper — the
// enumeration order is what breaks cost ties, so it is part of the
// result.
func (en *enumeration) run(ctx context.Context) error {
	q, arms := en.q, en.arms
	full := uint32(1)<<len(q.Scans) - 1
	for mask := uint32(1); mask <= full; mask++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("planner: enumeration cancelled: %w", err)
		}
		if mask&(mask-1) == 0 {
			continue
		}
		joinRows := en.rows[mask]
		out := int(mask) * arms
		outCost, outSorted, outChoice := en.cost[out:out+arms], en.sorted[out:out+arms], en.choice[out:out+arms]
		first := true
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			other := mask ^ sub
			if !en.reach[sub] || !en.reach[other] {
				continue
			}
			// The predicates crossing the partition, left side in sub:
			// the first one's columns are the merge keys, and the first
			// with an indexed right column drives the index nested loop
			// when the right side is a single relation.
			lKey, rKey := int32(-1), int32(-1)
			probe, probeCost := false, 0.0
			rightSingle := other&(other-1) == 0
			for ei, e := range q.Edges {
				flipped, ok := e.crosses(sub, other)
				if !ok {
					continue
				}
				ec := en.edges[ei]
				l, r, rRel, rIndexed := ec.lID, ec.rID, e.R, ec.rIndexed
				if flipped {
					l, r, rRel, rIndexed = ec.rID, ec.lID, e.L, ec.lIndexed
				}
				if l < 0 || r < 0 {
					continue
				}
				if lKey < 0 {
					lKey, rKey = l, r
				}
				if rightSingle && rIndexed && !probe {
					probe = true
					probeCost = indexProbeCost(float64(en.est.tstats[rRel].Rows),
						en.est.perProbe(rRel, ei), len(q.Scans[rRel].Filters))
				}
			}
			if lKey < 0 {
				continue // no join predicate crosses the partition
			}
			en.candidates += 3
			if probe {
				en.candidates++
			}

			lRows, rRows := en.rows[sub], en.rows[other]
			lSortRows, lSortLog := en.sortRows[sub], en.sortLog[sub]
			rSortRows, rSortLog := en.sortRows[other], en.sortLog[other]
			li, ri := int(sub)*arms, int(other)*arms
			lCost, rCost := en.cost[li:li+arms], en.cost[ri:ri+arms]
			lSorted, rSorted := en.sorted[li:li+arms], en.sorted[ri:ri+arms]
			for a := range outCost {
				p := &en.pens[a]
				l, r := lCost[a], rCost[a]
				best, op, sorted := hashJoinCost(l, r, lRows, rRows, joinRows)+p.hashJoin, uint32(joinHash), int32(-1)
				ml, mr := l, r
				if lSorted[a] != lKey {
					ml = sortCost(l, lSortRows, lSortLog)
				}
				if rSorted[a] != rKey {
					mr = sortCost(r, rSortRows, rSortLog)
				}
				if c := mergeJoinCost(ml, mr, lRows, rRows, joinRows) + p.mergeJoin; c < best {
					best, op, sorted = c, joinMerge, lKey
				}
				if c := nestLoopCost(l, r, lRows, rRows, joinRows) + p.nestLoop; c < best {
					best, op, sorted = c, joinNestLoop, -1
				}
				if probe {
					c := indexNestLoopCost(l, lRows, probeCost, joinRows)
					c += p.nestLoop
					c += p.indexScan
					if c < best {
						best, op, sorted = c, joinIndexNestLoop, -1
					}
				}
				if first || best < outCost[a] {
					outCost[a], outSorted[a], outChoice[a] = best, sorted, sub<<2|op
				}
			}
			first = false
		}
		en.reach[mask] = !first
	}
	return nil
}

// consKey identifies a Node by what determines it: the relation subset,
// the choice made there, the child Nodes and the cost. Arms that agree on
// all of it get the same Node.
type consKey struct {
	mask, choice uint32
	left, right  *Node
	cost         uint64
}

// node materializes arm a's cheapest plan for the subset, hash-consed
// through memo. Nodes are built only here — for choices that won — and
// are immutable from then on: they are shared between arms, and by the
// plan cache between requests.
func (en *enumeration) node(memo map[consKey]*Node, mask uint32, a int) *Node {
	at := int(mask)*en.arms + a
	key := consKey{mask: mask, choice: en.choice[at], cost: math.Float64bits(en.cost[at])}
	sub := key.choice >> 2
	if mask&(mask-1) != 0 {
		key.left, key.right = en.node(memo, sub, a), en.node(memo, mask^sub, a)
	}
	if n, ok := memo[key]; ok {
		return n
	}
	var n *Node
	p := &en.pens[a]
	if key.left == nil {
		rel := bits.TrailingZeros32(mask)
		n = scanNode(en.q.Scans[rel], en.scans[rel][key.choice], en.cols[rel], en.est.filtered[rel], p)
	} else {
		in, _ := joinInputsOf(en.q, key.left, key.right, sub, mask^sub, en.rows[mask])
		switch key.choice & 3 {
		case joinHash:
			n = in.hashJoin(p)
		case joinMerge:
			n = in.mergeJoin(p)
		case joinNestLoop:
			n = in.nestLoop(p)
		default:
			n = en.o.indexNestLoop(&in, en.q, en.est, mask^sub, p)
		}
	}
	memo[key] = n
	return n
}

// buildTop adds aggregation, ordering, projection, and limit above the join
// tree, producing the final plan.
func (o *Optimizer) buildTop(q *Query, root *Node) (*Node, error) {
	if q.HasAgg {
		agg := &Node{Op: OpAggregate, Left: root, SortedBy: -1}
		groupNDV := 1.0
		for _, g := range q.Groups {
			pos := root.ColIndex(q.Scans[g.Rel].Alias, g.Col)
			if pos == -1 {
				return nil, fmt.Errorf("planner: internal: group key %s.%s missing from join output", q.Scans[g.Rel].Alias, g.Col)
			}
			agg.GroupCols = append(agg.GroupCols, pos)
			agg.Cols = append(agg.Cols, root.Cols[pos])
			if ts := o.Stats.TableStats(q.Scans[g.Rel].Table); ts != nil {
				if cs := ts.Cols[colName(q.Scans[g.Rel], g.Col)]; cs != nil && cs.NDV > 0 {
					groupNDV *= cs.NDV
				}
			}
		}
		for _, out := range q.Outputs {
			if out.Agg == sqlparser.AggNone {
				continue
			}
			spec := AggSpec{Func: out.Agg, Col: -1}
			name := strings.ToLower(out.Agg.String()) + "(*)"
			typ := catalog.Int
			if !out.Star {
				pos := root.ColIndex(q.Scans[out.Rel].Alias, out.Col)
				if pos == -1 {
					return nil, fmt.Errorf("planner: internal: aggregate input %s missing", out.Col)
				}
				spec.Col = pos
				name = strings.ToLower(out.Agg.String()) + "(" + out.Col + ")"
				if out.Agg == sqlparser.AggMin || out.Agg == sqlparser.AggMax {
					typ = root.Cols[pos].Type
				}
				// SUM/AVG require integer input. Analyze already rejects
				// this at bind time; guard again at plan time so programs
				// assembling Query values directly cannot reach the
				// executor with a spec it would have to refuse.
				if (out.Agg == sqlparser.AggSum || out.Agg == sqlparser.AggAvg) &&
					root.Cols[pos].Type != catalog.Int {
					return nil, fmt.Errorf("planner: %s over non-integer column %s", out.Agg, out.Col)
				}
			}
			agg.Aggs = append(agg.Aggs, spec)
			agg.Cols = append(agg.Cols, OutCol{Alias: "", Name: name, Type: typ})
		}
		outRows := math.Min(math.Max(groupNDV, 1), root.EstRows)
		if len(q.Groups) == 0 {
			outRows = 1
		}
		agg.EstRows = outRows
		agg.EstCost = root.EstCost +
			root.EstRows*float64(len(agg.GroupCols)+len(agg.Aggs))*cpuOperatorCost +
			outRows*cpuTupleCost
		root = agg
	}

	if len(q.Orders) > 0 {
		sort := &Node{Op: OpSort, Left: root, Cols: root.Cols,
			EstRows: root.EstRows, SortedBy: -1}
		for _, ok := range q.Orders {
			var pos int
			if q.HasAgg {
				pos = -1
				for gi, g := range q.Groups {
					if g.Rel == ok.Rel && g.Col == ok.Col {
						pos = gi
						break
					}
				}
			} else {
				pos = root.ColIndex(q.Scans[ok.Rel].Alias, ok.Col)
			}
			if pos == -1 {
				return nil, fmt.Errorf("planner: internal: order key %s missing", ok.Col)
			}
			sort.SortCols = append(sort.SortCols, pos)
			sort.SortDesc = append(sort.SortDesc, ok.Desc)
		}
		rows := math.Max(root.EstRows, 2)
		sort.EstCost = root.EstCost + 2*rows*math.Log2(rows)*cpuOperatorCost + rows*cpuTupleCost
		root = sort
	}

	// Final projection into select-list order.
	proj := &Node{Op: OpProject, Left: root, EstRows: root.EstRows, SortedBy: -1}
	aggSeen := 0
	for _, out := range q.Outputs {
		var pos int
		if out.Agg != sqlparser.AggNone {
			pos = len(q.Groups) + aggSeen
			aggSeen++
		} else if q.HasAgg {
			pos = -1
			for gi, g := range q.Groups {
				if g.Rel == out.Rel && g.Col == out.Col {
					pos = gi
					break
				}
			}
		} else {
			pos = root.ColIndex(q.Scans[out.Rel].Alias, out.Col)
		}
		if pos == -1 || pos >= len(root.Cols) {
			return nil, fmt.Errorf("planner: internal: output %s unresolved", out.Col)
		}
		proj.Projection = append(proj.Projection, pos)
		proj.Cols = append(proj.Cols, root.Cols[pos])
	}
	proj.EstCost = root.EstCost + root.EstRows*cpuTupleCost*0.1
	root = proj

	if q.Limit >= 0 {
		lim := &Node{Op: OpLimit, Left: root, N: q.Limit, Cols: root.Cols,
			EstRows: math.Min(float64(q.Limit), root.EstRows),
			EstCost: root.EstCost, SortedBy: -1}
		root = lim
	}
	return root, nil
}
