package executor

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"bao/internal/catalog"
	"bao/internal/planner"
	"bao/internal/sqlparser"
	"bao/internal/storage"
)

// This file is the oracle for the product pipeline (batch.go and the
// operator bodies in executor.go): the value-row, tuple-at-a-time volcano
// evaluator. Every operator fully materializes its output as a
// []storage.Row, and every scanned, joined, and projected row is carved
// from the run's value chunk. The operator bodies are the ones the product
// ran before it passed row-id tuples, moved here verbatim when they left
// it (methods on reference, so they keep their names), together with the
// materializing hash join and string-builder join key the batch pipeline
// replaced before that. Two edits: the naive nested loop finds its matches
// through the string-key map the hash join uses, instead of the product's
// chained table, and indexBounds has the int64-limit fix indexSpan has.
// The oracle shares with the product only the Executor's mechanics (page
// accounting, cancellation ticks, faults, newRow) and three value helpers
// (compareNullable, aggInputType, appendGroupVal). The golden, parity,
// differential, and fuzz tests all compare against it.

// reference runs the oracle's operator bodies on an Executor.
type reference struct{ *Executor }

// runReference is RunCtx over the volcano evaluator: same context, fault,
// and cancellation contract, eval in place of collect.
func (e *Executor) runReference(ctx context.Context, plan *planner.Node) (rows []storage.Row, err error) {
	e.ctx = ctx
	e.sinceCheck = 0
	e.runPages = 0
	defer func() {
		e.ctx = nil
		r := recover()
		if r == nil {
			return
		}
		in, ok := r.(*execInterrupt)
		if !ok {
			panic(r)
		}
		rows = nil
		if in.cancelled {
			err = &DeadlineExceededError{Counters: e.C, Cause: in.cause}
		} else {
			err = in.cause
		}
	}()
	rows, err = reference{e}.eval(plan)
	if err != nil {
		return nil, err
	}
	e.C.RowsOut += int64(len(rows))
	return rows, nil
}

// eval materializes n's full output, recording, when tracing, actual
// output cardinality.
func (e reference) eval(n *planner.Node) ([]storage.Row, error) {
	rows, err := e.evalOp(n)
	if err != nil {
		return nil, err
	}
	if e.Trace != nil {
		e.Trace[n] = int64(len(rows))
	}
	return rows, nil
}

func (e reference) evalOp(n *planner.Node) ([]storage.Row, error) {
	switch n.Op {
	case planner.OpSeqScan:
		var out []storage.Row
		if err := e.seqScanYield(n, func(r storage.Row) { out = append(out, r) }); err != nil {
			return nil, err
		}
		return out, nil

	case planner.OpIndexScan, planner.OpIndexOnlyScan:
		if n.Param {
			return nil, fmt.Errorf("executor: parameterized index scan outside nested loop")
		}
		var out []storage.Row
		if err := e.indexScanYield(n, func(r storage.Row) { out = append(out, r) }); err != nil {
			return nil, err
		}
		return out, nil

	case planner.OpNestLoop:
		left, err := e.eval(n.Left)
		if err != nil {
			return nil, err
		}
		if n.Right.Param {
			return e.indexNestLoopRows(n, left)
		}
		right, err := e.eval(n.Right)
		if err != nil {
			return nil, err
		}
		return e.nestLoopRows(n, left, right), nil

	case planner.OpHashJoin:
		left, err := e.eval(n.Left)
		if err != nil {
			return nil, err
		}
		right, err := e.eval(n.Right)
		if err != nil {
			return nil, err
		}
		return e.hashJoinLegacy(n, left, right), nil

	case planner.OpMergeJoin:
		left, err := e.eval(n.Left)
		if err != nil {
			return nil, err
		}
		right, err := e.eval(n.Right)
		if err != nil {
			return nil, err
		}
		return e.mergeJoinRows(n, left, right), nil

	case planner.OpSort:
		rows, err := e.eval(n.Left)
		if err != nil {
			return nil, err
		}
		e.sortRows(n, rows)
		return rows, nil

	case planner.OpAggregate:
		rows, err := e.eval(n.Left)
		if err != nil {
			return nil, err
		}
		agg, err := e.newAggregator(n)
		if err != nil {
			return nil, err
		}
		agg.feed(rows)
		return agg.finish(), nil

	case planner.OpProject:
		rows, err := e.eval(n.Left)
		if err != nil {
			return nil, err
		}
		return e.projectRows(n, rows), nil

	case planner.OpLimit:
		rows, err := e.eval(n.Left)
		if err != nil {
			return nil, err
		}
		if len(rows) > n.N {
			rows = rows[:n.N]
		}
		return rows, nil
	}
	return nil, fmt.Errorf("executor: unsupported operator %v", n.Op)
}

// hashJoinLegacy is the materializing hash join: an unsized index map
// keyed by string-builder keys over fully materialized inputs. The product
// replaces it with a streamed build of row-id tuples into one chained
// table and a batch-at-a-time probe (hashJoin); each charges its own copy
// of hashJoinCharge.
func (e reference) hashJoinLegacy(n *planner.Node, left, right []storage.Row) []storage.Row {
	table := make(map[string][]int)
	for i, r := range right {
		e.tick(1)
		if k, ok := rowKey(r, n.RightKeys); ok {
			table[k] = append(table[k], i)
		}
	}
	var out []storage.Row
	for _, l := range left {
		e.tick(1)
		k, ok := rowKey(l, n.LeftKeys)
		if !ok {
			continue
		}
		for _, ri := range table[k] {
			e.tick(1)
			out = append(out, joinRowsAlloc(l, right[ri]))
		}
	}
	e.hashJoinCharge(int64(len(right)), int64(len(left)), int64(len(out)))
	return out
}

// joinRowsAlloc is the oracle's own copy of the product's pre-chunk
// joinRows: one allocation per output row, so the hash join it checks
// shares neither the table nor the row carving with the product.
func joinRowsAlloc(l, r storage.Row) storage.Row {
	out := make(storage.Row, 0, len(l)+len(r))
	out = append(out, l...)
	return append(out, r...)
}

// rowKey builds a composite hash key from join key values; ok is false when
// any key is NULL (NULLs never join). String-builder form; the product
// hashes the key values and compares them instead, and must agree on
// which rows match.
func rowKey(r storage.Row, keys []int) (string, bool) {
	var sb strings.Builder
	for _, k := range keys {
		v := r[k]
		if v.Null {
			return "", false
		}
		sb.WriteString(v.String())
		sb.WriteByte(0)
	}
	return sb.String(), true
}

// growRows returns rows with room for n more, doubling the capacity when
// it runs out. append's own policy grows a large slice 1.25× at a time,
// which on a slice of row headers (pointers, so every regrowth is
// allocated, cleared and scanned) costs about 5 N headers to collect N
// rows; doubling costs at most 3 N.
func growRows(rows []storage.Row, n int) []storage.Row {
	if len(rows)+n <= cap(rows) {
		return rows
	}
	grown := make([]storage.Row, len(rows), max(2*cap(rows), len(rows)+n))
	copy(grown, rows)
	return grown
}

// scanBinding resolves a scan node's output columns and filters to storage
// column positions.
type scanBinding struct {
	tab     *storage.Table
	outPos  []int // storage column index per output column
	filtPos []int // storage column index per filter
}

func (e reference) bind(n *planner.Node) (*scanBinding, error) {
	tab, ok := e.DB.Table(n.Table)
	if !ok {
		return nil, fmt.Errorf("executor: missing table %s", n.Table)
	}
	b := &scanBinding{tab: tab}
	for _, c := range n.Cols {
		ci := tab.Meta.ColumnIndex(c.Name)
		if ci == -1 {
			return nil, fmt.Errorf("executor: missing column %s.%s", n.Table, c.Name)
		}
		b.outPos = append(b.outPos, ci)
	}
	for i := range n.Filters {
		ci := tab.Meta.ColumnIndex(n.Filters[i].Col)
		if ci == -1 {
			return nil, fmt.Errorf("executor: missing filter column %s.%s", n.Table, n.Filters[i].Col)
		}
		b.filtPos = append(b.filtPos, ci)
	}
	return b, nil
}

// passes applies the node's residual filters to stored row ri.
func (b *scanBinding) passes(n *planner.Node, ri int) bool {
	for i := range n.Filters {
		if !n.Filters[i].Matches(b.tab.Cols[b.filtPos[i]].Value(ri)) {
			return false
		}
	}
	return true
}

// emit projects stored row ri into the scan's output shape.
func (e reference) emit(b *scanBinding, ri int) storage.Row {
	out := e.newRow(len(b.outPos))
	for i, ci := range b.outPos {
		out[i] = b.tab.Cols[ci].Value(ri)
	}
	return out
}

// seqScanYield reads the table page by page, applying the pushed-down
// residual predicates as each page is read and yielding passing rows. CPU
// is billed per page (every stored row is touched once, plus one predicate
// evaluation per filter), so partial work at an abort reflects the pages
// actually read.
func (e reference) seqScanYield(n *planner.Node, yield func(storage.Row)) error {
	b, err := e.bind(n)
	if err != nil {
		return err
	}
	nRows := b.tab.NumRows()
	perRow := int64(1 + len(n.Filters))
	for p := 0; p < b.tab.NumPages(); p++ {
		e.page(n.Table, false, p, false)
		lo := p * storage.RowsPerPage
		hi := lo + storage.RowsPerPage
		if hi > nRows {
			hi = nRows
		}
		for ri := lo; ri < hi; ri++ {
			if b.passes(n, ri) {
				yield(e.emit(b, ri))
			}
		}
		e.C.CPUOps += int64(hi-lo) * perRow
	}
	return nil
}

// indexBounds derives the index probe range from the node's index filter;
// ok is false when the filter admits no value at all (an exclusive integer
// bound at the int64 limit, which tightening would wrap).
func indexBounds(f *planner.Filter) (lo, hi *storage.Value, ok bool) {
	if f == nil {
		return nil, nil, true
	}
	switch f.Kind {
	case planner.FEq:
		v := f.Val
		return &v, &v, true
	case planner.FRange:
		if f.Lo != nil {
			v := f.Lo.V
			if !f.Lo.Incl && v.Kind == catalog.Int {
				if v.I == math.MaxInt64 {
					return nil, nil, false
				}
				v = storage.IntVal(v.I + 1)
			}
			lo = &v
		}
		if f.Hi != nil {
			v := f.Hi.V
			if !f.Hi.Incl && v.Kind == catalog.Int {
				if v.I == math.MinInt64 {
					return nil, nil, false
				}
				v = storage.IntVal(v.I - 1)
			}
			hi = &v
		}
		return lo, hi, true
	}
	return nil, nil, true
}

// indexScanYield walks the index range and yields matching rows. The
// B-tree descent is billed at descentOpsPerLevel per level — the same rate
// indexNestLoop charges per probe and the planner costs descents at
// (optimizer cost model, 4×log2) — so index access paths and index
// nested loops bill symmetrically. An empty range ([a,a)) touches no leaf
// pages: it bills exactly one descent, so identical no-match probes bill
// identically regardless of where the miss lands relative to leaf-page
// boundaries.
func (e reference) indexScanYield(n *planner.Node, yield func(storage.Row)) error {
	b, err := e.bind(n)
	if err != nil {
		return err
	}
	ix, ok := b.tab.Index(n.IndexCol)
	if !ok {
		return fmt.Errorf("executor: missing index on %s.%s", n.Table, n.IndexCol)
	}
	lo, hi, ok := indexBounds(n.IndexFilter)
	a, z := ix.Range(lo, hi)
	if !ok {
		z = a
	}
	// Charge the descent plus entries spanned.
	logN := int64(math.Log2(float64(len(ix.RowIDs) + 2)))
	e.C.CPUOps += descentOpsPerLevel*logN + int64(z-a)
	if z > a {
		for p := a / storage.IndexEntriesPerPage; p <= z/storage.IndexEntriesPerPage && p < ix.NumPages(); p++ {
			e.page(n.Table, true, p, true)
		}
	}
	indexOnly := n.Op == planner.OpIndexOnlyScan
	for pos := a; pos < z; pos++ {
		e.tick(1)
		ri := int(ix.RowIDs[pos])
		// Strict string bounds are not tightened by Range; re-check.
		if n.IndexFilter != nil && !n.IndexFilter.Matches(ix.Col.Value(ri)) {
			continue
		}
		if !indexOnly {
			e.page(n.Table, false, ri/storage.RowsPerPage, true)
			// Heap fetches pay per-tuple overhead (pin, deform) that
			// sequential scans amortize.
			e.C.CPUOps += heapFetchOps
		}
		if !b.passes(n, ri) {
			continue
		}
		yield(e.emit(b, ri))
		e.C.CPUOps += int64(1 + len(n.Filters))
	}
	return nil
}

// joinRows concatenates a matched pair into one output row.
func (e reference) joinRows(l, r storage.Row) storage.Row {
	out := e.newRow(len(l) + len(r))
	copy(out, l)
	copy(out[len(l):], r)
	return out
}

// hashJoinCharge bills a completed hash join: 1.5 passes over the build
// side (hash + insert, averaged), one over the probe side, and one tuple
// touch per output row.
func (e reference) hashJoinCharge(build, probe, out int64) {
	e.C.CPUOps += build*2 + probe + out
}

// mergeJoinRows merges two sorted, materialized inputs (a merge join needs
// its inputs whole).
func (e reference) mergeJoinRows(n *planner.Node, left, right []storage.Row) []storage.Row {
	lk, rk := n.LeftKeys[0], n.RightKeys[0]
	var out []storage.Row
	i, j := 0, 0
	for i < len(left) && j < len(right) {
		e.tick(1)
		lv, rv := left[i][lk], right[j][rk]
		if lv.Null {
			i++
			continue
		}
		if rv.Null {
			j++
			continue
		}
		c := lv.Compare(rv)
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Cross product of the equal groups, checking secondary keys.
			i2 := i
			for i2 < len(left) && !left[i2][lk].Null && left[i2][lk].Compare(lv) == 0 {
				i2++
			}
			j2 := j
			for j2 < len(right) && !right[j2][rk].Null && right[j2][rk].Compare(rv) == 0 {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					e.tick(1)
					if extraKeysMatch(left[a], right[b], n.LeftKeys, n.RightKeys) {
						out = append(growRows(out, 1), e.joinRows(left[a], right[b]))
					}
				}
			}
			i, j = i2, j2
		}
	}
	e.C.CPUOps += int64(len(left)) + int64(len(right)) + int64(len(out))
	return out
}

func extraKeysMatch(l, r storage.Row, lks, rks []int) bool {
	for k := 1; k < len(lks); k++ {
		if !l[lks[k]].Equal(r[rks[k]]) {
			return false
		}
	}
	return true
}

// nestLoopRows runs a naive nested loop over materialized inputs. Matches
// are computed via hashing; billing is the naive loop's |outer|×|inner|
// comparisons plus the inner's rescan I/O.
func (e reference) nestLoopRows(n *planner.Node, left, right []storage.Row) []storage.Row {
	table := make(map[string][]int)
	for i, r := range right {
		e.tick(1)
		if k, ok := rowKey(r, n.RightKeys); ok {
			table[k] = append(table[k], i)
		}
	}
	var out []storage.Row
	for _, l := range left {
		e.tick(1)
		k, ok := rowKey(l, n.LeftKeys)
		if !ok {
			continue
		}
		for _, ri := range table[k] {
			e.tick(1)
			out = append(growRows(out, 1), e.joinRows(l, right[ri]))
		}
	}
	// Cost-faithful charges: |outer|×|inner| comparisons plus the inner's
	// rescan I/O for every outer row beyond the first.
	e.C.CPUOps += int64(len(left))*int64(len(right)) + int64(len(out))
	if rescans := int64(len(left)) - 1; rescans > 0 {
		if n.Right.Op == planner.OpSeqScan {
			if tab, ok := e.DB.Table(n.Right.Table); ok {
				pages := int64(tab.NumPages())
				if pages <= int64(e.Pool.Capacity()) {
					e.C.PageHits += rescans * pages
				} else {
					e.C.PageMisses += rescans * pages
				}
			}
		} else {
			// Non-scan inners are materialized: re-emitting tuples is CPU.
			e.C.CPUOps += rescans * int64(len(right))
		}
	}
	return out
}

// indexNestLoopRows probes the inner relation's index once per outer row.
// The inner is the parameterized scan n.Right; only the outer side is
// pre-materialized (index probes are inherently row-at-a-time).
func (e reference) indexNestLoopRows(n *planner.Node, left []storage.Row) ([]storage.Row, error) {
	inner := n.Right
	b, err := e.bind(inner)
	if err != nil {
		return nil, err
	}
	ix, ok := b.tab.Index(inner.IndexCol)
	if !ok {
		return nil, fmt.Errorf("executor: missing index on %s.%s", inner.Table, inner.IndexCol)
	}
	// Which join key pair corresponds to the indexed column?
	probe := -1
	for i, rk := range n.RightKeys {
		if inner.Cols[rk].Name == inner.IndexCol {
			probe = i
			break
		}
	}
	if probe == -1 {
		return nil, fmt.Errorf("executor: index nested loop without a key on %s", inner.IndexCol)
	}
	logN := int64(math.Log2(float64(len(ix.RowIDs) + 2)))
	var out []storage.Row
	for _, l := range left {
		e.tick(1)
		key := l[n.LeftKeys[probe]]
		if key.Null {
			continue
		}
		// Each probe is a full B-tree descent.
		e.C.CPUOps += descentOpsPerLevel * logN
		a, z := ix.Range(&key, &key)
		if z > a {
			e.page(inner.Table, true, a/storage.IndexEntriesPerPage, true)
		}
		for pos := a; pos < z; pos++ {
			ri := int(ix.RowIDs[pos])
			e.page(inner.Table, false, ri/storage.RowsPerPage, true)
			e.C.CPUOps += heapFetchOps
			if !b.passes(inner, ri) {
				continue
			}
			r := e.emit(b, ri)
			okAll := true
			for k := range n.LeftKeys {
				if k == probe {
					continue
				}
				if !l[n.LeftKeys[k]].Equal(r[n.RightKeys[k]]) {
					okAll = false
					break
				}
			}
			if okAll {
				out = append(growRows(out, 1), e.joinRows(l, r))
			}
			e.C.CPUOps += int64(1 + len(inner.Filters))
		}
	}
	e.C.CPUOps += int64(len(out))
	return out, nil
}

// sortRows sorts rows in place by the node's sort spec. The amortized
// cancellation check is threaded into the comparator, so a deadline or
// disconnect interrupts the O(n log n) loop itself rather than waiting for
// the sort to finish; the ticks are cancellation cadence only and do not
// perturb the exact CPUOps charge, which stays 2·n·log2(n).
func (e reference) sortRows(n *planner.Node, rows []storage.Row) {
	slices.SortStableFunc(rows, func(a, b storage.Row) int {
		e.tick(1)
		for k, col := range n.SortCols {
			c := compareNullable(a[col], b[col])
			if c == 0 {
				continue
			}
			if n.SortDesc[k] {
				return -c
			}
			return c
		}
		return 0
	})
	if len(rows) > 1 {
		e.C.CPUOps += 2 * int64(len(rows)) * int64(math.Log2(float64(len(rows))))
	}
}

// aggState accumulates one group's aggregates.
type aggState struct {
	group  storage.Row
	counts []int64
	sums   []int64
	mins   []storage.Value
	maxs   []storage.Value
	inited []bool
}

// aggregator accumulates grouped aggregates incrementally, fed batch by
// batch without materializing the input; billing depends only on the rows
// fed, not on how they were batched.
type aggregator struct {
	e      reference
	n      *planner.Node
	groups map[string]*aggState
	order  []string
	single *aggState // the one state of an ungrouped aggregate
	rows   int64
	kb     []byte // reusable group-key buffer
}

// newAggregator validates the aggregate specs and returns an empty
// accumulator. SUM and AVG over a non-integer column are rejected here —
// the planner already refuses them at bind time (planner.Analyze) and plan
// time (buildTop); this guards hand-built plans, which previously summed
// nothing and silently returned 0 while counts kept incrementing.
func (e reference) newAggregator(n *planner.Node) (*aggregator, error) {
	for _, spec := range n.Aggs {
		if (spec.Func == sqlparser.AggSum || spec.Func == sqlparser.AggAvg) && spec.Col >= 0 {
			if t := aggInputType(n, spec.Col); t != catalog.Int {
				return nil, fmt.Errorf("executor: %s over non-integer column (type %v)", spec.Func, t)
			}
		}
	}
	return &aggregator{e: e, n: n, groups: make(map[string]*aggState)}, nil
}

// feed accumulates a slice of input rows into the group states. The
// ungrouped case keeps a single state and skips key building entirely —
// the common COUNT/MIN/MAX-over-everything shape stays off the map.
func (a *aggregator) feed(rows []storage.Row) {
	e, n := a.e, a.n
	na := len(n.Aggs)
	if len(rows) == 0 {
		return
	}
	if len(n.GroupCols) == 0 {
		e.tick(len(rows))
		a.rows += int64(len(rows))
		st := a.single
		if st == nil {
			st = &aggState{counts: make([]int64, na), sums: make([]int64, na),
				mins: make([]storage.Value, na), maxs: make([]storage.Value, na),
				inited: make([]bool, na)}
			a.single = st
			a.groups[""] = st
			a.order = append(a.order, "")
		}
		for _, r := range rows {
			st.update(n.Aggs, r)
		}
		return
	}
	for _, r := range rows {
		e.tick(1)
		a.rows++
		kb := a.kb[:0]
		for _, g := range n.GroupCols {
			kb = appendGroupVal(kb, r[g])
		}
		a.kb = kb
		st := a.groups[string(kb)]
		if st == nil {
			st = &aggState{counts: make([]int64, na), sums: make([]int64, na),
				mins: make([]storage.Value, na), maxs: make([]storage.Value, na),
				inited: make([]bool, na)}
			for _, g := range n.GroupCols {
				st.group = append(st.group, r[g])
			}
			k := string(kb)
			a.groups[k] = st
			a.order = append(a.order, k)
		}
		st.update(n.Aggs, r)
	}
}

// update folds one input row into the group's accumulators.
func (st *aggState) update(aggs []planner.AggSpec, r storage.Row) {
	for ai, spec := range aggs {
		if spec.Col == -1 { // COUNT(*)
			st.counts[ai]++
			continue
		}
		v := r[spec.Col]
		if v.Null {
			continue
		}
		st.counts[ai]++
		if v.Kind == catalog.Int {
			st.sums[ai] += v.I
		}
		if !st.inited[ai] {
			st.mins[ai], st.maxs[ai] = v, v
			st.inited[ai] = true
		} else {
			if v.Compare(st.mins[ai]) < 0 {
				st.mins[ai] = v
			}
			if v.Compare(st.maxs[ai]) > 0 {
				st.maxs[ai] = v
			}
		}
	}
}

// finish bills the aggregation and renders the output rows. Empty-group
// NULLs (MIN/MAX over all-NULL input, SUM/AVG over zero non-NULL rows)
// are typed from the input column's kind, so MIN over an empty string
// column yields a string-typed NULL rather than an integer one.
func (a *aggregator) finish() []storage.Row {
	e, n := a.e, a.n
	na := len(n.Aggs)
	e.C.CPUOps += a.rows * int64(len(n.GroupCols)+na+1)
	nullFor := func(spec planner.AggSpec) storage.Value {
		return storage.NullVal(aggInputType(n, spec.Col))
	}
	// An ungrouped aggregate over zero rows still yields one row.
	if len(n.GroupCols) == 0 && len(a.order) == 0 {
		row := e.newRow(na)[:0]
		for _, spec := range n.Aggs {
			if spec.Func == sqlparser.AggCount {
				row = append(row, storage.IntVal(0))
			} else {
				row = append(row, nullFor(spec))
			}
		}
		return []storage.Row{row}
	}
	out := make([]storage.Row, 0, len(a.order))
	for _, k := range a.order {
		st := a.groups[k]
		row := append(e.newRow(len(st.group) + na)[:0], st.group...)
		for ai, spec := range n.Aggs {
			switch spec.Func {
			case sqlparser.AggCount:
				row = append(row, storage.IntVal(st.counts[ai]))
			case sqlparser.AggSum:
				if st.counts[ai] == 0 {
					row = append(row, nullFor(spec))
				} else {
					row = append(row, storage.IntVal(st.sums[ai]))
				}
			case sqlparser.AggAvg:
				if st.counts[ai] == 0 {
					row = append(row, nullFor(spec))
				} else {
					row = append(row, storage.IntVal(st.sums[ai]/st.counts[ai]))
				}
			case sqlparser.AggMin:
				if !st.inited[ai] {
					row = append(row, nullFor(spec))
				} else {
					row = append(row, st.mins[ai])
				}
			case sqlparser.AggMax:
				if !st.inited[ai] {
					row = append(row, nullFor(spec))
				} else {
					row = append(row, st.maxs[ai])
				}
			}
		}
		out = append(out, row)
	}
	return out
}

// projectRows projects one batch of rows into the node's output shape.
func (e reference) projectRows(n *planner.Node, rows []storage.Row) []storage.Row {
	e.tick(len(rows))
	out := make([]storage.Row, len(rows))
	for i, r := range rows {
		pr := e.newRow(len(n.Projection))
		for j, p := range n.Projection {
			pr[j] = r[p]
		}
		out[i] = pr
	}
	e.C.CPUOps += int64(len(rows))
	return out
}
