// Package executor evaluates physical plans over stored tables. Results
// are always exact; performance accounting is *cost-faithful*: every
// operator charges the CPU operations and buffer-pool page accesses the
// chosen algorithm would really perform, even where the implementation
// computes the same rows more efficiently (a naive nested-loop join's
// matches are found via hashing, but it is billed |outer|×|inner|
// comparisons and the inner's rescan I/O). The counters drive the cloud
// package's deterministic simulated clock, which is the latency metric the
// experiments report — see DESIGN.md §2 for why this substitution preserves
// the paper's behaviour.
//
// There is one evaluation pipeline, batch-streaming and single-goroutine
// (batch.go): scans push batches of storage.RowsPerPage tuples up through
// the operator tree, applying pushed-down residual predicates page by page
// as they read; hash joins stream the build side into one chained table
// sized from the rows actually built (never from the planner's estimate)
// and probe batch-at-a-time; and aggregates, projections, and limits
// consume batches instead of fully materialized inputs. Every row an
// operator creates is carved from a per-run value chunk (newRow) instead
// of being allocated on its own, and nothing is kept on the Executor
// between runs, because callers retain result rows. All work charging
// lives in the operator bodies in this file. The tuple-at-a-time volcano
// evaluator the pipeline replaced lives on in reference_test.go as the
// oracle: golden, parity, differential, and fuzz tests require
// byte-identical rows, Counters, Trace cardinalities, and Fault page
// ordinals against it.
package executor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"bao/internal/bufferpool"
	"bao/internal/catalog"
	"bao/internal/planner"
	"bao/internal/sqlparser"
	"bao/internal/storage"
)

// Per-operation CPU charge constants. Heap fetches through an index pay
// the per-tuple overhead (buffer pin, tuple deform) that sequential scans
// amortize across a page; B-tree descents pay per level. These are what
// keep a mis-chosen index nested loop catastrophic even when the whole
// database is cached in RAM, matching the paper's in-memory tail behavior.
const (
	heapFetchOps       = 100
	descentOpsPerLevel = 4
)

// Counters accumulate machine-independent work units during execution.
type Counters struct {
	CPUOps     int64 // tuple touches, comparisons, hash and sort operations
	PageHits   int64 // buffer-pool hits
	PageMisses int64 // physical page reads
	RandReads  int64 // subset of PageMisses issued as random I/O
	RowsOut    int64 // rows produced by the plan root
}

// Add accumulates another counter set.
func (c *Counters) Add(o Counters) {
	c.CPUOps += o.CPUOps
	c.PageHits += o.PageHits
	c.PageMisses += o.PageMisses
	c.RandReads += o.RandReads
	c.RowsOut += o.RowsOut
}

// ErrDeadlineExceeded is the sentinel for executions stopped by context
// cancellation (deadline or client disconnect). Test with errors.Is; the
// concrete *DeadlineExceededError carries the counters accumulated before
// the plan was abandoned, which is the censored observation's evidence.
var ErrDeadlineExceeded = errors.New("executor: deadline exceeded")

// DeadlineExceededError reports an execution cancelled mid-plan. Counters
// hold the work charged up to the cancellation point — for fault-injected
// stalls this is exact and deterministic (the stall pins the abort to a
// page ordinal), for free-running cancellation it is wherever the
// amortized check caught the context.
type DeadlineExceededError struct {
	Counters Counters // work accumulated before execution stopped
	Cause    error    // the context's error (DeadlineExceeded or Canceled)
}

// Error formats the cancellation with the work wasted so far.
func (e *DeadlineExceededError) Error() string {
	return fmt.Sprintf("executor: execution cancelled after %d page accesses, %d cpu ops: %v",
		e.Counters.PageHits+e.Counters.PageMisses, e.Counters.CPUOps, e.Cause)
}

// Is makes errors.Is(err, ErrDeadlineExceeded) match.
func (e *DeadlineExceededError) Is(target error) bool { return target == ErrDeadlineExceeded }

// Unwrap exposes the context cause, so errors.Is against
// context.DeadlineExceeded / context.Canceled distinguishes a deadline
// from a disconnect.
func (e *DeadlineExceededError) Unwrap() error { return e.Cause }

// cancelCheckInterval is how many progress ticks (page accesses and row
// batches) pass between context checks: large enough to keep ctx.Err()
// off the per-row hot path, small enough that a cancelled query stops
// within a bounded slice of work.
const cancelCheckInterval = 1024

// Fault is the executor's fault-injection hook: after exactly AfterPages
// page accesses within one RunCtx, the executor either returns Err (a
// deterministic mid-plan failure) or, when Stall is set, blocks as if on
// stuck I/O until the run's context is cancelled. Because the trigger is a
// page ordinal — not wall time — the counters at the abort point are
// byte-identical across runs and race mode, which is what makes the
// timeout, error, and cancellation paths deterministically testable.
type Fault struct {
	AfterPages int64 // trigger on the AfterPages-th page access (1-based)
	Err        error // non-nil: fail the run with this error
	Stall      bool  // block until the context is cancelled instead
}

// execInterrupt unwinds a cancelled or faulted execution out of the
// operator tree via panic/recover, so the per-operator code paths carry no
// error plumbing for a condition checked once per cancelCheckInterval.
type execInterrupt struct {
	cause     error
	cancelled bool // true for context cancellation (→ DeadlineExceededError)
}

// Executor runs plans against a database through a buffer pool. When
// Trace is non-nil, execution records each node's actual output
// cardinality into it (EXPLAIN ANALYZE). Fault, when non-nil, injects a
// deterministic failure or stall (see Fault).
type Executor struct {
	DB    *storage.Database
	Pool  *bufferpool.Pool
	C     Counters
	Trace map[*planner.Node]int64
	Fault *Fault

	ctx        context.Context // current run's context; nil outside RunCtx
	sinceCheck int             // progress ticks since the last context check
	runPages   int64           // page accesses within the current run (fault trigger)
	chunk      []storage.Value // uncarved tail of the current run's row chunk
	chunkSize  int             // values in the run's last chunk (growth state)
}

// New constructs an executor.
func New(db *storage.Database, pool *bufferpool.Pool) *Executor {
	return &Executor{DB: db, Pool: pool}
}

// Run executes the plan and returns its rows. Counters accumulate into
// e.C (callers reset it between queries via ResetCounters).
func (e *Executor) Run(plan *planner.Node) ([]storage.Row, error) {
	return e.RunCtx(context.Background(), plan)
}

// RunCtx executes the plan under a context: cancellation is checked every
// cancelCheckInterval progress ticks, and a cancelled run stops charging
// work and returns a *DeadlineExceededError carrying the counters
// accumulated so far (partial work stays in e.C — it was really spent).
func (e *Executor) RunCtx(ctx context.Context, plan *planner.Node) (rows []storage.Row, err error) {
	e.ctx = ctx
	e.sinceCheck = 0
	e.runPages = 0
	defer func() {
		e.ctx = nil
		// Dropped on every path, an abort included: the rows carved so far
		// belong to the caller (or to nobody), never to the next run.
		e.chunk, e.chunkSize = nil, 0
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
	rows, err = e.collect(plan)
	if err != nil {
		return nil, err
	}
	e.C.RowsOut += int64(len(rows))
	return rows, nil
}

// ResetCounters zeroes the accumulated counters.
func (e *Executor) ResetCounters() { e.C = Counters{} }

// Row-chunk geometry. Chunks start small, so a point query pays for 31
// values, and roughly double (2n+1) up to maxChunkValues. The sizes are one
// short of a power of two because the allocator prepends an 8-byte header
// to a pointerful object of this size: 511 values × 32 B + 8 fills the
// 16 KiB size class exactly, where 512 would round up to the 18 KiB one
// (if the runtime drops the header, the cost is that rounding, nothing
// else). The bound is part of the design, not a tunable: a chunk stays
// well inside the allocator's 32 KiB small-object limit, so it comes from
// the per-P size-class caches rather than the large-object path (heap
// lock, a fresh span and a separate clear per chunk) that serving
// goroutines and the trainer would contend on, and a retained result row
// pins at most 16 KiB.
const (
	minChunkValues = 31
	maxChunkValues = 511
)

// newRow returns a zeroed w-value row carved from the run's value chunk.
// Capacity is capped at w, so an append to the row copies it instead of
// writing into the next row's values. A chunk is never reused — result
// rows outlive the run, and a retained row keeps its whole chunk (at most
// 16 KiB) reachable — and a row wider than a chunk gets its own
// allocation.
func (e *Executor) newRow(w int) storage.Row {
	if w > len(e.chunk) {
		e.chunkSize = min(max(2*e.chunkSize+1, minChunkValues), maxChunkValues)
		e.chunk = make([]storage.Value, max(e.chunkSize, w))
	}
	r := e.chunk[:w:w]
	e.chunk = e.chunk[w:]
	return r
}

// tick advances the cancellation progress counter by n units of work and,
// once per cancelCheckInterval, polls the run's context. The common case
// is one integer add and compare; the context read is amortized away from
// the per-row path.
func (e *Executor) tick(n int) {
	e.sinceCheck += n
	if e.sinceCheck < cancelCheckInterval {
		return
	}
	e.sinceCheck = 0
	if e.ctx == nil {
		return
	}
	if err := e.ctx.Err(); err != nil {
		panic(&execInterrupt{cause: err, cancelled: true})
	}
}

// faultStep fires the injected fault when the run reaches the configured
// page ordinal. The trigger precedes the page charge, so counters at the
// abort exclude the faulting access and depend only on the plan — never on
// timing.
func (e *Executor) faultStep() {
	e.runPages++
	f := e.Fault
	if f == nil || e.runPages != f.AfterPages {
		return
	}
	if f.Stall && e.ctx != nil {
		<-e.ctx.Done()
		panic(&execInterrupt{cause: e.ctx.Err(), cancelled: true})
	}
	if f.Err != nil {
		panic(&execInterrupt{cause: f.Err})
	}
}

// page charges one page access through the buffer pool.
func (e *Executor) page(table string, index bool, pageNo int, random bool) {
	e.faultStep()
	e.tick(1)
	hit := e.Pool.Access(bufferpool.PageID{Table: table, Index: index, Page: int32(pageNo)})
	if hit {
		e.C.PageHits++
		return
	}
	e.C.PageMisses++
	if random {
		e.C.RandReads++
	}
}

// scanBinding resolves a scan node's output columns and filters to storage
// column positions.
type scanBinding struct {
	tab     *storage.Table
	outPos  []int // storage column index per output column
	filtPos []int // storage column index per filter
}

func (e *Executor) bind(n *planner.Node) (*scanBinding, error) {
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
func (e *Executor) emit(b *scanBinding, ri int) storage.Row {
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
func (e *Executor) seqScanYield(n *planner.Node, yield func(storage.Row)) error {
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

// indexBounds derives the index probe range from the node's index filter.
func indexBounds(f *planner.Filter) (lo, hi *storage.Value) {
	if f == nil {
		return nil, nil
	}
	switch f.Kind {
	case planner.FEq:
		v := f.Val
		return &v, &v
	case planner.FRange:
		if f.Lo != nil {
			v := f.Lo.V
			if !f.Lo.Incl && v.Kind == catalog.Int {
				v = storage.IntVal(v.I + 1)
			}
			lo = &v
		}
		if f.Hi != nil {
			v := f.Hi.V
			if !f.Hi.Incl && v.Kind == catalog.Int {
				v = storage.IntVal(v.I - 1)
			}
			hi = &v
		}
		return lo, hi
	}
	return nil, nil
}

// indexScanYield walks the index range and yields matching rows. The
// B-tree descent is billed at descentOpsPerLevel per level — the same rate
// indexNestLoop charges per probe and the planner costs descents at
// (optimizer cost model, 4×log2) — so index access paths and index
// nested loops bill symmetrically. An empty range ([a,a)) touches no leaf
// pages: it bills exactly one descent, so identical no-match probes bill
// identically regardless of where the miss lands relative to leaf-page
// boundaries.
func (e *Executor) indexScanYield(n *planner.Node, yield func(storage.Row)) error {
	b, err := e.bind(n)
	if err != nil {
		return err
	}
	ix, ok := b.tab.Index(n.IndexCol)
	if !ok {
		return fmt.Errorf("executor: missing index on %s.%s", n.Table, n.IndexCol)
	}
	lo, hi := indexBounds(n.IndexFilter)
	a, z := ix.Range(lo, hi)
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
func (e *Executor) joinRows(l, r storage.Row) storage.Row {
	out := e.newRow(len(l) + len(r))
	copy(out, l)
	copy(out[len(l):], r)
	return out
}

// hashJoinCharge bills a completed hash join: 1.5 passes over the build
// side (hash + insert, averaged), one over the probe side, and one tuple
// touch per output row.
func (e *Executor) hashJoinCharge(build, probe, out int64) {
	e.C.CPUOps += build*2 + probe + out
}

// mergeJoinRows merges two sorted, materialized inputs (a merge join needs
// its inputs whole).
func (e *Executor) mergeJoinRows(n *planner.Node, left, right []storage.Row) []storage.Row {
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
func (e *Executor) nestLoopRows(n *planner.Node, left, right []storage.Row) []storage.Row {
	table := joinTable{keys: n.RightKeys, rows: make([]storage.Row, 0, len(right))}
	for _, r := range right {
		e.tick(1)
		table.add(r)
	}
	table.seal()
	var out []storage.Row
	for _, l := range left {
		e.tick(1)
		for p := table.chain(l, n.LeftKeys); p != 0; p = table.next[p-1] {
			if r := table.rows[p-1]; keysEqual(l, r, n.LeftKeys, n.RightKeys) {
				e.tick(1)
				out = append(growRows(out, 1), e.joinRows(l, r))
			}
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
func (e *Executor) indexNestLoopRows(n *planner.Node, left []storage.Row) ([]storage.Row, error) {
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
func (e *Executor) sortRows(n *planner.Node, rows []storage.Row) {
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

func compareNullable(a, b storage.Value) int {
	switch {
	case a.Null && b.Null:
		return 0
	case a.Null:
		return -1
	case b.Null:
		return 1
	}
	return a.Compare(b)
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
	e      *Executor
	n      *planner.Node
	groups map[string]*aggState
	order  []string
	single *aggState // the one state of an ungrouped aggregate
	rows   int64
	kb     []byte // reusable group-key buffer
}

// aggInputType resolves the input column type feeding aggregate ai, used
// to type empty-group NULLs and validate SUM/AVG inputs. Defaults to Int
// when the child carries no column metadata (hand-built plans).
func aggInputType(n *planner.Node, col int) catalog.Type {
	if col >= 0 && n.Left != nil && col < len(n.Left.Cols) {
		return n.Left.Cols[col].Type
	}
	return catalog.Int
}

// newAggregator validates the aggregate specs and returns an empty
// accumulator. SUM and AVG over a non-integer column are rejected here —
// the planner already refuses them at bind time (planner.Analyze) and plan
// time (buildTop); this guards hand-built plans, which previously summed
// nothing and silently returned 0 while counts kept incrementing.
func (e *Executor) newAggregator(n *planner.Node) (*aggregator, error) {
	for _, spec := range n.Aggs {
		if (spec.Func == sqlparser.AggSum || spec.Func == sqlparser.AggAvg) && spec.Col >= 0 {
			if t := aggInputType(n, spec.Col); t != catalog.Int {
				return nil, fmt.Errorf("executor: %s over non-integer column (type %v)", spec.Func, t)
			}
		}
	}
	return &aggregator{e: e, n: n, groups: make(map[string]*aggState)}, nil
}

// appendGroupVal appends v's group-key encoding (the same bytes
// v.String() produces, NULLs included — unlike join keys, NULLs group
// together).
func appendGroupVal(dst []byte, v storage.Value) []byte {
	switch {
	case v.Null:
		dst = append(dst, "NULL"...)
	case v.Kind == catalog.Int:
		dst = strconv.AppendInt(dst, v.I, 10)
	default:
		dst = append(dst, v.S...)
	}
	return append(dst, 0)
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
func (e *Executor) projectRows(n *planner.Node, rows []storage.Row) []storage.Row {
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
