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
// There is one evaluation pipeline, batch-streaming, late-materialised and
// single-goroutine (batch.go). Operators pass tuples of row ids, not rows:
// a batch is a flat, pointer-free []int32 holding up to storage.RowsPerPage
// tuples, each with one id per input relation (slot), and every node maps
// its output columns to (slot, column) pairs (rel). A slot is a base table,
// read in place through its columns, or the rows an aggregate materialised.
// Scans push the ids of the rows that pass their residual predicates, page
// by page; joins read their keys through the slot map and emit
// concatenated id tuples; a hash join streams its build side into one
// chained table sized from the tuples actually built (never from the
// planner's estimate); project is a column remap; sort orders an index
// over its input. Values are read only where they are needed — join keys,
// sort keys, filters — and built only where one must be owned: the
// aggregate's accumulators and output rows, and the root, which carves the
// result rows from a per-run value chunk (newRow). Nothing is kept on the
// Executor between runs, because callers retain result rows. All work
// charging lives in the operator bodies in this file. The value-row volcano
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
	r := layoutOf(plan)
	ids, err := e.collect(plan, r)
	if err != nil {
		return nil, err
	}
	w := r.width()
	rows = make([]storage.Row, len(ids)/w)
	for i := range rows {
		rows[i] = e.materialize(r, ids[i*w:(i+1)*w])
	}
	e.C.RowsOut += int64(len(rows))
	return rows, nil
}

// materialize carves result tuple t's values into a row of its own.
func (e *Executor) materialize(r *rel, t []int32) storage.Row {
	row := e.newRow(len(r.cols))
	for j := range row {
		row[j] = r.value(t, j)
	}
	return row
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

// newRow returns a zeroed w-value row carved from the run's value chunk:
// a result row, or an aggregate's output row. Capacity is capped at w, so
// an append to the row copies it instead of writing into the next row's
// values. A chunk is never reused — result rows outlive the run, and a
// retained row keeps its whole chunk (at most 16 KiB) reachable — and a
// row wider than a chunk gets its own allocation.
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

// bindScan resolves a scan node against its table and fills the node's
// tuple slot: the storage column behind each output column and behind each
// residual filter.
func (e *Executor) bindScan(n *planner.Node, s *slot) error {
	tab, ok := e.DB.Table(n.Table)
	if !ok {
		return fmt.Errorf("executor: missing table %s", n.Table)
	}
	s.tab = tab
	s.cols = make([]*storage.Column, len(n.Cols))
	for i, c := range n.Cols {
		ci := tab.Meta.ColumnIndex(c.Name)
		if ci == -1 {
			return fmt.Errorf("executor: missing column %s.%s", n.Table, c.Name)
		}
		s.cols[i] = tab.Cols[ci]
	}
	s.filt = make([]*storage.Column, len(n.Filters))
	for i := range n.Filters {
		ci := tab.Meta.ColumnIndex(n.Filters[i].Col)
		if ci == -1 {
			return fmt.Errorf("executor: missing filter column %s.%s", n.Table, n.Filters[i].Col)
		}
		s.filt[i] = tab.Cols[ci]
	}
	return nil
}

// passes applies the node's residual filters to stored row ri.
func (s *slot) passes(n *planner.Node, ri int) bool {
	for i := range n.Filters {
		if !n.Filters[i].Matches(s.filt[i].Value(ri)) {
			return false
		}
	}
	return true
}

// seqScan reads the table page by page, applying the pushed-down residual
// predicates as each page is read and pushing the passing row ids. CPU is
// billed per page (every stored row is touched once, plus one predicate
// evaluation per filter), so partial work at an abort reflects the pages
// actually read.
func (e *Executor) seqScan(n *planner.Node, s *slot, bt *batcher) error {
	if err := e.bindScan(n, s); err != nil {
		return err
	}
	nRows := s.tab.NumRows()
	perRow := int64(1 + len(n.Filters))
	for p := 0; p < s.tab.NumPages(); p++ {
		e.page(n.Table, false, p, false)
		lo := p * storage.RowsPerPage
		hi := min(lo+storage.RowsPerPage, nRows)
		for ri := lo; ri < hi; ri++ {
			if s.passes(n, ri) {
				bt.id(int32(ri))
			}
		}
		e.C.CPUOps += int64(hi-lo) * perRow
	}
	return nil
}

// indexSpan returns the [a, z) span of index positions the index filter
// selects. An exclusive integer bound is tightened to an inclusive one,
// except at the int64 limit (> MaxInt64, < MinInt64), where it admits no
// value and the span is empty: tightening it would wrap to the opposite
// extreme and select the whole index.
func indexSpan(ix *storage.Index, f *planner.Filter) (int, int) {
	if f == nil {
		return ix.Range(nil, nil)
	}
	switch f.Kind {
	case planner.FEq:
		v := f.Val
		return ix.Range(&v, &v)
	case planner.FRange:
		var lo, hi *storage.Value
		if f.Lo != nil {
			v := f.Lo.V
			if !f.Lo.Incl && v.Kind == catalog.Int {
				if v.I == math.MaxInt64 {
					return 0, 0
				}
				v = storage.IntVal(v.I + 1)
			}
			lo = &v
		}
		if f.Hi != nil {
			v := f.Hi.V
			if !f.Hi.Incl && v.Kind == catalog.Int {
				if v.I == math.MinInt64 {
					return 0, 0
				}
				v = storage.IntVal(v.I - 1)
			}
			hi = &v
		}
		return ix.Range(lo, hi)
	}
	return ix.Range(nil, nil)
}

// indexScan walks the index range and pushes matching row ids. The B-tree
// descent is billed at descentOpsPerLevel per level — the same rate
// indexNestLoop charges per probe and the planner costs descents at
// (optimizer cost model, 4×log2) — so index access paths and index nested
// loops bill symmetrically. An empty range ([a,a)) touches no leaf pages:
// it bills exactly one descent, so identical no-match probes bill
// identically regardless of where the miss lands relative to leaf-page
// boundaries.
func (e *Executor) indexScan(n *planner.Node, s *slot, bt *batcher) error {
	if err := e.bindScan(n, s); err != nil {
		return err
	}
	ix, ok := s.tab.Index(n.IndexCol)
	if !ok {
		return fmt.Errorf("executor: missing index on %s.%s", n.Table, n.IndexCol)
	}
	a, z := indexSpan(ix, n.IndexFilter)
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
		if !s.passes(n, ri) {
			continue
		}
		bt.id(int32(ri))
		e.C.CPUOps += int64(1 + len(n.Filters))
	}
	return nil
}

// hashJoinCharge bills a completed hash join: 1.5 passes over the build
// side (hash + insert, averaged), one over the probe side, and one tuple
// touch per output row.
func (e *Executor) hashJoinCharge(build, probe, out int64) {
	e.C.CPUOps += build*2 + probe + out
}

// mergeJoin merges two sorted, collected inputs (a merge join needs its
// inputs whole) into concatenated tuples.
func (e *Executor) mergeJoin(n *planner.Node, r *rel, left, right []int32) []int32 {
	lr, rr := r.left, r.right
	wl, wr := lr.width(), rr.width()
	nl, nr := len(left)/wl, len(right)/wr
	lt := func(i int) []int32 { return left[i*wl : (i+1)*wl] }
	rt := func(j int) []int32 { return right[j*wr : (j+1)*wr] }
	lk, rk := n.LeftKeys[0], n.RightKeys[0]
	var out []int32
	i, j := 0, 0
	for i < nl && j < nr {
		e.tick(1)
		lv, rv := lr.value(lt(i), lk), rr.value(rt(j), rk)
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
			for i2 < nl && lr.value(lt(i2), lk).Equal(lv) {
				i2++
			}
			j2 := j
			for j2 < nr && rr.value(rt(j2), rk).Equal(rv) {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					e.tick(1)
					if keysEqual(lt(a), lr, n.LeftKeys[1:], rt(b), rr, n.RightKeys[1:]) {
						out = appendIDs(appendIDs(out, lt(a)...), rt(b)...)
					}
				}
			}
			i, j = i2, j2
		}
	}
	e.C.CPUOps += int64(nl) + int64(nr) + int64(len(out)/r.width())
	return out
}

// nestLoop runs a naive nested loop over collected inputs. Matches are
// computed via hashing; billing is the naive loop's |outer|×|inner|
// comparisons plus the inner's rescan I/O.
func (e *Executor) nestLoop(n *planner.Node, r *rel, left, right []int32) []int32 {
	wl, wr := r.left.width(), r.right.width()
	nl, nr := len(left)/wl, len(right)/wr
	table := joinTable{rel: r.right, keys: n.RightKeys, ids: make([]int32, 0, len(right))}
	for j := 0; j < len(right); j += wr {
		e.tick(1)
		table.add(right[j : j+wr])
	}
	table.seal()
	var out []int32
	for i := 0; i < len(left); i += wl {
		e.tick(1)
		l := left[i : i+wl]
		for p := table.chain(l, r.left, n.LeftKeys); p != 0; p = table.next[p-1] {
			if rt := table.tuple(p - 1); keysEqual(l, r.left, n.LeftKeys, rt, r.right, n.RightKeys) {
				e.tick(1)
				out = appendIDs(appendIDs(out, l...), rt...)
			}
		}
	}
	// Cost-faithful charges: |outer|×|inner| comparisons plus the inner's
	// rescan I/O for every outer row beyond the first.
	e.C.CPUOps += int64(nl)*int64(nr) + int64(len(out)/r.width())
	if rescans := int64(nl) - 1; rescans > 0 {
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
			e.C.CPUOps += rescans * int64(nr)
		}
	}
	return out
}

// indexNestLoop probes the inner relation's index once per outer tuple.
// The inner is the parameterized scan n.Right, whose slot is the output
// tuple's last; only the outer side is collected beforehand (index probes
// are inherently row-at-a-time).
func (e *Executor) indexNestLoop(n *planner.Node, r *rel, left []int32) ([]int32, error) {
	inner, s := n.Right, r.right.slots[0]
	if err := e.bindScan(inner, s); err != nil {
		return nil, err
	}
	ix, ok := s.tab.Index(inner.IndexCol)
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
	wl := r.left.width()
	var out []int32
	for i := 0; i < len(left); i += wl {
		e.tick(1)
		l := left[i : i+wl]
		key := r.left.value(l, n.LeftKeys[probe])
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
			if !s.passes(inner, ri) {
				continue
			}
			okAll := true
			for k := range n.LeftKeys {
				if k == probe {
					continue
				}
				if !r.left.value(l, n.LeftKeys[k]).Equal(s.cols[n.RightKeys[k]].Value(ri)) {
					okAll = false
					break
				}
			}
			if okAll {
				out = appendIDs(appendIDs(out, l...), int32(ri))
			}
			e.C.CPUOps += int64(1 + len(inner.Filters))
		}
	}
	e.C.CPUOps += int64(len(out) / r.width())
	return out, nil
}

// sortOrder stably sorts an index over the collected tuples by the node's
// sort spec and returns it; the tuples themselves do not move. The
// amortized cancellation check is threaded into the comparator, so a
// deadline or disconnect interrupts the O(n log n) loop itself rather
// than waiting for the sort to finish; the ticks are cancellation cadence
// only and do not perturb the exact CPUOps charge, which stays
// 2·n·log2(n).
func (e *Executor) sortOrder(n *planner.Node, r *rel, ids []int32) []int32 {
	w := r.width()
	order := make([]int32, len(ids)/w)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		e.tick(1)
		ta, tb := ids[int(a)*w:int(a+1)*w], ids[int(b)*w:int(b+1)*w]
		for k, col := range n.SortCols {
			c := compareNullable(r.value(ta, col), r.value(tb, col))
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
	if len(order) > 1 {
		e.C.CPUOps += 2 * int64(len(order)) * int64(math.Log2(float64(len(order))))
	}
	return order
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

// accumulator holds one group's aggregates.
type accumulator struct {
	group  storage.Row
	counts []int64
	sums   []int64
	mins   []storage.Value
	maxs   []storage.Value
	inited []bool
}

func newAccumulator(na int) *accumulator {
	return &accumulator{counts: make([]int64, na), sums: make([]int64, na),
		mins: make([]storage.Value, na), maxs: make([]storage.Value, na),
		inited: make([]bool, na)}
}

// aggregation accumulates grouped aggregates incrementally, fed batch by
// batch without collecting the input; billing depends only on the tuples
// fed, not on how they were batched. It is the one operator that reads
// values out of its input tuples (vals) and the one that creates values
// no table holds: its output rows.
type aggregation struct {
	e      *Executor
	n      *planner.Node
	in     *rel
	need   []int           // input columns the grouping and aggregates read
	vals   []storage.Value // the current tuple's needed values, by input column
	groups map[string]*accumulator
	order  []string
	single *accumulator // the one state of an ungrouped aggregate
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

// newAggregation validates the aggregate specs and returns an empty
// accumulator over input layout in. SUM and AVG over a non-integer column
// are rejected here — the planner already refuses them at bind time
// (planner.Analyze) and plan time (buildTop); this guards hand-built
// plans, which previously summed nothing and silently returned 0 while
// counts kept incrementing.
func (e *Executor) newAggregation(n *planner.Node, in *rel) (*aggregation, error) {
	for _, spec := range n.Aggs {
		if (spec.Func == sqlparser.AggSum || spec.Func == sqlparser.AggAvg) && spec.Col >= 0 {
			if t := aggInputType(n, spec.Col); t != catalog.Int {
				return nil, fmt.Errorf("executor: %s over non-integer column (type %v)", spec.Func, t)
			}
		}
	}
	a := &aggregation{e: e, n: n, in: in, vals: make([]storage.Value, len(in.cols)),
		groups: make(map[string]*accumulator)}
	a.need = append(a.need, n.GroupCols...)
	for _, spec := range n.Aggs {
		if spec.Col >= 0 && !slices.Contains(a.need, spec.Col) {
			a.need = append(a.need, spec.Col)
		}
	}
	return a, nil
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

// feed accumulates one batch of input tuples into the group states. The
// ungrouped case keeps a single state and skips key building entirely —
// the common COUNT/MIN/MAX-over-everything shape stays off the map.
func (a *aggregation) feed(b []int32) {
	e, n, w := a.e, a.n, a.in.width()
	count := len(b) / w
	if count == 0 {
		return
	}
	if len(n.GroupCols) == 0 {
		e.tick(count)
		a.rows += int64(count)
		st := a.single
		if st == nil {
			st = newAccumulator(len(n.Aggs))
			a.single = st
			a.groups[""] = st
			a.order = append(a.order, "")
		}
		for i := 0; i < len(b); i += w {
			a.load(b[i : i+w])
			st.update(n.Aggs, a.vals)
		}
		return
	}
	for i := 0; i < len(b); i += w {
		e.tick(1)
		a.rows++
		a.load(b[i : i+w])
		kb := a.kb[:0]
		for _, g := range n.GroupCols {
			kb = appendGroupVal(kb, a.vals[g])
		}
		a.kb = kb
		st := a.groups[string(kb)]
		if st == nil {
			st = newAccumulator(len(n.Aggs))
			for _, g := range n.GroupCols {
				st.group = append(st.group, a.vals[g])
			}
			k := string(kb)
			a.groups[k] = st
			a.order = append(a.order, k)
		}
		st.update(n.Aggs, a.vals)
	}
}

// load reads the columns the aggregate needs out of input tuple t.
func (a *aggregation) load(t []int32) {
	for _, c := range a.need {
		a.vals[c] = a.in.value(t, c)
	}
}

// update folds one input tuple's values into the group's accumulators.
func (st *accumulator) update(aggs []planner.AggSpec, vals []storage.Value) {
	for ai, spec := range aggs {
		if spec.Col == -1 { // COUNT(*)
			st.counts[ai]++
			continue
		}
		v := vals[spec.Col]
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
func (a *aggregation) finish() []storage.Row {
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
