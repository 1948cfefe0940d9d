package executor

import (
	"fmt"
	"math"

	"bao/internal/catalog"
	"bao/internal/planner"
	"bao/internal/storage"
)

// batchSize is the number of tuples per pushed batch — one heap page's
// worth, so a scan emits roughly one batch per page it reads and the
// cancellation cadence tracks page granularity.
const batchSize = storage.RowsPerPage

// rowSink consumes one pushed batch. The slice is only valid for the
// duration of the call (producers reuse buffers between batches); the
// storage.Row values inside may be retained.
type rowSink func([]storage.Row)

// collect drains a subtree into a materialized slice. It is the
// pipeline's root driver and its fallback for operators that inherently
// need a whole input (sort, merge join, nested-loop sides).
func (e *Executor) collect(n *planner.Node) ([]storage.Row, error) {
	var out []storage.Row
	err := e.stream(n, func(b []storage.Row) {
		out = append(out, b...)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// stream pushes n's output through sink batch by batch, recording the
// node's per-operator evaluation count and, when tracing, its actual
// output cardinality (EXPLAIN ANALYZE).
func (e *Executor) stream(n *planner.Node, sink rowSink) error {
	if e.Ops != nil {
		e.Ops.With(n.Op.String()).Inc()
	}
	if e.Trace == nil {
		return e.streamOp(n, sink)
	}
	var count int64
	err := e.streamOp(n, func(b []storage.Row) {
		count += int64(len(b))
		sink(b)
	})
	if err == nil {
		e.Trace[n] = count
	}
	return err
}

// batcher groups pushed rows into batchSize slices, reusing one buffer.
type batcher struct {
	buf  []storage.Row
	sink rowSink
}

func newBatcher(sink rowSink) *batcher {
	return &batcher{buf: make([]storage.Row, 0, batchSize), sink: sink}
}

func (b *batcher) push(r storage.Row) {
	b.buf = append(b.buf, r)
	if len(b.buf) >= batchSize {
		b.flush()
	}
}

func (b *batcher) flush() {
	if len(b.buf) > 0 {
		b.sink(b.buf)
		b.buf = b.buf[:0]
	}
}

// emitBatches pushes an already-materialized slice through sink in
// batchSize chunks (subslices; no copying).
func emitBatches(rows []storage.Row, sink rowSink) {
	for i := 0; i < len(rows); i += batchSize {
		j := i + batchSize
		if j > len(rows) {
			j = len(rows)
		}
		sink(rows[i:j])
	}
}

// streamOp evaluates one operator in push mode. Operators that can
// stream (scans, hash-join probe, aggregate, project, limit) never
// materialize their own output; operators that inherently need whole
// inputs (sort, merge join, nested loops) collect their children and emit
// the result in batches. Children are always evaluated left before right:
// the LRU buffer pool is access-order sensitive, so that order is part of
// what PageHits/PageMisses mean.
func (e *Executor) streamOp(n *planner.Node, sink rowSink) error {
	switch n.Op {
	case planner.OpSeqScan:
		bt := newBatcher(sink)
		if err := e.seqScanYield(n, bt.push); err != nil {
			return err
		}
		bt.flush()
		return nil

	case planner.OpIndexScan, planner.OpIndexOnlyScan:
		if n.Param {
			return fmt.Errorf("executor: parameterized index scan outside nested loop")
		}
		bt := newBatcher(sink)
		if err := e.indexScanYield(n, bt.push); err != nil {
			return err
		}
		bt.flush()
		return nil

	case planner.OpNestLoop:
		left, err := e.collect(n.Left)
		if err != nil {
			return err
		}
		if n.Right.Param {
			out, err := e.indexNestLoopRows(n, left)
			if err != nil {
				return err
			}
			emitBatches(out, sink)
			return nil
		}
		right, err := e.collect(n.Right)
		if err != nil {
			return err
		}
		emitBatches(e.nestLoopRows(n, left, right), sink)
		return nil

	case planner.OpHashJoin:
		return e.streamHashJoin(n, sink)

	case planner.OpMergeJoin:
		left, err := e.collect(n.Left)
		if err != nil {
			return err
		}
		right, err := e.collect(n.Right)
		if err != nil {
			return err
		}
		emitBatches(e.mergeJoinRows(n, left, right), sink)
		return nil

	case planner.OpSort:
		rows, err := e.collect(n.Left)
		if err != nil {
			return err
		}
		e.sortRows(n, rows)
		emitBatches(rows, sink)
		return nil

	case planner.OpAggregate:
		agg, err := e.newAggregator(n)
		if err != nil {
			return err
		}
		if err := e.stream(n.Left, agg.feed); err != nil {
			return err
		}
		emitBatches(agg.finish(), sink)
		return nil

	case planner.OpProject:
		return e.stream(n.Left, func(b []storage.Row) {
			sink(e.projectRows(n, b))
		})

	case planner.OpLimit:
		remaining := n.N
		return e.stream(n.Left, func(b []storage.Row) {
			// The child runs to completion and bills in full; only
			// emission is truncated.
			if remaining <= 0 {
				return
			}
			if len(b) > remaining {
				b = b[:remaining]
			}
			remaining -= len(b)
			sink(b)
		})
	}
	return fmt.Errorf("executor: unsupported operator %v", n.Op)
}

// presizeHint converts a planner cardinality estimate into a hash-table
// size hint, clamped to something sane when the estimate is wild.
func presizeHint(est float64) int {
	if math.IsNaN(est) || est <= 0 {
		return 0
	}
	if est > 1<<20 {
		return 1 << 20
	}
	return int(est)
}

// joinTable is the hash-join build table. Joins on a single integer column
// use the ints map, skipping key formatting entirely; every other join
// uses strs, keyed by appendRowKey's encoding. Exactly one is non-nil.
// Row lists are in build-input order.
type joinTable struct {
	strs map[string][]storage.Row
	ints map[int64][]storage.Row
}

// singleIntKey reports whether the join runs on exactly one integer
// column on both sides, enabling the integer-keyed table.
func singleIntKey(n *planner.Node) bool {
	return len(n.LeftKeys) == 1 && len(n.RightKeys) == 1 &&
		n.LeftKeys[0] < len(n.Left.Cols) && n.RightKeys[0] < len(n.Right.Cols) &&
		n.Left.Cols[n.LeftKeys[0]].Type == catalog.Int &&
		n.Right.Cols[n.RightKeys[0]].Type == catalog.Int
}

// streamHashJoin builds a hash table over the right input and probes with
// the left. The probe side is collected *first*: left-before-right is the
// evaluation order every operator uses, and the LRU buffer pool is
// access-order sensitive, so PageHits/PageMisses depend on it. The build
// side then streams straight into a table pre-sized from the planner's
// cardinality estimate, without being materialized.
func (e *Executor) streamHashJoin(n *planner.Node, sink rowSink) error {
	left, err := e.collect(n.Left)
	if err != nil {
		return err
	}
	table, buildRows, err := e.buildSequential(n)
	if err != nil {
		return err
	}
	var outCount int64
	e.probeSequential(n, &table, left, func(b []storage.Row) {
		outCount += int64(len(b))
		sink(b)
	})
	e.hashJoinCharge(buildRows, int64(len(left)), outCount)
	return nil
}

// buildSequential streams the build side directly into one pre-sized map
// without materializing it, returning the table and the build row count.
func (e *Executor) buildSequential(n *planner.Node) (joinTable, int64, error) {
	hint := presizeHint(n.Right.EstRows)
	var count int64
	if singleIntKey(n) {
		m := make(map[int64][]storage.Row, hint)
		rk := n.RightKeys[0]
		err := e.stream(n.Right, func(b []storage.Row) {
			e.tick(len(b))
			count += int64(len(b))
			for _, r := range b {
				if v := r[rk]; !v.Null {
					m[v.I] = append(m[v.I], r)
				}
			}
		})
		return joinTable{ints: m}, count, err
	}
	m := make(map[string][]storage.Row, hint)
	var kb []byte
	err := e.stream(n.Right, func(b []storage.Row) {
		e.tick(len(b))
		count += int64(len(b))
		for _, r := range b {
			var ok bool
			kb, ok = appendRowKey(kb[:0], r, n.RightKeys)
			if !ok {
				continue
			}
			k := string(kb)
			m[k] = append(m[k], r)
		}
	})
	return joinTable{strs: m}, count, err
}

// probeSequential probes the materialized left side batch at a time.
func (e *Executor) probeSequential(n *planner.Node, table *joinTable, left []storage.Row, sink rowSink) {
	bt := newBatcher(sink)
	lk := n.LeftKeys[0]
	var kb []byte
	for i := 0; i < len(left); i += batchSize {
		j := i + batchSize
		if j > len(left) {
			j = len(left)
		}
		e.tick(j - i)
		for _, l := range left[i:j] {
			var matches []storage.Row
			if table.ints != nil {
				v := l[lk]
				if v.Null {
					continue
				}
				matches = table.ints[v.I]
			} else {
				var ok bool
				kb, ok = appendRowKey(kb[:0], l, n.LeftKeys)
				if !ok {
					continue
				}
				matches = table.strs[string(kb)]
			}
			for _, r := range matches {
				bt.push(joinRows(l, r))
			}
		}
	}
	bt.flush()
}
