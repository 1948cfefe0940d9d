package executor

import (
	"context"
	"fmt"
	"strings"

	"bao/internal/planner"
	"bao/internal/storage"
)

// This file is the oracle for the product pipeline (batch.go): the
// tuple-at-a-time volcano evaluator the batch pipeline replaced, moved here
// verbatim when it left the product, together with its materializing hash
// join and string-builder join key. Every operator fully materializes its
// output as a []storage.Row. It shares the billing operator bodies in
// executor.go (scans, merge/nested-loop joins, sort, aggregator, project),
// so what it checks independently is everything batch.go owns: batching,
// the streamed hash-join build into the chained table (hashing, key
// equality, match order), limit truncation, Trace counting, and evaluation
// order. The shared bodies carve their rows from the run's value chunk on
// either side; the oracle's hash join keeps the per-row allocation it
// always had. The golden, parity, differential, and fuzz tests all compare
// against it.

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
	rows, err = e.eval(plan)
	if err != nil {
		return nil, err
	}
	e.C.RowsOut += int64(len(rows))
	return rows, nil
}

// eval materializes n's full output, recording, when tracing, actual
// output cardinality.
func (e *Executor) eval(n *planner.Node) ([]storage.Row, error) {
	rows, err := e.evalOp(n)
	if err != nil {
		return nil, err
	}
	if e.Trace != nil {
		e.Trace[n] = int64(len(rows))
	}
	return rows, nil
}

func (e *Executor) evalOp(n *planner.Node) ([]storage.Row, error) {
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
// replaces it with a streamed build into one chained table and a
// batch-at-a-time probe (streamHashJoin); both charge hashJoinCharge.
func (e *Executor) hashJoinLegacy(n *planner.Node, left, right []storage.Row) []storage.Row {
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
