package executor

import (
	"fmt"
	"math/bits"

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
		out = append(growRows(out, len(b)), b...)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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

// stream pushes n's output through sink batch by batch, recording, when
// tracing, the node's actual output cardinality (EXPLAIN ANALYZE).
func (e *Executor) stream(n *planner.Node, sink rowSink) error {
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

// joinTable is the hash-join build table, one structure for every key
// shape: the build rows with joinable (non-NULL) keys, in input order, and
// bucket chains held as row positions instead of a slice per key. Positions
// are 1-based so the zero value means "none": head[bucket] is the chain's
// first row and next[p-1] the row after p. seal fills the chains back to
// front, so a chain visits its rows in build order — a probe yields
// matches in exactly the order a map[K][]Row's appends did. The table is
// sized from the rows actually built; the planner's estimate, which may be
// wrong by any factor, sizes nothing. (int32 positions: a build side is
// held in memory, which runs out long before 2³¹ rows.)
type joinTable struct {
	keys  []int // key column positions in the build rows
	rows  []storage.Row
	head  []int32
	next  []int32
	shift uint // 64 − log2(len(head)): the bucket is the hash's high bits
}

// add appends one build row, unless a key value is NULL (NULLs never join).
func (t *joinTable) add(r storage.Row) {
	for _, k := range t.keys {
		if r[k].Null {
			return
		}
	}
	t.rows = append(growRows(t.rows, 1), r)
}

// seal sizes the bucket array to the built row count (load factor in
// (½, 1]) and links the chains. No row may be added afterwards.
func (t *joinTable) seal() {
	log2 := bits.Len(uint(max(len(t.rows), 1) - 1)) // smallest power of two ≥ len(rows)
	t.shift = uint(64 - log2)
	t.head = make([]int32, 1<<log2)
	t.next = make([]int32, len(t.rows))
	for i := len(t.rows) - 1; i >= 0; i-- {
		h, _ := hashKey(t.rows[i], t.keys)
		b := h >> t.shift
		t.next[i] = t.head[b]
		t.head[b] = int32(i + 1)
	}
}

// chain returns the position of the first build row in the bucket probe
// row l hashes to on key columns lk — 0 when the bucket is empty or l has
// a NULL key. The caller walks the chain through next and keeps the rows
// for which keysEqual holds (a bucket mixes keys that share hash bits).
func (t *joinTable) chain(l storage.Row, lk []int) int32 {
	h, ok := hashKey(l, lk)
	if !ok {
		return 0
	}
	return t.head[h>>t.shift]
}

// hashKey hashes r's key columns and reports whether the key is joinable
// (false when any value is NULL). An integer contributes its value, a
// string its bytes (FNV-1a steps); a multiplicative mix closes each column,
// so a composite key depends on column order and the high bits seal uses
// depend on every input bit.
func hashKey(r storage.Row, keys []int) (uint64, bool) {
	var h uint64
	for _, k := range keys {
		v := &r[k]
		if v.Null {
			return 0, false
		}
		h ^= uint64(v.I)
		for i := 0; i < len(v.S); i++ {
			h = (h ^ uint64(v.S[i])) * 0x100000001b3
		}
		h *= 0x9e3779b97f4a7c15
	}
	return h, true
}

// keysEqual reports whether l's key columns lk equal r's key columns rk,
// value by value. Both keys are known to be non-NULL: add drops NULL-keyed
// build rows and chain returns nothing for a NULL-keyed probe.
func keysEqual(l, r storage.Row, lk, rk []int) bool {
	for i, k := range lk {
		a, b := &l[k], &r[rk[i]]
		if a.I != b.I || a.S != b.S || a.Kind != b.Kind {
			return false
		}
	}
	return true
}

// streamHashJoin builds a hash table over the right input and probes with
// the left. The probe side is collected *first*: left-before-right is the
// evaluation order every operator uses, and the LRU buffer pool is
// access-order sensitive, so PageHits/PageMisses depend on it. The build
// side then streams straight into the table, which is sealed once the
// whole side has arrived.
func (e *Executor) streamHashJoin(n *planner.Node, sink rowSink) error {
	left, err := e.collect(n.Left)
	if err != nil {
		return err
	}
	table := joinTable{keys: n.RightKeys}
	var buildRows int64
	err = e.stream(n.Right, func(b []storage.Row) {
		e.tick(len(b))
		buildRows += int64(len(b))
		for _, r := range b {
			table.add(r)
		}
	})
	if err != nil {
		return err
	}
	table.seal()

	// Probe the materialized left side batch at a time.
	var outCount int64
	bt := newBatcher(func(b []storage.Row) {
		outCount += int64(len(b))
		sink(b)
	})
	for i := 0; i < len(left); i += batchSize {
		j := min(i+batchSize, len(left))
		e.tick(j - i)
		for _, l := range left[i:j] {
			for p := table.chain(l, n.LeftKeys); p != 0; p = table.next[p-1] {
				if r := table.rows[p-1]; keysEqual(l, r, n.LeftKeys, n.RightKeys) {
					bt.push(e.joinRows(l, r))
				}
			}
		}
	}
	bt.flush()
	e.hashJoinCharge(buildRows, int64(len(left)), outCount)
	return nil
}
