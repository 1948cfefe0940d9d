package executor

import (
	"fmt"
	"math/bits"
	"slices"

	"bao/internal/planner"
	"bao/internal/storage"
)

// batchSize is the number of tuples per pushed batch — one heap page's
// worth, so a scan emits roughly one batch per page it reads and the
// cancellation cadence tracks page granularity.
const batchSize = storage.RowsPerPage

// slot is one input relation of a tuple. A base-table slot is filled by
// its scan when the scan starts (bindScan): the table is read in place,
// through the storage column behind each of the scan's output columns, and
// a tuple's id for the slot is a row id. An aggregate slot holds the rows
// its aggregate materialised, published before the first tuple naming
// them is emitted, and the id indexes them.
type slot struct {
	agg  bool
	rows []storage.Row // aggregate slot: the aggregate's output

	tab  *storage.Table    // base-table slot
	cols []*storage.Column // storage column per scan output column
	filt []*storage.Column // storage column per residual filter
}

// colRef locates one output column: the tuple slot it is read from and the
// column within that slot.
type colRef struct{ slot, col int }

// rel is a node's output layout: the slots its tuples carry and where each
// output column is read from, plus its children's layouts. layoutOf builds
// the whole tree from the plan's shape before the run starts; the slots'
// contents arrive as their producers run.
type rel struct {
	slots       []*slot
	cols        []colRef
	left, right *rel
}

// width is the number of ids per tuple.
func (r *rel) width() int { return len(r.slots) }

// value reads output column j of tuple t.
func (r *rel) value(t []int32, j int) storage.Value {
	c := r.cols[j]
	s := r.slots[c.slot]
	if s.agg {
		return s.rows[t[c.slot]][c.col]
	}
	return s.cols[c.col].Value(int(t[c.slot]))
}

// layoutOf derives n's output layout from the plan's shape: a scan or an
// aggregate starts one slot; a join concatenates its inputs' slots, left
// first; project remaps its input's columns; sort and limit pass theirs
// through. An unsupported operator gets an empty layout and fails when it
// is run.
func layoutOf(n *planner.Node) *rel {
	r := &rel{}
	switch n.Op {
	case planner.OpSeqScan, planner.OpIndexScan, planner.OpIndexOnlyScan:
		r.slots = []*slot{{}}
		r.cols = make([]colRef, len(n.Cols))
		for j := range r.cols {
			r.cols[j] = colRef{0, j}
		}
	case planner.OpNestLoop, planner.OpHashJoin, planner.OpMergeJoin:
		r.left, r.right = layoutOf(n.Left), layoutOf(n.Right)
		r.slots = append(slices.Clip(r.left.slots), r.right.slots...)
		r.cols = append(slices.Clip(r.left.cols), r.right.cols...)
		for j := len(r.left.cols); j < len(r.cols); j++ {
			r.cols[j].slot += len(r.left.slots)
		}
	case planner.OpAggregate:
		r.left = layoutOf(n.Left)
		r.slots = []*slot{{agg: true}}
		r.cols = make([]colRef, len(n.GroupCols)+len(n.Aggs))
		for j := range r.cols {
			r.cols[j] = colRef{0, j}
		}
	case planner.OpProject:
		r.left = layoutOf(n.Left)
		r.slots = r.left.slots
		r.cols = make([]colRef, len(n.Projection))
		for j, p := range n.Projection {
			r.cols[j] = r.left.cols[p]
		}
	case planner.OpSort, planner.OpLimit:
		r.left = layoutOf(n.Left)
		r.slots, r.cols = r.left.slots, r.left.cols
	}
	return r
}

// tupleSink consumes one pushed batch of tuples. The slice is only valid
// for the duration of the call (producers reuse buffers between batches);
// a consumer that keeps tuples copies their ids.
type tupleSink func(ids []int32)

// collect drains a subtree into one flat slice of tuples. It is the
// pipeline's root driver and its fallback for operators that inherently
// need a whole input (sort, merge join, nested-loop sides).
func (e *Executor) collect(n *planner.Node, r *rel) ([]int32, error) {
	var out []int32
	err := e.stream(n, r, func(b []int32) {
		out = appendIDs(out, b...)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// appendIDs appends ids to dst, doubling the capacity when it runs out.
// append's own policy grows a large slice 1.25× at a time, which allocates
// about 5 N ids to collect N; doubling allocates at most 4 N.
func appendIDs(dst []int32, ids ...int32) []int32 {
	if len(dst)+len(ids) > cap(dst) {
		grown := make([]int32, len(dst), max(2*cap(dst), len(dst)+len(ids)))
		copy(grown, dst)
		dst = grown
	}
	return append(dst, ids...)
}

// stream pushes n's output through sink batch by batch, recording, when
// tracing, the node's actual output cardinality (EXPLAIN ANALYZE).
func (e *Executor) stream(n *planner.Node, r *rel, sink tupleSink) error {
	if e.Trace == nil {
		return e.streamOp(n, r, sink)
	}
	var count int64
	w := r.width()
	err := e.streamOp(n, r, func(b []int32) {
		count += int64(len(b) / w)
		sink(b)
	})
	if err == nil {
		e.Trace[n] = count
	}
	return err
}

// batcher groups pushed tuples into batches of batchSize, reusing one
// buffer.
type batcher struct {
	buf  []int32
	size int // ids per full batch
	sink tupleSink
}

func newBatcher(r *rel, sink tupleSink) *batcher {
	size := batchSize * r.width()
	return &batcher{buf: make([]int32, 0, size), size: size, sink: sink}
}

// id pushes a one-slot tuple.
func (b *batcher) id(ri int32) {
	b.buf = append(b.buf, ri)
	b.full()
}

// push pushes a tuple.
func (b *batcher) push(t []int32) {
	b.buf = append(b.buf, t...)
	b.full()
}

// pair pushes the concatenation of a left and a right tuple.
func (b *batcher) pair(l, r []int32) {
	b.buf = append(append(b.buf, l...), r...)
	b.full()
}

func (b *batcher) full() {
	if len(b.buf) >= b.size {
		b.flush()
	}
}

func (b *batcher) flush() {
	if len(b.buf) > 0 {
		b.sink(b.buf)
		b.buf = b.buf[:0]
	}
}

// emitBatches pushes already-collected tuples through sink in batchSize
// chunks (subslices; no copying).
func emitBatches(ids []int32, w int, sink tupleSink) {
	for i := 0; i < len(ids); i += batchSize * w {
		sink(ids[i:min(i+batchSize*w, len(ids))])
	}
}

// streamOp evaluates one operator in push mode. Operators that can
// stream (scans, hash-join probe, aggregate, project, limit) never
// collect their own output; operators that inherently need whole inputs
// (sort, merge join, nested loops) collect their children and emit the
// result in batches. Children are always evaluated left before right: the
// LRU buffer pool is access-order sensitive, so that order is part of
// what PageHits/PageMisses mean.
func (e *Executor) streamOp(n *planner.Node, r *rel, sink tupleSink) error {
	switch n.Op {
	case planner.OpSeqScan:
		bt := newBatcher(r, sink)
		if err := e.seqScan(n, r.slots[0], bt); err != nil {
			return err
		}
		bt.flush()
		return nil

	case planner.OpIndexScan, planner.OpIndexOnlyScan:
		if n.Param {
			return fmt.Errorf("executor: parameterized index scan outside nested loop")
		}
		bt := newBatcher(r, sink)
		if err := e.indexScan(n, r.slots[0], bt); err != nil {
			return err
		}
		bt.flush()
		return nil

	case planner.OpNestLoop:
		left, err := e.collect(n.Left, r.left)
		if err != nil {
			return err
		}
		if n.Right.Param {
			out, err := e.indexNestLoop(n, r, left)
			if err != nil {
				return err
			}
			emitBatches(out, r.width(), sink)
			return nil
		}
		right, err := e.collect(n.Right, r.right)
		if err != nil {
			return err
		}
		emitBatches(e.nestLoop(n, r, left, right), r.width(), sink)
		return nil

	case planner.OpHashJoin:
		return e.hashJoin(n, r, sink)

	case planner.OpMergeJoin:
		left, err := e.collect(n.Left, r.left)
		if err != nil {
			return err
		}
		right, err := e.collect(n.Right, r.right)
		if err != nil {
			return err
		}
		emitBatches(e.mergeJoin(n, r, left, right), r.width(), sink)
		return nil

	case planner.OpSort:
		ids, err := e.collect(n.Left, r.left)
		if err != nil {
			return err
		}
		w := r.width()
		bt := newBatcher(r, sink)
		for _, i := range e.sortOrder(n, r, ids) {
			bt.push(ids[int(i)*w : int(i+1)*w])
		}
		bt.flush()
		return nil

	case planner.OpAggregate:
		agg, err := e.newAggregation(n, r.left)
		if err != nil {
			return err
		}
		if err := e.stream(n.Left, r.left, agg.feed); err != nil {
			return err
		}
		r.slots[0].rows = agg.finish()
		ids := make([]int32, len(r.slots[0].rows))
		for i := range ids {
			ids[i] = int32(i)
		}
		emitBatches(ids, 1, sink)
		return nil

	case planner.OpProject:
		// A column remap (layoutOf): the tuples pass through unchanged.
		w := r.width()
		return e.stream(n.Left, r.left, func(b []int32) {
			e.tick(len(b) / w)
			e.C.CPUOps += int64(len(b) / w)
			sink(b)
		})

	case planner.OpLimit:
		remaining, w := n.N, r.width()
		return e.stream(n.Left, r.left, func(b []int32) {
			// The child runs to completion and bills in full; only
			// emission is truncated.
			if remaining <= 0 {
				return
			}
			if len(b) > remaining*w {
				b = b[:remaining*w]
			}
			remaining -= len(b) / w
			sink(b)
		})
	}
	return fmt.Errorf("executor: unsupported operator %v", n.Op)
}

// joinTable is the hash-join build table, one structure for every key
// shape: the build tuples with joinable (non-NULL) keys, flat and in input
// order, and bucket chains held as tuple positions instead of a slice per
// key. Positions are 1-based so the zero value means "none": head[bucket]
// is the chain's first tuple and next[p-1] the tuple after p. seal fills
// the chains back to front, so a chain visits its tuples in build order —
// a probe yields matches in exactly the order a map[K][]Row's appends did.
// The table is sized from the tuples actually built; the planner's
// estimate, which may be wrong by any factor, sizes nothing. (int32
// positions: a build side is held in memory, which runs out long before
// 2³¹ tuples.)
type joinTable struct {
	rel   *rel  // the build tuples' layout
	keys  []int // key columns in the build tuples
	ids   []int32
	head  []int32
	next  []int32
	shift uint // 64 − log2(len(head)): the bucket is the hash's high bits
}

// add appends one build tuple, unless a key value is NULL (NULLs never
// join).
func (t *joinTable) add(tu []int32) {
	for _, k := range t.keys {
		if t.rel.value(tu, k).Null {
			return
		}
	}
	t.ids = appendIDs(t.ids, tu...)
}

// tuple returns the build tuple at 0-based position i.
func (t *joinTable) tuple(i int32) []int32 {
	w := int32(t.rel.width())
	return t.ids[i*w : (i+1)*w]
}

// seal sizes the bucket array to the built tuple count (load factor in
// (½, 1]) and links the chains. No tuple may be added afterwards.
func (t *joinTable) seal() {
	n := len(t.ids) / t.rel.width()
	log2 := bits.Len(uint(max(n, 1) - 1)) // smallest power of two ≥ n
	t.shift = uint(64 - log2)
	t.head = make([]int32, 1<<log2)
	t.next = make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		h, _ := hashKey(t.tuple(int32(i)), t.rel, t.keys)
		b := h >> t.shift
		t.next[i] = t.head[b]
		t.head[b] = int32(i + 1)
	}
}

// chain returns the position of the first build tuple in the bucket probe
// tuple l (layout lr) hashes to on key columns lk — 0 when the bucket is
// empty or l has a NULL key. The caller walks the chain through next and
// keeps the tuples for which keysEqual holds (a bucket mixes keys that
// share hash bits).
func (t *joinTable) chain(l []int32, lr *rel, lk []int) int32 {
	h, ok := hashKey(l, lr, lk)
	if !ok {
		return 0
	}
	return t.head[h>>t.shift]
}

// hashKey hashes tuple tu's key columns and reports whether the key is
// joinable (false when any value is NULL). An integer contributes its
// value, a string its bytes (FNV-1a steps); a multiplicative mix closes
// each column, so a composite key depends on column order and the high
// bits seal uses depend on every input bit.
func hashKey(tu []int32, r *rel, keys []int) (uint64, bool) {
	var h uint64
	for _, k := range keys {
		v := r.value(tu, k)
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
// value by value, with SQL equality: a NULL equals nothing.
func keysEqual(l []int32, lr *rel, lk []int, r []int32, rr *rel, rk []int) bool {
	for i, k := range lk {
		if !lr.value(l, k).Equal(rr.value(r, rk[i])) {
			return false
		}
	}
	return true
}

// hashJoin builds a hash table over the right input and probes with the
// left. The probe side is collected *first*: left-before-right is the
// evaluation order every operator uses, and the LRU buffer pool is
// access-order sensitive, so PageHits/PageMisses depend on it. The build
// side then streams straight into the table, which is sealed once the
// whole side has arrived.
func (e *Executor) hashJoin(n *planner.Node, r *rel, sink tupleSink) error {
	left, err := e.collect(n.Left, r.left)
	if err != nil {
		return err
	}
	table := joinTable{rel: r.right, keys: n.RightKeys}
	wl, wr := r.left.width(), r.right.width()
	var buildRows int64
	err = e.stream(n.Right, r.right, func(b []int32) {
		e.tick(len(b) / wr)
		buildRows += int64(len(b) / wr)
		for i := 0; i < len(b); i += wr {
			table.add(b[i : i+wr])
		}
	})
	if err != nil {
		return err
	}
	table.seal()

	// Probe the collected left side batch at a time.
	var outCount int64
	w := r.width()
	bt := newBatcher(r, func(b []int32) {
		outCount += int64(len(b) / w)
		sink(b)
	})
	nl := len(left) / wl
	for i := 0; i < nl; i += batchSize {
		j := min(i+batchSize, nl)
		e.tick(j - i)
		for t := i; t < j; t++ {
			l := left[t*wl : (t+1)*wl]
			for p := table.chain(l, r.left, n.LeftKeys); p != 0; p = table.next[p-1] {
				if rt := table.tuple(p - 1); keysEqual(l, r.left, n.LeftKeys, rt, r.right, n.RightKeys) {
					bt.pair(l, rt)
				}
			}
		}
	}
	bt.flush()
	e.hashJoinCharge(buildRows, int64(nl), outCount)
	return nil
}
