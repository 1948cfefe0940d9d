package executor

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"bao/internal/catalog"
	"bao/internal/planner"
	"bao/internal/sqlparser"
	"bao/internal/storage"
)

// TestHashJoinMatchesReference runs duplicate-heavy hash joins with NULL
// keys and a deliberately wrong build-side estimate (the table is sized
// from the rows built; the estimate is never an input) and requires rows,
// Counters, and Trace byte-identical to the oracle's materializing hash
// join — on a single integer key, on a single string key, and on composite
// (int, string) keys where either half may be NULL.
func TestHashJoinMatchesReference(t *testing.T) {
	intCol := func(i, nullEvery, domain int) storage.Value {
		if i%nullEvery == 0 {
			return storage.NullVal(catalog.Int)
		}
		return storage.IntVal(int64(i % domain))
	}
	strCol := func(i, nullEvery, domain int) storage.Value {
		if i%nullEvery == 0 {
			return storage.NullVal(catalog.Str)
		}
		return storage.StrVal("k" + strconv.Itoa(i%domain))
	}
	cases := []struct {
		name string
		keys []int // key column positions, the same on both sides
	}{
		{"single_int", []int{0}},
		{"single_string", []int{1}},
		{"composite_int_string", []int{0, 1}},
		{"composite_string_int", []int{1, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (*fixture, *planner.Node) {
				f := newFixture(4096)
				side := func(name string, rows, intNull, intDom, strNull, strDom int) *planner.Node {
					tbl := storage.NewTable(catalog.MustTable(name,
						catalog.Column{Name: "a", Type: catalog.Int},
						catalog.Column{Name: "s", Type: catalog.Str}))
					for i := 0; i < rows; i++ {
						if err := tbl.AppendRow(storage.Row{intCol(i, intNull, intDom), strCol(i, strNull, strDom)}); err != nil {
							t.Fatal(err)
						}
					}
					f.db.AddTable(tbl)
					return &planner.Node{Op: planner.OpSeqScan, Table: name, Alias: name,
						Cols: []planner.OutCol{
							{Alias: name, Name: "a", Type: catalog.Int},
							{Alias: name, Name: "s", Type: catalog.Str}},
						SortedBy: -1}
				}
				ln := side("l", 20000, 7, 500, 13, 400)
				rn := side("r", 5000, 11, 700, 17, 600)
				jn := &planner.Node{Op: planner.OpHashJoin, Left: ln, Right: rn,
					LeftKeys: tc.keys, RightKeys: tc.keys,
					Cols:     append(append([]planner.OutCol{}, ln.Cols...), rn.Cols...),
					SortedBy: -1}
				jn.Right.EstRows = 17
				return f, jn
			}
			rows, _ := runVsReference(t, build)
			if len(rows) == 0 {
				t.Fatal("join produced no rows: the case checks nothing")
			}
		})
	}

	// Where the chained table's shape changes: build sides of 0, 1, 63, 64,
	// 65 and 2^k±1 rows (bucket-array and batch boundaries), at least three
	// duplicates of every build key spaced so they land in different
	// batches, NULL keys interleaved on both sides, and a single-int, a
	// two-int composite and an int+string key. Rows compare positionally,
	// so a probe must yield its matches in build-input order.
	t.Run("chain_order_and_sizing", func(t *testing.T) {
		cols := []catalog.Column{
			{Name: "a", Type: catalog.Int},
			{Name: "b", Type: catalog.Int},
			{Name: "s", Type: catalog.Str},
		}
		for _, keys := range [][]int{{0}, {0, 1}, {1, 2}} {
			for _, buildRows := range []int{0, 1, 63, 64, 65, 127, 129, 255, 257, 1023, 1025} {
				// Every key value recurs at least three times, domain rows apart.
				domain := min(40, max(1, buildRows/3))
				build := func() (*fixture, *planner.Node) {
					f := newFixture(4096)
					side := func(name string, rows, nullEvery int) *planner.Node {
						tbl := storage.NewTable(catalog.MustTable(name, cols...))
						n := &planner.Node{Op: planner.OpSeqScan, Table: name, Alias: name, SortedBy: -1}
						for _, c := range cols {
							n.Cols = append(n.Cols, planner.OutCol{Alias: name, Name: c.Name, Type: c.Type})
						}
						for i := 0; i < rows; i++ {
							k := i % domain
							row := storage.Row{storage.IntVal(int64(k)), storage.IntVal(int64(k % 7)), storage.StrVal("k" + strconv.Itoa(k%5))}
							if i%nullEvery == nullEvery-1 {
								row[i%3] = storage.NullVal(cols[i%3].Type)
							}
							if err := tbl.AppendRow(row); err != nil {
								t.Fatal(err)
							}
						}
						f.db.AddTable(tbl)
						return n
					}
					ln, rn := side("l", 200, 7), side("r", buildRows, 5)
					return f, &planner.Node{Op: planner.OpHashJoin, Left: ln, Right: rn,
						LeftKeys: keys, RightKeys: keys,
						Cols:     append(append([]planner.OutCol{}, ln.Cols...), rn.Cols...),
						SortedBy: -1}
				}
				rows, _ := runVsReference(t, build)
				if buildRows >= 63 && len(rows) < 3*150 {
					t.Fatalf("keys %v, build %d: only %d output rows: the case checks no duplicates", keys, buildRows, len(rows))
				}
			}
		}
	})
}

// TestHashJoinPresizeWildEstimates feeds the join hostile build-side
// estimates — mis-estimates are the premise of the paper. Results must not
// depend on the estimate, and neither may memory: a map pre-sized from a
// clamped 1e18 measured 80 MiB before the first build row arrived, so the
// bytes a run allocates at est = 1e18 must stay within 2× of the run with
// the exact estimate.
func TestHashJoinPresizeWildEstimates(t *testing.T) {
	run := func(est float64) uint64 {
		f, jn := joinFixtureT(planner.OpHashJoin, mod(300, 50), mod(200, 40))
		jn.Right.EstRows = est
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rows, err := f.ex.Run(jn)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("est=%v: %v", est, err)
		}
		if len(rows) != 1200 {
			t.Fatalf("est=%v: %d rows", est, len(rows))
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	exact := run(200)
	for _, est := range []float64{math.NaN(), math.Inf(1), -5, 0, 1e18} {
		if got := run(est); got > 2*exact {
			t.Fatalf("est=%v: run allocated %d bytes, more than 2× the %d of an exact estimate", est, got, exact)
		}
	}
}

// TestIndexDescentBillingSymmetry pins the corrected descent charge: an
// index-scan probe that matches nothing bills exactly one B-tree descent
// at descentOpsPerLevel per level — the same rate indexNestLoop charges
// per probe — and touches no pages.
func TestIndexDescentBillingSymmetry(t *testing.T) {
	f := newFixture(64)
	f.addIndexed("t", "a", mod(1000, 100)) // values 0..99
	n := indexScanNode("t", "a", eqFilter("a", 500), false)
	if _, err := f.ex.Run(n); err != nil {
		t.Fatal(err)
	}
	wantDescent := descentOpsPerLevel * int64(math.Log2(1000+2))
	if f.ex.C.CPUOps != wantDescent {
		t.Fatalf("empty probe billed %d CPU ops, want one descent = %d", f.ex.C.CPUOps, wantDescent)
	}
	if f.ex.C.PageHits+f.ex.C.PageMisses != 0 {
		t.Fatalf("empty probe touched %d pages, want 0", f.ex.C.PageHits+f.ex.C.PageMisses)
	}
}

// TestEmptyRangeProbesBillIdentically pins the empty-range fix: a
// no-match probe that lands in the middle of the index and one that lands
// past the last leaf page must charge the same counters. (Previously the
// leaf-page loop ran once for the former but not the latter, so billing
// depended on where the miss fell.)
func TestEmptyRangeProbesBillIdentically(t *testing.T) {
	build := func() *fixture {
		f := newFixture(64)
		evens := make([]int64, 1024) // even values 0..2046; len divisible by the leaf fan-out
		for i := range evens {
			evens[i] = int64(2 * i)
		}
		f.addIndexed("t", "a", evens)
		return f
	}
	f1 := build()
	if _, err := f1.ex.Run(indexScanNode("t", "a", eqFilter("a", 501), false)); err != nil {
		t.Fatal(err) // odd value: miss lands mid-index
	}
	f2 := build()
	if _, err := f2.ex.Run(indexScanNode("t", "a", eqFilter("a", 9999), false)); err != nil {
		t.Fatal(err) // miss lands past the last leaf page
	}
	if f1.ex.C != f2.ex.C {
		t.Fatalf("identical no-match probes billed differently:\n  mid-index %+v\n  past-end  %+v", f1.ex.C, f2.ex.C)
	}
	if f1.ex.C.PageHits+f1.ex.C.PageMisses != 0 {
		t.Fatalf("empty range touched %d pages, want 0", f1.ex.C.PageHits+f1.ex.C.PageMisses)
	}
}

// TestSumOverStringRejected pins the aggregate type-hole fix: a
// hand-built plan summing a string column is refused with a clear error
// (the SQL front door already rejects it at bind and plan time) instead
// of silently returning 0.
func TestSumOverStringRejected(t *testing.T) {
	for _, fn := range []sqlparser.AggFunc{sqlparser.AggSum, sqlparser.AggAvg} {
		for _, ev := range evaluators {
			f := newFixture(64)
			tbl := storage.NewTable(catalog.MustTable("t", catalog.Column{Name: "s", Type: catalog.Str}))
			tbl.AppendRow(storage.Row{storage.StrVal("x")})
			f.db.AddTable(tbl)
			child := &planner.Node{Op: planner.OpSeqScan, Table: "t", Alias: "t",
				Cols:     []planner.OutCol{{Alias: "t", Name: "s", Type: catalog.Str}},
				SortedBy: -1}
			n := &planner.Node{Op: planner.OpAggregate, Left: child,
				Aggs: []planner.AggSpec{{Func: fn, Col: 0}},
				Cols: make([]planner.OutCol, 1), SortedBy: -1}
			if _, err := ev.run(f.ex, context.Background(), n); err == nil {
				t.Fatalf("%s/%s over string column succeeded", fn, ev.name)
			}
		}
	}
}

// TestEmptyGroupNullTypedFromInput pins the MIN/MAX NULL-typing fix:
// aggregating an empty or all-NULL string column yields a string-typed
// NULL, not an integer-typed one.
func TestEmptyGroupNullTypedFromInput(t *testing.T) {
	build := func(rows []storage.Row) (*fixture, *planner.Node) {
		f := newFixture(64)
		tbl := storage.NewTable(catalog.MustTable("t", catalog.Column{Name: "s", Type: catalog.Str}))
		for _, r := range rows {
			tbl.AppendRow(r)
		}
		f.db.AddTable(tbl)
		child := &planner.Node{Op: planner.OpSeqScan, Table: "t", Alias: "t",
			Cols:     []planner.OutCol{{Alias: "t", Name: "s", Type: catalog.Str}},
			SortedBy: -1}
		n := &planner.Node{Op: planner.OpAggregate, Left: child,
			Aggs: []planner.AggSpec{
				{Func: sqlparser.AggMin, Col: 0},
				{Func: sqlparser.AggMax, Col: 0},
			},
			Cols: make([]planner.OutCol, 2), SortedBy: -1}
		return f, n
	}
	for name, rows := range map[string][]storage.Row{
		"zero_rows": nil,
		"all_null":  {{storage.NullVal(catalog.Str)}, {storage.NullVal(catalog.Str)}},
	} {
		out, _ := runVsReference(t, func() (*fixture, *planner.Node) { return build(rows) })
		if len(out) != 1 {
			t.Fatalf("%s: %d rows", name, len(out))
		}
		for i, v := range out[0] {
			if !v.Null {
				t.Fatalf("%s: agg %d not NULL: %v", name, i, v)
			}
			if v.Kind != catalog.Str {
				t.Fatalf("%s: agg %d NULL typed %v, want %v", name, i, v.Kind, catalog.Str)
			}
		}
	}
}

// errAfterCtx is a context whose Err becomes non-nil after the first
// `after` calls: it simulates a cancellation that arrives while the query
// is already deep in an operator, positioned by check count rather than
// wall time so the test is deterministic.
type errAfterCtx struct {
	calls int64
	after int64
}

func (c *errAfterCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *errAfterCtx) Done() <-chan struct{}       { return nil }
func (c *errAfterCtx) Value(any) any               { return nil }
func (c *errAfterCtx) Err() error {
	if atomic.AddInt64(&c.calls, 1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestSortCancellableMidLoop pins the uncancellable-sort fix: a
// cancellation that arrives after the sort's comparator loop has started
// still interrupts the query. The child scan is 64 pages (no check fires
// during it, 64 < cancelCheckInterval), so the context's first Err call
// happens inside the comparator; with the pre-fix single pre-sort tick
// the sort would run to completion and the query would succeed.
func TestSortCancellableMidLoop(t *testing.T) {
	for _, ev := range evaluators {
		build := func() (*fixture, *planner.Node) {
			f := newFixture(256)
			f.addTable(catalog.MustTable("t", catalog.Column{Name: "a", Type: catalog.Int}),
				intRows(mod(4096, 997)...))
			n := &planner.Node{Op: planner.OpSort, Left: scanNode("t", "a"),
				SortCols: []int{0}, SortDesc: []bool{false},
				Cols: []planner.OutCol{{Alias: "t", Name: "a", Type: catalog.Int}}, SortedBy: -1}
			return f, n
		}
		// Reference run: full cost of the completed query.
		ref, n := build()
		if _, err := ev.run(ref.ex, context.Background(), n); err != nil {
			t.Fatalf("%s: uncancelled run: %v", ev.name, err)
		}
		full := ref.ex.C

		f, n := build()
		ctx := &errAfterCtx{after: 1}
		rows, err := ev.run(f.ex, ctx, n)
		if err == nil {
			t.Fatalf("%s: sort ran to completion despite mid-sort cancellation (%d rows)", ev.name, len(rows))
		}
		var de *DeadlineExceededError
		if !errors.As(err, &de) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error = %v, want DeadlineExceededError wrapping context.Canceled", ev.name, err)
		}
		// The scan completed (all pages charged) but the sort did not:
		// its completion charge (2·n·log2 n) never landed.
		if pages := de.Counters.PageHits + de.Counters.PageMisses; pages != full.PageHits+full.PageMisses {
			t.Fatalf("%s: abort charged %d pages, want the full scan's %d", ev.name, pages, full.PageHits+full.PageMisses)
		}
		if de.Counters.CPUOps >= full.CPUOps {
			t.Fatalf("%s: aborted sort charged full CPU (%d ≥ %d)", ev.name, de.Counters.CPUOps, full.CPUOps)
		}
	}
}

// TestLimitStopsEmissionNotBilling checks the streaming limit keeps the
// materializing semantics: the child runs (and bills) fully, output is
// merely truncated.
func TestLimitStopsEmissionNotBilling(t *testing.T) {
	build := func() (*fixture, *planner.Node) {
		f := newFixture(64)
		f.addTable(catalog.MustTable("t", catalog.Column{Name: "a", Type: catalog.Int}), intRows(seq(1000)...))
		n := &planner.Node{Op: planner.OpLimit, N: 3, Left: scanNode("t", "a"),
			Cols: []planner.OutCol{{Alias: "t", Name: "a", Type: catalog.Int}}, SortedBy: -1}
		return f, n
	}
	rows, c := runVsReference(t, build)
	if len(rows) != 3 {
		t.Fatalf("limit rows = %d", len(rows))
	}
	// All 16 pages of the child scan are billed even though only the
	// first batch is emitted.
	if c.PageHits+c.PageMisses != 16 {
		t.Fatalf("limit billed %d pages, want the full scan's 16", c.PageHits+c.PageMisses)
	}
}

// TestTraceParityAcrossPipelines checks EXPLAIN ANALYZE sees the oracle's
// per-node cardinalities from the product pipeline, including below an
// aggregate that consumes its input without materializing it.
func TestTraceParityAcrossPipelines(t *testing.T) {
	runVsReference(t, func() (*fixture, *planner.Node) {
		f, jn := joinFixtureT(planner.OpHashJoin, mod(300, 50), mod(200, 40))
		agg := &planner.Node{Op: planner.OpAggregate, Left: jn,
			Aggs: []planner.AggSpec{{Func: sqlparser.AggCount, Col: -1}},
			Cols: make([]planner.OutCol, 1), SortedBy: -1}
		return f, agg
	})
}

// TestExclusiveBoundAtInt64LimitIsEmpty pins the index-bound wrap fix: an
// exclusive integer bound at the int64 limit (> MaxInt64, < MinInt64)
// admits no value, so an index scan over it is an empty range and bills
// one descent and no page. Tightening the bound by one used to wrap it to
// the opposite extreme: the scan walked and billed the whole index, and
// its rows were right only because each entry is re-checked against the
// filter.
func TestExclusiveBoundAtInt64LimitIsEmpty(t *testing.T) {
	for _, tc := range []struct {
		name   string
		lo, hi *planner.Bound
	}{
		{"gt_max", &planner.Bound{V: storage.IntVal(math.MaxInt64)}, nil},
		{"lt_min", nil, &planner.Bound{V: storage.IntVal(math.MinInt64)}},
	} {
		for _, indexOnly := range []bool{false, true} {
			rows, c := runVsReference(t, func() (*fixture, *planner.Node) {
				f := newFixture(64)
				f.addIndexed("t", "a", seq(2000))
				fl := planner.Filter{Col: "a", Kind: planner.FRange, Lo: tc.lo, Hi: tc.hi}
				return f, indexScanNode("t", "a", &fl, indexOnly)
			})
			want := Counters{CPUOps: descentOpsPerLevel * int64(math.Log2(2000+2))}
			if len(rows) != 0 || c != want {
				t.Errorf("%s (index-only %v): %d rows, %s; want 0 rows, %s",
					tc.name, indexOnly, len(rows), counterLit(c), counterLit(want))
			}
		}
	}
}
