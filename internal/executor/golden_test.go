package executor

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"bao/internal/catalog"
	"bao/internal/planner"
	"bao/internal/sqlparser"
	"bao/internal/storage"
)

// evaluators are the two ways a test can run a plan: the product pipeline
// and the volcano oracle (reference_test.go). Tests that check an error or
// cancellation contract rather than a result loop over both, so the oracle
// is held to the same contract it is used to check.
var evaluators = []struct {
	name string
	run  func(*Executor, context.Context, *planner.Node) ([]storage.Row, error)
}{
	{"product", (*Executor).RunCtx},
	{"reference", (*Executor).runReference},
}

// runVsReference executes a freshly built plan through the product
// pipeline and through the oracle (fresh fixture each, so buffer-pool LRU
// state is identical), requires byte-identical rows, Counters, and Trace
// cardinalities, and returns the shared result.
func runVsReference(t *testing.T, build func() (*fixture, *planner.Node)) ([]storage.Row, Counters) {
	t.Helper()
	rf, rn := build()
	rf.ex.Trace = make(map[*planner.Node]int64)
	want, err := rf.ex.runReference(context.Background(), rn)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	f, n := build()
	f.ex.Trace = make(map[*planner.Node]int64)
	got, err := f.ex.Run(n)
	if err != nil {
		t.Fatalf("product: %v", err)
	}
	if !rowsEqual(got, want) {
		t.Fatalf("rows diverge from the reference: %d vs %d rows", len(got), len(want))
	}
	if f.ex.C != rf.ex.C {
		t.Fatalf("counters diverge from the reference:\n  %s\nvs\n  %s", counterLit(f.ex.C), counterLit(rf.ex.C))
	}
	if gt, wt := traceByPosition(n, f.ex.Trace), traceByPosition(rn, rf.ex.Trace); !reflect.DeepEqual(gt, wt) {
		t.Fatalf("trace diverges from the reference:\n  %v\nvs\n  %v", gt, wt)
	}
	return got, f.ex.C
}

// traceByPosition flattens a Trace into pre-order node positions (-1 where
// a node was not traced), so traces of two separately built copies of one
// plan shape compare.
func traceByPosition(n *planner.Node, trace map[*planner.Node]int64) []int64 {
	var out []int64
	n.Walk(func(x *planner.Node) {
		c, ok := trace[x]
		if !ok {
			c = -1
		}
		out = append(out, c)
	})
	return out
}

// seq returns [0,n) as int64.
func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// mod returns n values of i%k — deterministic duplicate-heavy join keys.
func mod(n, k int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i % k)
	}
	return out
}

// addIndexed builds a one-column indexed table.
func (f *fixture) addIndexed(name, col string, vals []int64) {
	tbl := f.addTable(catalog.MustTable(name, catalog.Column{Name: col, Type: catalog.Int}), intRows(vals...))
	if _, err := tbl.BuildIndex(catalog.Index{Name: name + "_" + col, Table: name, Column: col}); err != nil {
		panic(err)
	}
}

func eqFilter(col string, v int64) *planner.Filter {
	return &planner.Filter{Col: col, Kind: planner.FEq, Val: storage.IntVal(v)}
}

func rangeFilter(col string, lo, hi int64) planner.Filter {
	l := planner.Bound{V: storage.IntVal(lo), Incl: true}
	h := planner.Bound{V: storage.IntVal(hi), Incl: true}
	return planner.Filter{Col: col, Kind: planner.FRange, Lo: &l, Hi: &h}
}

func indexScanNode(table, col string, f *planner.Filter, indexOnly bool) *planner.Node {
	op := planner.OpIndexScan
	if indexOnly {
		op = planner.OpIndexOnlyScan
	}
	return &planner.Node{Op: op, Table: table, Alias: table,
		IndexCol: col, IndexFilter: f,
		Cols:     []planner.OutCol{{Alias: table, Name: col, Type: catalog.Int}},
		SortedBy: 0}
}

// TestGoldenCounters pins the exact Counters every operator charges for a
// fixed plan shape. The values are the post-fix baseline (B-tree descents
// billed at descentOpsPerLevel per level, empty index ranges charging no
// leaf pages) and were re-pinned exactly once in the PR that introduced
// the batch pipeline — see DESIGN.md §2. Any drift in billing or page
// ordering shows up here as a literal diff, and any drift from the oracle
// fails before the literals are even compared.
func TestGoldenCounters(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*fixture, *planner.Node)
		want  Counters
	}{
		{
			name: "seq_scan_filtered",
			build: func() (*fixture, *planner.Node) {
				f := newFixture(64)
				f.addTable(catalog.MustTable("t", catalog.Column{Name: "a", Type: catalog.Int}), intRows(seq(1000)...))
				n := scanNode("t", "a", rangeFilter("a", 100, 299))
				return f, n
			},
			want: Counters{CPUOps: 2000, PageHits: 0, PageMisses: 16, RandReads: 0, RowsOut: 200},
		},
		{
			name: "index_scan_eq",
			build: func() (*fixture, *planner.Node) {
				f := newFixture(64)
				f.addIndexed("t", "a", mod(1000, 100))
				return f, indexScanNode("t", "a", eqFilter("a", 7), false)
			},
			want: Counters{CPUOps: 1056, PageHits: 0, PageMisses: 11, RandReads: 11, RowsOut: 10},
		},
		{
			name: "index_only_scan_range",
			build: func() (*fixture, *planner.Node) {
				f := newFixture(64)
				f.addIndexed("t", "a", seq(1000))
				fl := rangeFilter("a", 250, 749)
				return f, indexScanNode("t", "a", &fl, true)
			},
			want: Counters{CPUOps: 1036, PageHits: 0, PageMisses: 3, RandReads: 3, RowsOut: 500},
		},
		{
			name: "index_scan_empty_range",
			build: func() (*fixture, *planner.Node) {
				f := newFixture(64)
				f.addIndexed("t", "a", mod(1000, 100))
				// 500 never occurs: an empty range bills one descent, no
				// leaf pages, no heap fetches.
				return f, indexScanNode("t", "a", eqFilter("a", 500), false)
			},
			want: Counters{CPUOps: 36, PageHits: 0, PageMisses: 0, RandReads: 0, RowsOut: 0},
		},
		{
			name: "hash_join",
			build: func() (*fixture, *planner.Node) {
				return joinFixtureT(planner.OpHashJoin, mod(300, 50), mod(200, 40))
			},
			want: Counters{CPUOps: 2400, PageHits: 0, PageMisses: 9, RandReads: 0, RowsOut: 1200},
		},
		{
			name: "merge_join",
			build: func() (*fixture, *planner.Node) {
				return joinFixtureT(planner.OpMergeJoin, mod(300, 50), mod(200, 40))
			},
			want: Counters{CPUOps: 9800, PageHits: 0, PageMisses: 9, RandReads: 0, RowsOut: 1200},
		},
		{
			name: "nest_loop",
			build: func() (*fixture, *planner.Node) {
				return joinFixtureT(planner.OpNestLoop, mod(100, 20), mod(80, 16))
			},
			want: Counters{CPUOps: 8580, PageHits: 198, PageMisses: 4, RandReads: 0, RowsOut: 400},
		},
		{
			name: "index_nest_loop",
			build: func() (*fixture, *planner.Node) {
				f := newFixture(256)
				f.addTable(catalog.MustTable("l", catalog.Column{Name: "a", Type: catalog.Int}), intRows(mod(50, 25)...))
				f.addIndexed("r", "b", mod(1000, 100))
				inner := indexScanNode("r", "b", nil, false)
				inner.Param = true
				outer := scanNode("l", "a")
				jn := &planner.Node{Op: planner.OpNestLoop, Left: outer, Right: inner,
					LeftKeys: []int{0}, RightKeys: []int{0},
					Cols:     append(append([]planner.OutCol{}, outer.Cols...), inner.Cols...),
					SortedBy: -1}
				return f, jn
			},
			want: Counters{CPUOps: 52850, PageHits: 536, PageMisses: 15, RandReads: 14, RowsOut: 500},
		},
		{
			name: "sort_desc",
			build: func() (*fixture, *planner.Node) {
				f := newFixture(64)
				f.addTable(catalog.MustTable("t", catalog.Column{Name: "a", Type: catalog.Int}), intRows(mod(500, 77)...))
				n := &planner.Node{Op: planner.OpSort, Left: scanNode("t", "a"),
					SortCols: []int{0}, SortDesc: []bool{true},
					Cols: []planner.OutCol{{Alias: "t", Name: "a", Type: catalog.Int}}, SortedBy: -1}
				return f, n
			},
			want: Counters{CPUOps: 8500, PageHits: 0, PageMisses: 8, RandReads: 0, RowsOut: 500},
		},
		{
			name: "aggregate_grouped",
			build: func() (*fixture, *planner.Node) {
				f := newFixture(64)
				f.addTable(catalog.MustTable("t", catalog.Column{Name: "a", Type: catalog.Int}), intRows(mod(600, 30)...))
				n := &planner.Node{Op: planner.OpAggregate, Left: scanNode("t", "a"),
					GroupCols: []int{0},
					Aggs: []planner.AggSpec{
						{Func: sqlparser.AggCount, Col: -1},
						{Func: sqlparser.AggSum, Col: 0},
					},
					Cols:     make([]planner.OutCol, 3),
					SortedBy: -1}
				return f, n
			},
			want: Counters{CPUOps: 3000, PageHits: 0, PageMisses: 10, RandReads: 0, RowsOut: 30},
		},
		{
			name: "project_limit",
			build: func() (*fixture, *planner.Node) {
				f := newFixture(64)
				f.addTable(catalog.MustTable("t", catalog.Column{Name: "a", Type: catalog.Int}), intRows(seq(300)...))
				pr := &planner.Node{Op: planner.OpProject, Left: scanNode("t", "a"),
					Projection: []int{0},
					Cols:       []planner.OutCol{{Alias: "t", Name: "a", Type: catalog.Int}}, SortedBy: -1}
				n := &planner.Node{Op: planner.OpLimit, N: 25, Left: pr, Cols: pr.Cols, SortedBy: -1}
				return f, n
			},
			want: Counters{CPUOps: 600, PageHits: 0, PageMisses: 5, RandReads: 0, RowsOut: 25},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, got := runVsReference(t, tc.build)
			if got != tc.want {
				t.Fatalf("golden counters drifted:\n  got  %s\n  want %s", counterLit(got), counterLit(tc.want))
			}
		})
	}
}

// counterLit renders Counters as a Go literal, so re-pinning a golden
// after an intentional billing change is a copy-paste.
func counterLit(c Counters) string {
	return fmt.Sprintf("Counters{CPUOps: %d, PageHits: %d, PageMisses: %d, RandReads: %d, RowsOut: %d}",
		c.CPUOps, c.PageHits, c.PageMisses, c.RandReads, c.RowsOut)
}

// joinFixtureT is joinFixture without the testing.T (used by golden-case
// builders, which run once per evaluator).
func joinFixtureT(op planner.Op, left, right []int64) (*fixture, *planner.Node) {
	f := newFixture(256)
	f.addTable(catalog.MustTable("l", catalog.Column{Name: "a", Type: catalog.Int}), intRows(left...))
	f.addTable(catalog.MustTable("r", catalog.Column{Name: "b", Type: catalog.Int}), intRows(right...))
	ln, rn := scanNode("l", "a"), scanNode("r", "b")
	if op == planner.OpMergeJoin {
		ls := &planner.Node{Op: planner.OpSort, Left: ln, SortCols: []int{0}, SortDesc: []bool{false}, Cols: ln.Cols, SortedBy: 0}
		rs := &planner.Node{Op: planner.OpSort, Left: rn, SortCols: []int{0}, SortDesc: []bool{false}, Cols: rn.Cols, SortedBy: 0}
		ln, rn = ls, rs
	}
	jn := &planner.Node{Op: op, Left: ln, Right: rn,
		LeftKeys: []int{0}, RightKeys: []int{0},
		Cols:     append(append([]planner.OutCol{}, ln.Cols...), rn.Cols...),
		SortedBy: -1}
	return f, jn
}
