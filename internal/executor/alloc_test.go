package executor

import (
	"errors"
	"runtime"
	"testing"

	"bao/internal/catalog"
	"bao/internal/planner"
	"bao/internal/sqlparser"
	"bao/internal/storage"
)

// hashJoinOn joins two subplans on one key column each.
func hashJoinOn(left, right *planner.Node, lk, rk int) *planner.Node {
	return &planner.Node{Op: planner.OpHashJoin, Left: left, Right: right,
		LeftKeys: []int{lk}, RightKeys: []int{rk},
		Cols:     append(append([]planner.OutCol{}, left.Cols...), right.Cols...),
		SortedBy: -1}
}

// countAndMax puts COUNT(*), MAX(col) over a subplan, the shape of the
// benchmark streams' queries: the join output streams into the aggregate
// and one row comes back.
func countAndMax(child *planner.Node, col int) *planner.Node {
	return &planner.Node{Op: planner.OpAggregate, Left: child,
		Aggs: []planner.AggSpec{{Func: sqlparser.AggCount, Col: -1}, {Func: sqlparser.AggMax, Col: col}},
		Cols: make([]planner.OutCol, 2), SortedBy: -1}
}

// TestExecutorAllocs holds the executor to allocation and byte ceilings on
// scaled-down copies (one tenth) of BenchmarkExecutor's join and scan
// shapes and on a three-way hash/hash plan shaped like the IMDb streams'
// joins. Operators pass pointer-free row-id tuples and only the root and
// the aggregate build values, so a run's allocations grow with collected
// id slices and chunks, not with rows, and its bytes are the id slices,
// the join table and the buffer pool's churn. Each ceiling is about 1.5×
// what the tuple pipeline measures. Counts alone no longer tell a
// row-carving executor from a tuple one (carving from chunks made both
// small), so bytes are pinned too: the row-carving pipeline this one
// replaced allocated 3.4 MB, 1.0 MB and 6.9 MB per run on these plans.
func TestExecutorAllocs(t *testing.T) {
	f := newFixture(4096)
	f.addTable(catalog.MustTable("l", catalog.Column{Name: "a", Type: catalog.Int}), intRows(mod(12000, 3000)...))
	f.addTable(catalog.MustTable("r", catalog.Column{Name: "b", Type: catalog.Int}), intRows(mod(6000, 3000)...))
	f.addTable(catalog.MustTable("s", catalog.Column{Name: "v", Type: catalog.Int}), intRows(mod(40000, 10000)...))

	twoCols := func(name, c0, c1 string, rows int, v0, v1 func(i int) int64) *planner.Node {
		tbl := storage.NewTable(catalog.MustTable(name,
			catalog.Column{Name: c0, Type: catalog.Int}, catalog.Column{Name: c1, Type: catalog.Int}))
		for i := 0; i < rows; i++ {
			if err := tbl.AppendRow(storage.Row{storage.IntVal(v0(i)), storage.IntVal(v1(i))}); err != nil {
				t.Fatal(err)
			}
		}
		f.db.AddTable(tbl)
		return &planner.Node{Op: planner.OpSeqScan, Table: name, Alias: name, SortedBy: -1,
			Cols: []planner.OutCol{{Alias: name, Name: c0, Type: catalog.Int}, {Alias: name, Name: c1, Type: catalog.Int}}}
	}
	id := func(i int) int64 { return int64(i) }
	title := twoCols("title", "id", "year", 2000, id, func(i int) int64 { return int64(1950 + i%70) })
	castInfo := twoCols("cast_info", "movie_id", "person_id", 12000,
		func(i int) int64 { return int64(i % 2000) }, func(i int) int64 { return int64(i * 7 % 3000) })
	name := twoCols("name", "id", "gender", 3000, id, func(i int) int64 { return int64(i % 2) })

	scan := scanNode("s", "v", rangeFilter("v", 100, 8000))
	for _, tc := range []struct {
		name          string
		plan          *planner.Node
		allocs, bytes float64
	}{
		{"join_heavy", countAndMax(hashJoinOn(scanNode("l", "a"), scanNode("r", "b"), 0, 0), 0), 110, 390_000},
		{"scan_heavy", countAndMax(scan, 0), 50, 4_000},
		{"imdb_hash_hash", countAndMax(hashJoinOn(hashJoinOn(castInfo, title, 0, 0), name, 1, 0), 3), 170, 740_000},
	} {
		run := func() {
			if _, err := f.ex.Run(tc.plan); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the buffer pool: cold misses allocate its frames
		allocs := testing.AllocsPerRun(5, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 5; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / 5
		t.Logf("%s: %.0f allocs, %.0f bytes", tc.name, allocs, bytes)
		if allocs > tc.allocs {
			t.Errorf("%s made %.0f allocations, ceiling is %.0f", tc.name, allocs, tc.allocs)
		}
		if bytes > tc.bytes {
			t.Errorf("%s allocated %.0f bytes, ceiling is %.0f", tc.name, bytes, tc.bytes)
		}
	}
}

// TestResultRowsSurviveNextRun pins storage.Row's contract on the rows an
// Executor hands out, which chunk carving makes load-bearing: result rows
// stay valid and unchanged across a later run and an aborted run on the
// same Executor (chunks are dropped, never reused), a row's capacity
// equals its length so appending to it cannot write into its neighbour in
// the chunk, and after an abort the Executor holds no chunk.
func TestResultRowsSurviveNextRun(t *testing.T) {
	f, joinA := joinFixtureT(planner.OpHashJoin, mod(300, 50), mod(200, 40))
	f.addTable(catalog.MustTable("big", catalog.Column{Name: "a", Type: catalog.Int}), intRows(seq(5000)...))
	snapshot := func(rows []storage.Row) []storage.Row {
		out := make([]storage.Row, len(rows))
		for i, r := range rows {
			out[i] = append(storage.Row(nil), r...)
		}
		return out
	}

	rowsA, err := f.ex.Run(joinA)
	if err != nil {
		t.Fatal(err)
	}
	wantA := snapshot(rowsA)
	if len(rowsA) != 1200 {
		t.Fatalf("run A: %d rows", len(rowsA))
	}
	for i, r := range rowsA {
		if cap(r) != len(r) {
			t.Errorf("run A row %d: capacity %d exceeds length %d", i, cap(r), len(r))
			break
		}
	}
	// Rows 0 and 1 are adjacent in a chunk; growing one must copy it.
	if grown := append(rowsA[0], storage.IntVal(-1)); &grown[0] == &rowsA[0][0] {
		t.Error("append to a result row wrote in place")
	}
	if !rowsEqual(rowsA, wantA) {
		t.Fatal("append to a result row changed a neighbouring row")
	}

	// Run B carves more values than A did, so a chunk surviving from A —
	// rewound or merely continued — would be written over.
	rowsB, err := f.ex.Run(scanNode("big", "a"))
	if err != nil {
		t.Fatal(err)
	}
	wantB := snapshot(rowsB)
	if len(rowsB) != 5000 || rowsB[4999][0].I != 4999 {
		t.Fatalf("run B: %d rows", len(rowsB))
	}

	// Run C aborts mid-scan, after it has carved rows of its own.
	injected := errors.New("injected")
	f.ex.Fault = &Fault{AfterPages: 40, Err: injected}
	if _, err := f.ex.Run(scanNode("big", "a")); err != injected {
		t.Fatalf("run C: err = %v, want the injected fault", err)
	}
	f.ex.Fault = nil
	if f.ex.chunk != nil {
		t.Errorf("executor holds a %d-value chunk after an aborted run", len(f.ex.chunk))
	}
	// Run D is what would write into anything C left behind.
	if _, err := f.ex.Run(joinA); err != nil {
		t.Fatal(err)
	}
	if f.ex.chunk != nil {
		t.Errorf("executor holds a %d-value chunk after a completed run", len(f.ex.chunk))
	}
	if !rowsEqual(rowsA, wantA) {
		t.Error("run A's rows changed under later runs")
	}
	if !rowsEqual(rowsB, wantB) {
		t.Error("run B's rows changed under later runs")
	}
}
