package bao_test

// BenchmarkExecutor times the executor on four plan shapes, with
// allocations: join-heavy (a large hash join whose output streams into an
// aggregate), scan-heavy (a filtered sequential scan under an aggregate),
// sort-heavy (ORDER BY … LIMIT over a filtered scan) and inl-heavy (an
// index nested loop over a filtered outer, under an aggregate). Together
// they run every operator the executor streams or materializes, so an
// executor performance change has a before/after row for each. These are
// the rows such a change names beforehand; equivalence to the volcano
// oracle is internal/executor's tests' job, not this file's.

import (
	"strings"
	"testing"

	"bao/internal/catalog"
	"bao/internal/engine"
	"bao/internal/planner"
	"bao/internal/storage"
)

// benchExecutorEngine builds l(a) joined by r(b), with an index on r.b,
// plus a wide scan table.
func benchExecutorEngine(b *testing.B) *engine.Engine {
	b.Helper()
	e := engine.New(engine.GradePostgreSQL, 4096)
	e.CreateTable(catalog.MustTable("l", catalog.Column{Name: "a", Type: catalog.Int}))
	e.CreateTable(catalog.MustTable("r", catalog.Column{Name: "b", Type: catalog.Int}))
	e.CreateTable(catalog.MustTable("s", catalog.Column{Name: "v", Type: catalog.Int}))
	lrows := make([]storage.Row, 120000)
	for i := range lrows {
		lrows[i] = storage.Row{storage.IntVal(int64(i % 30000))}
	}
	rrows := make([]storage.Row, 60000)
	for i := range rrows {
		rrows[i] = storage.Row{storage.IntVal(int64(i % 30000))}
	}
	srows := make([]storage.Row, 400000)
	for i := range srows {
		srows[i] = storage.Row{storage.IntVal(int64(i % 100000))}
	}
	for name, rows := range map[string][]storage.Row{"l": lrows, "r": rrows, "s": srows} {
		if err := e.Insert(name, rows); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.CreateIndex(catalog.Index{Name: "ix_r_b", Table: "r", Column: "b"}); err != nil {
		b.Fatal(err)
	}
	e.Analyze()
	return e
}

func BenchmarkExecutor(b *testing.B) {
	e := benchExecutorEngine(b)
	for _, shape := range []struct {
		name  string
		sql   string
		hints planner.Hints
	}{
		// Join output is 2× the probe side; the aggregate consumes it.
		{"join_heavy", "SELECT COUNT(*), MAX(l.a) FROM l, r WHERE l.a = r.b", planner.Hints{HashJoin: true, SeqScan: true}},
		{"scan_heavy", "SELECT COUNT(*), MAX(s.v) FROM s WHERE s.v BETWEEN 1000 AND 80000", planner.Hints{SeqScan: true}},
		// 76,000 rows pass the filter and are sorted; ten come back.
		{"sort_heavy", "SELECT s.v FROM s WHERE s.v BETWEEN 1000 AND 19999 ORDER BY s.v DESC LIMIT 10", planner.Hints{SeqScan: true}},
		// 12,000 outer rows, one index probe each, two matches per probe.
		{"inl_heavy", "SELECT COUNT(*), MAX(r.b) FROM l, r WHERE l.a = r.b AND l.a < 3000", planner.Hints{NestLoop: true, SeqScan: true, IndexScan: true}},
	} {
		plan, err := e.PlanSQL(shape.sql, shape.hints)
		if err != nil {
			b.Fatal(err)
		}
		// Warm the buffer pool to its steady state for this shape (the
		// first execution takes the cold misses).
		if _, err := e.Execute(plan); err != nil {
			b.Fatal(err)
		}
		if shape.name == "inl_heavy" && !strings.Contains(plan.Explain(), "Index Scan") {
			b.Fatalf("inl_heavy is not an index nested loop:\n%s", plan.Explain())
		}
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			meter := startAllocMeter()
			for i := 0; i < b.N; i++ {
				e.Exec.ResetCounters()
				if _, err := e.Execute(plan); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			recordBenchAllocs(b, 1, 1, 0, &meter) // the executor runs on one goroutine
		})
	}
}
