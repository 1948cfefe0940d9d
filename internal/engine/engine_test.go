package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"bao/internal/catalog"
	"bao/internal/planner"
	"bao/internal/storage"
)

// testEngine builds a small two-table database with indexes and analyzed
// statistics: movies(id, year, kind) and ratings(movie_id, score).
func testEngine(t *testing.T, grade Grade, nMovies, nRatings int, seed int64) *Engine {
	t.Helper()
	e := New(grade, 1024)
	e.CreateTable(catalog.MustTable("movies",
		catalog.Column{Name: "id", Type: catalog.Int},
		catalog.Column{Name: "year", Type: catalog.Int},
		catalog.Column{Name: "kind", Type: catalog.Int},
	))
	e.CreateTable(catalog.MustTable("ratings",
		catalog.Column{Name: "movie_id", Type: catalog.Int},
		catalog.Column{Name: "score", Type: catalog.Int},
	))
	rng := rand.New(rand.NewSource(seed))
	var mrows []storage.Row
	for i := 0; i < nMovies; i++ {
		mrows = append(mrows, storage.Row{
			storage.IntVal(int64(i)),
			storage.IntVal(int64(1980 + rng.Intn(40))),
			storage.IntVal(int64(rng.Intn(5))),
		})
	}
	if err := e.Insert("movies", mrows); err != nil {
		t.Fatal(err)
	}
	var rrows []storage.Row
	for i := 0; i < nRatings; i++ {
		rrows = append(rrows, storage.Row{
			storage.IntVal(int64(rng.Intn(nMovies))),
			storage.IntVal(int64(rng.Intn(10))),
		})
	}
	if err := e.Insert("ratings", rrows); err != nil {
		t.Fatal(err)
	}
	for _, ix := range []catalog.Index{
		{Name: "ix_movies_id", Table: "movies", Column: "id", Unique: true},
		{Name: "ix_movies_year", Table: "movies", Column: "year"},
		{Name: "ix_ratings_movie_id", Table: "ratings", Column: "movie_id"},
	} {
		if err := e.CreateIndex(ix); err != nil {
			t.Fatal(err)
		}
	}
	e.Analyze()
	return e
}

func TestSimpleScanResults(t *testing.T) {
	e := New(GradePostgreSQL, 64)
	e.CreateTable(catalog.MustTable("t",
		catalog.Column{Name: "a", Type: catalog.Int},
		catalog.Column{Name: "b", Type: catalog.Str}))
	e.Insert("t", []storage.Row{
		{storage.IntVal(1), storage.StrVal("x")},
		{storage.IntVal(2), storage.StrVal("y")},
		{storage.IntVal(3), storage.StrVal("x")},
	})
	e.Analyze()
	res, err := e.Query("SELECT a FROM t WHERE b = 'x' ORDER BY a DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].I != 3 || res.Rows[1][0].I != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	e := New(GradePostgreSQL, 64)
	e.CreateTable(catalog.MustTable("t",
		catalog.Column{Name: "g", Type: catalog.Int},
		catalog.Column{Name: "v", Type: catalog.Int}))
	e.Insert("t", []storage.Row{
		{storage.IntVal(1), storage.IntVal(10)},
		{storage.IntVal(1), storage.IntVal(20)},
		{storage.IntVal(2), storage.IntVal(5)},
	})
	e.Analyze()
	res, err := e.Query("SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t GROUP BY g ORDER BY g")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{1, 2, 30, 10, 20, 15}, {2, 1, 5, 5, 5, 5}}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for i, w := range want {
		for j, v := range w {
			if res.Rows[i][j].I != v {
				t.Fatalf("row %d col %d = %v, want %d", i, j, res.Rows[i][j], v)
			}
		}
	}
}

func TestUngroupedAggregateOnEmptyInput(t *testing.T) {
	e := New(GradePostgreSQL, 64)
	e.CreateTable(catalog.MustTable("t", catalog.Column{Name: "a", Type: catalog.Int}))
	e.Insert("t", []storage.Row{{storage.IntVal(1)}})
	e.Analyze()
	res, err := e.Query("SELECT COUNT(*), SUM(a) FROM t WHERE a > 100")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 || !res.Rows[0][1].Null {
		t.Fatalf("empty aggregate = %v", res.Rows)
	}
}

func TestLimit(t *testing.T) {
	e := testEngine(t, GradePostgreSQL, 100, 100, 1)
	res, err := e.Query("SELECT id FROM movies ORDER BY id LIMIT 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 || res.Rows[0][0].I != 0 {
		t.Fatalf("limit rows = %v", res.Rows)
	}
}

// canonical renders rows order-independently for set comparison.
func canonical(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		s := ""
		for _, v := range r {
			s += v.String() + "|"
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

// TestHintSetsSemanticallyEquivalent is the core safety property from the
// paper (§2): every hint set must produce the same query results.
func TestHintSetsSemanticallyEquivalent(t *testing.T) {
	e := testEngine(t, GradePostgreSQL, 500, 2000, 2)
	queries := []string{
		"SELECT COUNT(*) FROM movies m, ratings r WHERE m.id = r.movie_id AND m.year > 2010",
		"SELECT m.id, r.score FROM movies m, ratings r WHERE m.id = r.movie_id AND m.kind = 2 AND r.score >= 8",
		"SELECT m.year, COUNT(*) FROM movies m, ratings r WHERE m.id = r.movie_id GROUP BY m.year ORDER BY m.year",
		"SELECT COUNT(*) FROM movies m, ratings r WHERE m.id = r.movie_id AND m.year BETWEEN 1990 AND 1995 AND r.score IN (1, 9)",
	}
	hintSets := []planner.Hints{
		planner.AllOn(),
		{HashJoin: true, SeqScan: true},                   // hash-only
		{MergeJoin: true, SeqScan: true, IndexScan: true}, // merge-only
		{NestLoop: true, SeqScan: true, IndexScan: true},  // NL with index
		{NestLoop: true, SeqScan: true},                   // naive NL
		{HashJoin: true, MergeJoin: true, NestLoop: true, IndexScan: true, IndexOnlyScan: true}, // no seq scan
		{}, // everything "disabled" (penalties only)
	}
	for qi, sql := range queries {
		q, err := e.AnalyzeSQL(sql)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		var ref []string
		for hi, h := range hintSets {
			n, _, err := e.Plan(q, h)
			if err != nil {
				t.Fatalf("query %d hint %d: plan: %v", qi, hi, err)
			}
			res, err := e.Execute(n)
			if err != nil {
				t.Fatalf("query %d hint %d: exec: %v", qi, hi, err)
			}
			got := canonical(res.Rows)
			if hi == 0 {
				ref = got
				continue
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("query %d: hint set %d produced different rows (%d vs %d)\nplan:\n%s",
					qi, hi, len(got), len(ref), n.Explain())
			}
		}
	}
}

// TestHintsChangePlans verifies the hints actually steer operator choice.
func TestHintsChangePlans(t *testing.T) {
	e := testEngine(t, GradePostgreSQL, 2000, 10000, 3)
	sql := "SELECT COUNT(*) FROM movies m, ratings r WHERE m.id = r.movie_id"
	q, err := e.AnalyzeSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	ops := func(h planner.Hints) map[planner.Op]int {
		n, _, err := e.Plan(q, h)
		if err != nil {
			t.Fatal(err)
		}
		m := map[planner.Op]int{}
		n.Walk(func(x *planner.Node) { m[x.Op]++ })
		return m
	}
	noNL := ops(planner.Hints{HashJoin: true, MergeJoin: true, SeqScan: true, IndexScan: true, IndexOnlyScan: true})
	if noNL[planner.OpNestLoop] != 0 {
		t.Fatal("nest loop used despite being disabled with alternatives available")
	}
	onlyNL := ops(planner.Hints{NestLoop: true, SeqScan: true, IndexScan: true, IndexOnlyScan: true})
	if onlyNL[planner.OpNestLoop] == 0 {
		t.Fatal("nest loop not used when it is the only enabled join")
	}
	onlyMerge := ops(planner.Hints{MergeJoin: true, SeqScan: true})
	if onlyMerge[planner.OpMergeJoin] == 0 {
		t.Fatal("merge join not used when it is the only enabled join")
	}
}

func TestIndexVsSeqScanChoice(t *testing.T) {
	e := testEngine(t, GradePostgreSQL, 20000, 100, 4)
	// Highly selective predicate on an indexed column → index scan.
	n, err := e.PlanSQL("SELECT kind FROM movies WHERE id = 5", planner.AllOn())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	n.Walk(func(x *planner.Node) {
		if x.Op == planner.OpIndexScan {
			found = true
		}
	})
	if !found {
		t.Fatalf("selective predicate did not choose index scan:\n%s", n.Explain())
	}
	// Unselective predicate → seq scan.
	n, err = e.PlanSQL("SELECT kind FROM movies WHERE year > 1900", planner.AllOn())
	if err != nil {
		t.Fatal(err)
	}
	seq := false
	n.Walk(func(x *planner.Node) {
		if x.Op == planner.OpSeqScan {
			seq = true
		}
	})
	if !seq {
		t.Fatalf("unselective predicate did not choose seq scan:\n%s", n.Explain())
	}
}

func TestIndexOnlyScan(t *testing.T) {
	e := testEngine(t, GradePostgreSQL, 20000, 100, 5)
	n, err := e.PlanSQL("SELECT year FROM movies WHERE year BETWEEN 2000 AND 2001", planner.AllOn())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	n.Walk(func(x *planner.Node) {
		if x.Op == planner.OpIndexOnlyScan {
			found = true
		}
	})
	if !found {
		t.Fatalf("covering query did not use index-only scan:\n%s", n.Explain())
	}
	res, err := e.Execute(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r[0].I < 2000 || r[0].I > 2001 {
			t.Fatalf("index-only scan returned out-of-range row %v", r)
		}
	}
}

func TestSetVarControlsHints(t *testing.T) {
	e := testEngine(t, GradePostgreSQL, 100, 100, 6)
	if err := e.SetVar("enable_nestloop", "off"); err != nil {
		t.Fatal(err)
	}
	if e.SessionHints.NestLoop {
		t.Fatal("SET enable_nestloop TO off had no effect")
	}
	if err := e.SetVar("enable_bao", "on"); err != nil {
		t.Fatal(err)
	}
	if e.Var("enable_bao") != "on" {
		t.Fatal("non-hint variable not stored")
	}
	if err := e.SetVar("enable_hashjoin", "banana"); err == nil {
		t.Fatal("bad boolean accepted")
	}
}

func TestCountersNonZeroAndCacheWarms(t *testing.T) {
	e := testEngine(t, GradePostgreSQL, 5000, 20000, 7)
	res1, err := e.Query("SELECT COUNT(*) FROM ratings WHERE score = 3")
	if err != nil {
		t.Fatal(err)
	}
	if res1.Counters.CPUOps == 0 || res1.Counters.PageMisses == 0 {
		t.Fatalf("cold counters = %+v", res1.Counters)
	}
	res2, err := e.Query("SELECT COUNT(*) FROM ratings WHERE score = 3")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Counters.PageMisses >= res1.Counters.PageMisses {
		t.Fatalf("warm run misses %d not below cold %d", res2.Counters.PageMisses, res1.Counters.PageMisses)
	}
}

func TestNestLoopBilledQuadratically(t *testing.T) {
	e := testEngine(t, GradePostgreSQL, 1000, 5000, 8)
	sql := "SELECT COUNT(*) FROM movies m, ratings r WHERE m.id = r.movie_id"
	q, _ := e.AnalyzeSQL(sql)
	nlPlan, _, err := e.Plan(q, planner.Hints{NestLoop: true, SeqScan: true})
	if err != nil {
		t.Fatal(err)
	}
	hashPlan, _, err := e.Plan(q, planner.Hints{HashJoin: true, SeqScan: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Pool.Clear()
	nlRes, err := e.Execute(nlPlan)
	if err != nil {
		t.Fatal(err)
	}
	e.Pool.Clear()
	hashRes, err := e.Execute(hashPlan)
	if err != nil {
		t.Fatal(err)
	}
	if nlRes.Counters.CPUOps < 10*hashRes.Counters.CPUOps {
		t.Fatalf("naive NL (%d ops) not billed much more than hash (%d ops)",
			nlRes.Counters.CPUOps, hashRes.Counters.CPUOps)
	}
	if nlRes.Rows[0][0].I != hashRes.Rows[0][0].I {
		t.Fatal("NL and hash join disagree on result")
	}
}

func TestSchemaChange(t *testing.T) {
	e := testEngine(t, GradePostgreSQL, 100, 100, 9)
	e.DropTable("ratings")
	if _, err := e.Query("SELECT COUNT(*) FROM ratings"); err == nil {
		t.Fatal("query against dropped table succeeded")
	}
	e.CreateTable(catalog.MustTable("ratings",
		catalog.Column{Name: "movie_id", Type: catalog.Int},
		catalog.Column{Name: "stars", Type: catalog.Int}))
	e.Insert("ratings", []storage.Row{{storage.IntVal(1), storage.IntVal(5)}})
	e.Analyze()
	res, err := e.Query("SELECT stars FROM ratings")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 5 {
		t.Fatalf("new schema rows = %v", res.Rows)
	}
}

func TestExplainOutput(t *testing.T) {
	e := testEngine(t, GradePostgreSQL, 100, 100, 10)
	n, err := e.PlanSQL("SELECT COUNT(*) FROM movies m, ratings r WHERE m.id = r.movie_id AND m.year > 2000", planner.AllOn())
	if err != nil {
		t.Fatal(err)
	}
	out := e.Explain(n)
	for _, want := range []string{"QUERY PLAN", "Aggregate", "cost="} {
		if !contains(out, want) {
			t.Fatalf("EXPLAIN output missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		})())
}

func TestThreeWayJoin(t *testing.T) {
	e := testEngine(t, GradePostgreSQL, 200, 800, 11)
	e.CreateTable(catalog.MustTable("kinds",
		catalog.Column{Name: "id", Type: catalog.Int},
		catalog.Column{Name: "label", Type: catalog.Str}))
	var rows []storage.Row
	for i := 0; i < 5; i++ {
		rows = append(rows, storage.Row{storage.IntVal(int64(i)), storage.StrVal(fmt.Sprintf("k%d", i))})
	}
	e.Insert("kinds", rows)
	e.Analyze()
	res, err := e.Query(`SELECT k.label, COUNT(*) FROM movies m, ratings r, kinds k
		WHERE m.id = r.movie_id AND m.kind = k.id GROUP BY k.label ORDER BY k.label`)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, r := range res.Rows {
		total += r[1].I
	}
	// Every rating joins exactly one movie and one kind.
	if total != 800 {
		t.Fatalf("three-way join total = %d, want 800", total)
	}
}

// TestPlanConcurrentCandidateCounts: Engine.Plan returns the planner
// effort of its own call. Queries of one, two and three relations cost
// different numbers of join candidates; planned concurrently on one
// engine, each caller must get its own query's count (the count used to
// travel through a field of the shared optimizer, so concurrent callers —
// /v1/critical exploration, advisor-mode runs — could read each other's).
func TestPlanConcurrentCandidateCounts(t *testing.T) {
	e := testEngine(t, GradePostgreSQL, 200, 800, 11)
	sqls := []string{
		"SELECT COUNT(*) FROM movies m WHERE m.year > 2000",
		"SELECT COUNT(*) FROM movies m, ratings r WHERE m.id = r.movie_id",
		"SELECT COUNT(*) FROM movies m, ratings r, ratings r2 WHERE m.id = r.movie_id AND m.id = r2.movie_id AND r.score = r2.score",
	}
	queries := make([]*planner.Query, len(sqls))
	want := make([]int, len(sqls))
	for i, sql := range sqls {
		q, err := e.AnalyzeSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
		if _, want[i], err = e.Plan(q, planner.AllOn()); err != nil {
			t.Fatal(err)
		}
	}
	if want[0] == want[1] || want[1] == want[2] {
		t.Fatalf("candidate counts %v do not tell the queries apart", want)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(queries)
			for n := 0; n < 200; n++ {
				if _, got, err := e.Plan(queries[i], planner.AllOn()); err != nil || got != want[i] {
					t.Errorf("query %d: %d candidates (err %v), want %d", i, got, err, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
