package planner

import (
	"strings"
	"testing"

	"bao/internal/catalog"
	"bao/internal/sqlparser"
	"bao/internal/stats"
	"bao/internal/storage"
)

// fixture builds a schema, stored data, and an optimizer over PG-grade
// statistics for planner unit tests.
type fixture struct {
	schema *catalog.Schema
	tstats map[string]*stats.TableStats
	opt    *Optimizer
}

func (f *fixture) TableStats(table string) *stats.TableStats {
	return f.tstats[strings.ToLower(table)]
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{schema: catalog.NewSchema(), tstats: make(map[string]*stats.TableStats)}
	movies := catalog.MustTable("movies",
		catalog.Column{Name: "id", Type: catalog.Int},
		catalog.Column{Name: "year", Type: catalog.Int},
		catalog.Column{Name: "title", Type: catalog.Str})
	ratings := catalog.MustTable("ratings",
		catalog.Column{Name: "movie_id", Type: catalog.Int},
		catalog.Column{Name: "score", Type: catalog.Int})
	f.schema.AddTable(movies)
	f.schema.AddTable(ratings)
	if err := f.schema.AddIndex(catalog.Index{Name: "ix_m_id", Table: "movies", Column: "id", Unique: true}); err != nil {
		t.Fatal(err)
	}
	if err := f.schema.AddIndex(catalog.Index{Name: "ix_r_mid", Table: "ratings", Column: "movie_id"}); err != nil {
		t.Fatal(err)
	}
	mt := storage.NewTable(movies)
	for i := 0; i < 2000; i++ {
		mt.AppendRow(storage.Row{storage.IntVal(int64(i)),
			storage.IntVal(int64(1950 + i%70)), storage.StrVal("t")})
	}
	rt := storage.NewTable(ratings)
	for i := 0; i < 10000; i++ {
		rt.AppendRow(storage.Row{storage.IntVal(int64(i % 2000)), storage.IntVal(int64(i % 10))})
	}
	b := stats.PGGrade()
	f.tstats["movies"] = b.Build(mt)
	f.tstats["ratings"] = b.Build(rt)
	f.opt = &Optimizer{Schema: f.schema, Stats: f}
	return f
}

func (f *fixture) analyze(t *testing.T, sql string) *Query {
	t.Helper()
	stmt, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Analyze(stmt, f.schema)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestAnalyzeErrors(t *testing.T) {
	f := newFixture(t)
	bad := []string{
		"SELECT * FROM nope",
		"SELECT nope FROM movies",
		"SELECT m.nope FROM movies m",
		"SELECT x.id FROM movies m",
		"SELECT id FROM movies m, ratings r WHERE m.id = r.movie_id AND score = score",         // ambiguous? no: score unique to ratings; self-compare
		"SELECT m.id FROM movies m, movies m",                                                  // duplicate alias
		"SELECT m.id FROM movies m, ratings r",                                                 // cross product
		"SELECT m.id FROM movies m WHERE m.id = 'x'",                                           // type mismatch
		"SELECT m.title FROM movies m WHERE m.title = 5",                                       // type mismatch
		"SELECT m.id, COUNT(*) FROM movies m",                                                  // missing group by
		"SELECT m.id FROM movies m GROUP BY m.id",                                              // group without agg
		"SELECT AVG(m.title) FROM movies m",                                                    // avg over text
		"SELECT m.id FROM movies m, ratings r WHERE m.year = r.movie_id AND m.id < r.movie_id", // < join unsupported at parse level
	}
	for _, sql := range bad {
		stmt, err := sqlparser.ParseSelect(sql)
		if err != nil {
			continue // parse-level rejection also counts
		}
		if _, err := Analyze(stmt, f.schema); err == nil {
			t.Errorf("analyze accepted %q", sql)
		}
	}
}

func TestAnalyzeClassifiesPredicates(t *testing.T) {
	f := newFixture(t)
	q := f.analyze(t, `SELECT COUNT(*) FROM movies m, ratings r
		WHERE m.id = r.movie_id AND m.year BETWEEN 1970 AND 1980 AND r.score IN (1,2) AND m.year <> 1975`)
	if len(q.Edges) != 1 || q.Edges[0].LCol != "id" || q.Edges[0].RCol != "movie_id" {
		t.Fatalf("edges: %+v", q.Edges)
	}
	if len(q.Scans[0].Filters) != 2 {
		t.Fatalf("movie filters: %+v", q.Scans[0].Filters)
	}
	if len(q.Scans[1].Filters) != 1 || q.Scans[1].Filters[0].Kind != FIn {
		t.Fatalf("rating filters: %+v", q.Scans[1].Filters)
	}
	if !q.HasAgg {
		t.Fatal("aggregate not detected")
	}
}

func TestFilterMatches(t *testing.T) {
	v5 := storage.IntVal(5)
	cases := []struct {
		f    Filter
		v    storage.Value
		want bool
	}{
		{Filter{Kind: FEq, Val: v5}, storage.IntVal(5), true},
		{Filter{Kind: FEq, Val: v5}, storage.IntVal(6), false},
		{Filter{Kind: FEq, Val: v5}, storage.NullVal(catalog.Int), false},
		{Filter{Kind: FNe, Val: v5}, storage.IntVal(6), true},
		{Filter{Kind: FRange, Lo: &Bound{V: v5, Incl: true}}, storage.IntVal(5), true},
		{Filter{Kind: FRange, Lo: &Bound{V: v5, Incl: false}}, storage.IntVal(5), false},
		{Filter{Kind: FRange, Hi: &Bound{V: v5, Incl: true}}, storage.IntVal(5), true},
		{Filter{Kind: FRange, Hi: &Bound{V: v5, Incl: false}}, storage.IntVal(5), false},
		{Filter{Kind: FIn, Vals: []storage.Value{v5, storage.IntVal(7)}}, storage.IntVal(7), true},
		{Filter{Kind: FIn, Vals: []storage.Value{v5}}, storage.IntVal(6), false},
	}
	for i, c := range cases {
		if got := c.f.Matches(c.v); got != c.want {
			t.Errorf("case %d: Matches(%v) = %v, want %v", i, c.v, got, c.want)
		}
	}
}

func TestHintsSQLRendering(t *testing.T) {
	h := AllOn()
	if got := h.SQL(); got != "(no hints: default optimizer)" {
		t.Fatalf("AllOn SQL = %q", got)
	}
	h.NestLoop = false
	if got := h.SQL(); got != "SET enable_nestloop TO off;" {
		t.Fatalf("SQL = %q", got)
	}
}

func TestDisabledOperatorsStillPlan(t *testing.T) {
	f := newFixture(t)
	q := f.analyze(t, "SELECT COUNT(*) FROM movies m, ratings r WHERE m.id = r.movie_id")
	n, _, err := f.opt.Plan(q, Hints{}) // everything disabled → penalties only
	if err != nil {
		t.Fatalf("all-disabled hints failed to plan: %v", err)
	}
	if n == nil || n.Count() < 3 {
		t.Fatal("degenerate plan")
	}
}

func TestPlanDeterministic(t *testing.T) {
	f := newFixture(t)
	q := f.analyze(t, "SELECT COUNT(*) FROM movies m, ratings r WHERE m.id = r.movie_id AND m.year > 2000")
	a, _, err := f.opt.Plan(q, AllOn())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := f.opt.Plan(q, AllOn())
	if err != nil {
		t.Fatal(err)
	}
	if a.Explain() != b.Explain() {
		t.Fatal("planning is not deterministic")
	}
}

func TestEstimatesOnEveryNode(t *testing.T) {
	f := newFixture(t)
	q := f.analyze(t, "SELECT m.year, COUNT(*) FROM movies m, ratings r WHERE m.id = r.movie_id GROUP BY m.year ORDER BY m.year LIMIT 5")
	n, _, err := f.opt.Plan(q, AllOn())
	if err != nil {
		t.Fatal(err)
	}
	n.Walk(func(x *Node) {
		if x.EstRows < 0 || x.EstCost < 0 {
			t.Fatalf("node %s has negative estimates", x.Op)
		}
	})
	// The top must be Limit over Project over Sort over Aggregate.
	if n.Op != OpLimit || n.Left.Op != OpProject || n.Left.Left.Op != OpSort || n.Left.Left.Left.Op != OpAggregate {
		t.Fatalf("top-of-plan shape wrong:\n%s", n.Explain())
	}
}

func TestPlanSpaceJoinConstruction(t *testing.T) {
	f := newFixture(t)
	q := f.analyze(t, "SELECT COUNT(*) FROM movies m, ratings r WHERE m.id = r.movie_id")
	space, err := f.opt.NewSpace(q)
	if err != nil {
		t.Fatal(err)
	}
	if space.NumRelations() != 2 {
		t.Fatal("wrong relation count")
	}
	s0, err := space.Scan(0, AllOn())
	if err != nil {
		t.Fatal(err)
	}
	s1, err := space.Scan(1, AllOn())
	if err != nil {
		t.Fatal(err)
	}
	if !space.Connected(1, 2) {
		t.Fatal("relations should be connected")
	}
	for _, op := range []Op{OpHashJoin, OpMergeJoin, OpNestLoop} {
		j := space.Join(op, s0, s1, 1, 2)
		if j == nil {
			t.Fatalf("join op %s unavailable", op)
		}
		if j.Op != op {
			t.Fatalf("requested %s, got %s", op, j.Op)
		}
		full, err := space.Finish(j)
		if err != nil {
			t.Fatalf("finish %s: %v", op, err)
		}
		if full.Op != OpProject && full.Op != OpLimit {
			t.Fatalf("finish did not add top: %s", full.Op)
		}
	}
	// Incomplete plans must be rejected.
	if _, err := space.Finish(s0); err == nil {
		t.Fatal("Finish accepted a partial plan")
	}
	if space.RowsOf(3) <= 0 {
		t.Fatal("RowsOf must be positive")
	}
}

func TestJoinOrderSignature(t *testing.T) {
	f := newFixture(t)
	q := f.analyze(t, "SELECT COUNT(*) FROM movies m, ratings r WHERE m.id = r.movie_id")
	n, _, err := f.opt.Plan(q, AllOn())
	if err != nil {
		t.Fatal(err)
	}
	sig := n.JoinOrderSignature()
	if !strings.Contains(sig, "m") || !strings.Contains(sig, "r") {
		t.Fatalf("signature %q missing aliases", sig)
	}
}

func TestTooManyRelationsRejected(t *testing.T) {
	f := newFixture(t)
	q := &Query{}
	for i := 0; i < 17; i++ {
		q.Scans = append(q.Scans, &ScanInfo{})
	}
	if _, _, err := f.opt.Plan(q, AllOn()); err == nil {
		t.Fatal("17-relation query accepted")
	}
}

// TestPlanRejectsSumOverString is the plan-time guard behind the bind-time
// check: a Query assembled (or mutated) directly with SUM/AVG over a
// non-integer column must be refused by buildTop rather than reaching the
// executor, which would have to reject it anyway.
func TestPlanRejectsSumOverString(t *testing.T) {
	f := newFixture(t)
	for _, agg := range []sqlparser.AggFunc{sqlparser.AggSum, sqlparser.AggAvg} {
		q := f.analyze(t, "SELECT MIN(title) FROM movies m")
		q.Outputs[0].Agg = agg // bypass Analyze's bind-time rejection
		if _, _, err := f.opt.Plan(q, AllOn()); err == nil {
			t.Fatalf("%s over string column planned successfully", agg)
		}
	}
}
