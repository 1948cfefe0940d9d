package executor_test

import (
	"math/rand"
	"reflect"
	"testing"

	"bao/internal/catalog"
	"bao/internal/engine"
	"bao/internal/executor"
	"bao/internal/planner"
	"bao/internal/storage"
)

// parityEngine loads a seeded movies/ratings database (indexed, analyzed)
// into a fresh engine.
func parityEngine(t *testing.T) *engine.Engine {
	t.Helper()
	const nMovies, nRatings = 500, 2000
	e := engine.New(engine.GradePostgreSQL, 1024)
	e.CreateTable(catalog.MustTable("movies",
		catalog.Column{Name: "id", Type: catalog.Int},
		catalog.Column{Name: "year", Type: catalog.Int},
		catalog.Column{Name: "kind", Type: catalog.Int},
	))
	e.CreateTable(catalog.MustTable("ratings",
		catalog.Column{Name: "movie_id", Type: catalog.Int},
		catalog.Column{Name: "score", Type: catalog.Int},
	))
	rng := rand.New(rand.NewSource(2))
	var movies, ratings []storage.Row
	for i := 0; i < nMovies; i++ {
		movies = append(movies, storage.Row{storage.IntVal(int64(i)),
			storage.IntVal(int64(1980 + rng.Intn(40))), storage.IntVal(int64(rng.Intn(5)))})
	}
	for i := 0; i < nRatings; i++ {
		ratings = append(ratings, storage.Row{storage.IntVal(int64(rng.Intn(nMovies))), storage.IntVal(int64(rng.Intn(10)))})
	}
	if err := e.Insert("movies", movies); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("ratings", ratings); err != nil {
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

// TestBatchPipelineParity runs a workload of real SQL (joins under every
// hint set, aggregates, sorts, limits), planned by the real optimizer,
// through the product pipeline and through the volcano oracle on
// identically seeded engines, and requires exactly equal rows and
// per-query Counters in sequence. The buffer pool carries state across
// queries, so this also proves the two produce the same page-access order,
// not just the same totals.
func TestBatchPipelineParity(t *testing.T) {
	queries := []string{
		"SELECT COUNT(*) FROM movies m, ratings r WHERE m.id = r.movie_id AND m.year > 2010",
		"SELECT m.id, r.score FROM movies m, ratings r WHERE m.id = r.movie_id AND m.kind = 2 AND r.score >= 8",
		"SELECT m.year, COUNT(*) FROM movies m, ratings r WHERE m.id = r.movie_id GROUP BY m.year ORDER BY m.year",
		"SELECT m.year, MIN(r.score), MAX(r.score), AVG(r.score) FROM movies m, ratings r WHERE m.id = r.movie_id GROUP BY m.year ORDER BY m.year DESC LIMIT 5",
		"SELECT id FROM movies WHERE year BETWEEN 1990 AND 1999 ORDER BY id LIMIT 20",
		"SELECT COUNT(*) FROM ratings WHERE score IN (1, 9)",
	}
	hintSets := []planner.Hints{
		planner.AllOn(),
		{HashJoin: true, SeqScan: true},
		{MergeJoin: true, SeqScan: true, IndexScan: true},
		{NestLoop: true, SeqScan: true, IndexScan: true},
	}
	type obs struct {
		rows [][]storage.Row
		cnt  []executor.Counters
	}
	run := func(eval func(*executor.Executor, *planner.Node) ([]storage.Row, error)) obs {
		e := parityEngine(t)
		var o obs
		for qi, sql := range queries {
			q, err := e.AnalyzeSQL(sql)
			if err != nil {
				t.Fatalf("query %d: %v", qi, err)
			}
			for hi, h := range hintSets {
				n, _, err := e.Plan(q, h)
				if err != nil {
					t.Fatalf("query %d hint %d: %v", qi, hi, err)
				}
				e.Exec.ResetCounters()
				rows, err := eval(e.Exec, n)
				if err != nil {
					t.Fatalf("query %d hint %d: %v", qi, hi, err)
				}
				o.rows = append(o.rows, rows)
				o.cnt = append(o.cnt, e.Exec.C)
			}
		}
		return o
	}
	ref := run((*executor.Executor).RunReference)
	got := run((*executor.Executor).Run)
	for i := range ref.cnt {
		// Positional: ORDER BY queries must match in order, not just as sets.
		if !reflect.DeepEqual(ref.rows[i], got.rows[i]) {
			t.Fatalf("query/hint %d: rows diverge from the reference", i)
		}
		if ref.cnt[i] != got.cnt[i] {
			t.Fatalf("query/hint %d counters\n  reference %+v\n  product   %+v", i, ref.cnt[i], got.cnt[i])
		}
	}
}
