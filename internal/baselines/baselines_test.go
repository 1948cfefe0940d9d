// Package baselines_test exercises the shared learning loop with a stub
// learner, and the Neo, DQ and learned-cost reproductions end to end on
// the IMDb workload: each must produce correct results and learn from
// experience.
package baselines_test

import (
	"reflect"
	"testing"

	"bao/internal/baselines"
	"bao/internal/baselines/dq"
	"bao/internal/baselines/learnedcost"
	"bao/internal/baselines/neo"
	"bao/internal/engine"
	"bao/internal/planner"
	"bao/internal/workload"
)

func imdbEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(engine.GradePostgreSQL, 3000)
	inst := workload.IMDb(workload.Config{Scale: 0.12, Queries: 1, Seed: 42})
	if err := inst.Setup(e); err != nil {
		t.Fatal(err)
	}
	return e
}

func refCount(t *testing.T, e *engine.Engine, sql string) int64 {
	t.Helper()
	n, err := e.PlanSQL(sql, planner.AllOn())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(n)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].I
}

func TestNeoProducesCorrectResults(t *testing.T) {
	e := imdbEngine(t)
	cfg := neo.DefaultConfig()
	cfg.BootstrapQueries = 5
	cfg.RetrainEvery = 10
	cfg.Train.MaxEpochs = 8
	n := neo.New(e, cfg)
	inst := workload.IMDb(workload.Config{Scale: 0.12, Queries: 30, Seed: 5})
	for _, q := range inst.Queries {
		if _, err := n.Run(q.SQL); err != nil {
			t.Fatalf("%s: %v", q.Template, err)
		}
	}
	if n.Trains() == 0 {
		t.Fatal("neo never trained")
	}
	// After training, Neo's self-built plans must still be correct.
	sql := "SELECT COUNT(*) FROM title t, cast_info ci, name n WHERE t.id = ci.movie_id AND ci.person_id = n.id AND t.kind_id = 3 AND n.gender = 1"
	want := refCount(t, e, sql)
	res, err := n.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].I; got != want {
		t.Fatalf("neo plan returned %d, reference %d", got, want)
	}
}

func TestDQProducesCorrectResults(t *testing.T) {
	e := imdbEngine(t)
	cfg := dq.DefaultConfig()
	cfg.BootstrapQueries = 5
	cfg.RetrainEvery = 10
	cfg.Train.MaxEpochs = 8
	d := dq.New(e, cfg)
	inst := workload.IMDb(workload.Config{Scale: 0.12, Queries: 30, Seed: 6})
	for _, q := range inst.Queries {
		if _, err := d.Run(q.SQL); err != nil {
			t.Fatalf("%s: %v", q.Template, err)
		}
	}
	if d.Trains() == 0 {
		t.Fatal("dq never trained")
	}
	sql := "SELECT COUNT(*) FROM title t, movie_companies mc, company c WHERE t.id = mc.movie_id AND mc.company_id = c.id AND c.country = 2"
	want := refCount(t, e, sql)
	res, err := d.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].I; got != want {
		t.Fatalf("dq plan returned %d, reference %d", got, want)
	}
}

func TestNeoBootstrapUsesNativePlans(t *testing.T) {
	e := imdbEngine(t)
	cfg := neo.DefaultConfig()
	cfg.BootstrapQueries = 1000 // never leave bootstrap
	n := neo.New(e, cfg)
	sql := "SELECT COUNT(*) FROM title t WHERE t.kind_id = 1"
	want := refCount(t, e, sql)
	res, err := n.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != want {
		t.Fatal("bootstrap-phase result mismatch")
	}
}

func TestLearnedCostDPProducesCorrectResults(t *testing.T) {
	e := imdbEngine(t)
	cfg := learnedcost.DefaultConfig()
	cfg.BootstrapQueries = 5
	cfg.RetrainEvery = 10
	cfg.Train.MaxEpochs = 8
	lc := learnedcost.New(e, cfg)
	inst := workload.IMDb(workload.Config{Scale: 0.12, Queries: 30, Seed: 9})
	for _, q := range inst.Queries {
		if _, err := lc.Run(q.SQL); err != nil {
			t.Fatalf("%s: %v", q.Template, err)
		}
	}
	if lc.Trains() == 0 {
		t.Fatal("learned-cost planner never trained")
	}
	sql := "SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id AND t.kind_id = 2"
	want := refCount(t, e, sql)
	res, err := lc.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].I; got != want {
		t.Fatalf("learned-cost plan returned %d, reference %d", got, want)
	}
}

// stubLearner plans natively and records perQuery window entries per
// query, numbered in arrival order, so a test can read off when the loop
// consulted the policy and what each fit saw.
type stubLearner struct {
	eng      *engine.Engine
	perQuery int
	ran      int     // queries recorded
	planned  []int   // 0-based indices of the queries the policy planned
	fits     [][]int // the window at each fit
	fitAt    []int   // queries recorded before each fit
}

func (s *stubLearner) Plan(q *planner.Query) (*planner.Node, []int, error) {
	s.planned = append(s.planned, s.ran)
	n, _, err := s.eng.Plan(q, planner.AllOn())
	return n, nil, err
}

func (s *stubLearner) Record(_ *planner.Node, _ []int, _ float64) []int {
	var out []int
	for k := 0; k < s.perQuery; k++ {
		out = append(out, s.ran*s.perQuery+k)
	}
	s.ran++
	return out
}

func (s *stubLearner) Fit(window []int) {
	s.fits = append(s.fits, append([]int(nil), window...))
	s.fitAt = append(s.fitAt, s.ran)
}

// runStub drives a loop with a stub learner for n queries.
func runStub(t *testing.T, sched baselines.Schedule, perQuery, n int) (*stubLearner, *baselines.Loop[int]) {
	t.Helper()
	e := imdbEngine(t)
	s := &stubLearner{eng: e, perQuery: perQuery}
	l := baselines.NewLoop[int](e, sched, s)
	for i := 0; i < n; i++ {
		if _, err := l.Run("SELECT COUNT(*) FROM title t WHERE t.kind_id = 1"); err != nil {
			t.Fatal(err)
		}
	}
	return s, l
}

func TestLoopBootstrapLength(t *testing.T) {
	// The policy takes over after BootstrapQueries queries...
	s, _ := runStub(t, baselines.Schedule{WindowSize: 100, RetrainEvery: 5, BootstrapQueries: 12}, 4, 15)
	if want := []int{12, 13, 14}; !reflect.DeepEqual(s.planned, want) {
		t.Fatalf("policy planned queries %v, want %v", s.planned, want)
	}
	// ...but never before the first fit.
	s, _ = runStub(t, baselines.Schedule{WindowSize: 100, RetrainEvery: 5, BootstrapQueries: 2}, 4, 7)
	if want := []int{5, 6}; !reflect.DeepEqual(s.planned, want) {
		t.Fatalf("policy planned queries %v, want %v (first fit after query 5)", s.planned, want)
	}
}

func TestLoopRetrainCadence(t *testing.T) {
	s, l := runStub(t, baselines.Schedule{WindowSize: 1000, RetrainEvery: 5, BootstrapQueries: 0}, 4, 22)
	if want := []int{5, 10, 15, 20}; !reflect.DeepEqual(s.fitAt, want) {
		t.Fatalf("fits after queries %v, want %v", s.fitAt, want)
	}
	if l.Trains() != len(s.fits) {
		t.Fatalf("Trains() = %d, learner fitted %d times", l.Trains(), len(s.fits))
	}
	for i, w := range s.fits {
		if len(w) != 4*s.fitAt[i] {
			t.Fatalf("fit %d saw %d entries, want every one recorded (%d)", i, len(w), 4*s.fitAt[i])
		}
	}
}

func TestLoopWindowCap(t *testing.T) {
	s, _ := runStub(t, baselines.Schedule{WindowSize: 18, RetrainEvery: 5, BootstrapQueries: 0}, 4, 10)
	if len(s.fits) != 2 {
		t.Fatalf("%d fits, want 2", len(s.fits))
	}
	for i, w := range s.fits {
		// The window keeps the newest 18 entries, oldest first.
		last := 4*s.fitAt[i] - 1
		want := make([]int, 18)
		for k := range want {
			want[k] = last - 17 + k
		}
		if !reflect.DeepEqual(w, want) {
			t.Fatalf("fit %d saw window %v, want %v", i, w, want)
		}
	}
}

func TestLoopNoRetrainBelowFloor(t *testing.T) {
	// One entry per query and a retrain due every 2: nothing fits until
	// the window holds 16 entries, then the schedule resumes from there.
	_, l := runStub(t, baselines.Schedule{WindowSize: 100, RetrainEvery: 2, BootstrapQueries: 0}, 1, 15)
	if l.Trains() != 0 {
		t.Fatalf("%d fits on a window of 15, want none", l.Trains())
	}
	s, _ := runStub(t, baselines.Schedule{WindowSize: 100, RetrainEvery: 2, BootstrapQueries: 0}, 1, 20)
	if want := []int{16, 18, 20}; !reflect.DeepEqual(s.fitAt, want) {
		t.Fatalf("fits after queries %v, want %v", s.fitAt, want)
	}
	if len(s.fits[0]) != 16 {
		t.Fatalf("first fit saw %d entries, want 16", len(s.fits[0]))
	}
}
