package core

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"bao/internal/model"

	"bao/internal/cloud"
	"bao/internal/engine"
	"bao/internal/obs"
	"bao/internal/planner"
	"bao/internal/workload"
)

func TestDefaultArms(t *testing.T) {
	arms := DefaultArms()
	if len(arms) != 49 {
		t.Fatalf("arm count = %d, want 49", len(arms))
	}
	if arms[0].Hints != planner.AllOn() {
		t.Fatalf("arm 0 must be the unhinted optimizer, got %+v", arms[0].Hints)
	}
	seen := map[planner.Hints]bool{}
	for _, a := range arms {
		if seen[a.Hints] {
			t.Fatalf("duplicate arm %+v", a.Hints)
		}
		seen[a.Hints] = true
		// Every arm has at least one join and one scan enabled.
		if !a.Hints.HashJoin && !a.Hints.MergeJoin && !a.Hints.NestLoop {
			t.Fatal("arm with no join operators")
		}
		if !a.Hints.SeqScan && !a.Hints.IndexScan && !a.Hints.IndexOnlyScan {
			t.Fatal("arm with no scan operators")
		}
	}
}

func TestTopArms(t *testing.T) {
	arms := TopArms(5)
	if len(arms) != 5 || arms[0].Hints != planner.AllOn() {
		t.Fatalf("TopArms(5) = %+v", arms)
	}
	if arms[1].Hints.NestLoop {
		t.Fatal("second top arm should disable nested loops")
	}
	if got := TopArms(100); len(got) != 6 {
		t.Fatalf("TopArms clamps to 6, got %d", len(got))
	}
}

// buildIMDbEngine creates a small IMDb instance for core tests.
func buildIMDbEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(engine.GradePostgreSQL, 3000)
	inst := workload.IMDb(workload.Config{Scale: 0.12, Queries: 1, Seed: 42})
	if err := inst.Setup(e); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestVectorizeBinaryAndValid(t *testing.T) {
	e := buildIMDbEngine(t)
	n, err := e.PlanSQL("SELECT t.production_year, COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id AND t.kind_id = 2 GROUP BY t.production_year ORDER BY t.production_year", planner.AllOn())
	if err != nil {
		t.Fatal(err)
	}
	f := &Featurizer{}
	tree := f.Vectorize(n)
	if err := tree.Validate(); err != nil {
		t.Fatalf("vectorized tree invalid: %v", err)
	}
	if !tree.IsBinary() {
		t.Fatal("vectorized tree not strictly binary")
	}
	// One-hot property: exactly one type bit set per node; estimates in range.
	for i := 0; i < tree.N; i++ {
		row := tree.Row(i)
		ones := 0
		for j := 0; j <= nullTypeIndex; j++ {
			if row[j] == 1 {
				ones++
			} else if row[j] != 0 {
				t.Fatalf("node %d: non-binary one-hot value %v", i, row[j])
			}
		}
		if ones != 1 {
			t.Fatalf("node %d: %d type bits set", i, ones)
		}
		for j := nullTypeIndex + 1; j < FeatureDim; j++ {
			if row[j] < 0 || row[j] > 1.5 {
				t.Fatalf("node %d feature %d = %v out of range", i, j, row[j])
			}
		}
	}
}

func TestCacheFeatureAppears(t *testing.T) {
	e := buildIMDbEngine(t)
	// Warm the cache with a heap scan (kind_id is unindexed, so this
	// cannot be satisfied by an index-only scan).
	if _, err := e.Query("SELECT COUNT(*) FROM title t WHERE t.kind_id >= 0"); err != nil {
		t.Fatal(err)
	}
	b := New(e, FastConfig())
	n, err := e.PlanSQL("SELECT COUNT(*) FROM title t WHERE t.votes > 100", planner.Hints{SeqScan: true, HashJoin: true, MergeJoin: true, NestLoop: true})
	if err != nil {
		t.Fatal(err)
	}
	tree := b.Feat.Vectorize(n)
	found := false
	for i := 0; i < tree.N; i++ {
		if tree.Row(i)[FeatureDim-1] > 0.5 {
			found = true
		}
	}
	if !found {
		t.Fatal("cache fraction feature not populated for a fully cached table")
	}
}

func TestSelectBeforeTrainingUsesDefaultArm(t *testing.T) {
	e := buildIMDbEngine(t)
	b := New(e, FastConfig())
	sel, err := b.Select("SELECT COUNT(*) FROM title t WHERE t.kind_id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if sel.ArmID != 0 || sel.UsedModel {
		t.Fatalf("cold-start selection = arm %d, used model %v", sel.ArmID, sel.UsedModel)
	}
	if len(sel.Plans) != len(b.Cfg.Arms) || len(sel.Trees) != len(b.Cfg.Arms) {
		t.Fatal("selection missing per-arm plans/trees")
	}
}

func TestBanditLearnsTrapQuery(t *testing.T) {
	// After observing the workload, Bao must stop picking the catastrophic
	// default plan for the 16b-style trap query.
	e := buildIMDbEngine(t)
	cfg := FastConfig()
	cfg.Arms = TopArms(6)
	cfg.RetrainEvery = 20
	cfg.Train.MaxEpochs = 15
	b := New(e, cfg)

	inst := workload.IMDb(workload.Config{Scale: 0.12, Queries: 120, Seed: 42})
	for _, q := range inst.Queries {
		if _, _, err := b.Run(q.SQL); err != nil {
			t.Fatalf("%s: %v", q.Template, err)
		}
	}
	if !b.Trained() {
		t.Fatal("model never trained")
	}
	// The trap query: default plan is catastrophic; Bao should choose an
	// arm whose simulated latency is much better than arm 0's plan.
	trap := "SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id AND t.kind_id = 7 AND t.votes > 200000"
	sel, err := b.Select(trap)
	if err != nil {
		t.Fatal(err)
	}
	timeOf := func(arm int) float64 {
		e.Pool.Clear()
		res, err := e.Execute(sel.Plans[arm])
		if err != nil {
			t.Fatal(err)
		}
		return cloud.ExecSeconds(res.Counters)
	}
	chosen := timeOf(sel.ArmID)
	def := timeOf(0)
	if chosen > def {
		t.Fatalf("Bao picked a worse arm (%d: %.3fs) than default (%.3fs)", sel.ArmID, chosen, def)
	}
	if def > 1 && chosen > def/2 {
		t.Fatalf("Bao failed to fix the trap: chosen %.3fs vs default %.3fs", chosen, def)
	}
}

func TestWindowEviction(t *testing.T) {
	e := buildIMDbEngine(t)
	cfg := FastConfig()
	// Above the minRetrainWindow floor (smaller values are clamped up —
	// see TestWindowSizeClampedToRetrainFloor).
	cfg.WindowSize = 20
	cfg.RetrainEvery = 1000 // never retrain in this test
	b := New(e, cfg)
	for i := 0; i < 45; i++ {
		if _, _, err := b.Run("SELECT COUNT(*) FROM title t WHERE t.kind_id = 1"); err != nil {
			t.Fatal(err)
		}
	}
	if b.ExperienceSize() != 20 {
		t.Fatalf("window size = %d, want 20", b.ExperienceSize())
	}
}

func TestCriticalExplorationPreventsRegression(t *testing.T) {
	e := buildIMDbEngine(t)
	cfg := FastConfig()
	cfg.Arms = TopArms(3)
	cfg.RetrainEvery = 10
	cfg.Train.MaxEpochs = 10
	b := New(e, cfg)
	crit := "SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id AND t.kind_id = 7 AND t.votes > 200000"
	b.MarkCritical(crit)
	if _, err := b.ExploreCritical(); err != nil {
		t.Fatal(err)
	}
	// Feed some generic experience and retrain.
	for i := 0; i < 12; i++ {
		if _, _, err := b.Run("SELECT COUNT(*) FROM title t WHERE t.kind_id = 2"); err != nil {
			t.Fatal(err)
		}
	}
	b.Retrain()
	if got := mispredictedCriticalOn(b.state.Load().model, b.CriticalSets()); len(got) != 0 {
		t.Fatalf("critical query still mispredicted after retrain: %v", got)
	}
}

// TestExploreCriticalDeterministicOrder: exploration visits the marked
// queries in sorted key order whatever order they were marked in, so the
// buffer-pool state each one meets — and with it the recorded latencies
// and cache-aware features — is the same run after run.
func TestExploreCriticalDeterministicOrder(t *testing.T) {
	sqls := []string{
		"SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id AND t.kind_id = 7 AND t.votes > 200000",
		"SELECT COUNT(*) FROM title t, movie_info mi WHERE t.id = mi.movie_id AND t.production_year > 2005",
		"SELECT COUNT(*) FROM cast_info ci WHERE ci.role_id = 2",
	}
	explore := func(markOrder []int) map[string][]Experience {
		cfg := FastConfig()
		cfg.Arms = TopArms(3)
		b := New(buildIMDbEngine(t), cfg)
		for _, i := range markOrder {
			b.MarkCritical(sqls[i])
		}
		var visited []string
		b.SetCriticalHook(func(key string, _ []Experience) { visited = append(visited, key) })
		if _, err := b.ExploreCritical(); err != nil {
			t.Fatal(err)
		}
		if len(visited) != len(sqls) || !sort.StringsAreSorted(visited) {
			t.Fatalf("explored %q, want all %d keys in sorted order", visited, len(sqls))
		}
		return b.CriticalSets()
	}
	first := explore([]int{0, 1, 2})
	for _, order := range [][]int{{2, 0, 1}, {1, 2, 0}} {
		if again := explore(order); !reflect.DeepEqual(first, again) {
			t.Fatalf("marking in order %v recorded different experiences than marking in order", order)
		}
	}
}

// TestCriticalRetrainDeterministic rebuilds one optimizer six times — 20
// queries, 4 of them marked critical and explored, one retrain on one
// worker — and requires the same saved model every time: the training
// sample and the enforcement refit set take the critical sets in key
// order, not map order.
func TestCriticalRetrainDeterministic(t *testing.T) {
	stream := workload.IMDb(workload.Config{Scale: 0.12, Queries: 20, Seed: 42}).Queries
	var first []byte
	for rebuild := 0; rebuild < 6; rebuild++ {
		cfg := FastConfig()
		cfg.Arms = TopArms(6)
		cfg.Train.MaxEpochs = 5
		cfg.Workers = 1
		cfg.Observer = obs.Disabled()
		b := New(buildIMDbEngine(t), cfg)
		for _, q := range stream[:4] {
			b.MarkCritical(q.SQL)
		}
		if _, err := b.ExploreCritical(); err != nil {
			t.Fatal(err)
		}
		for _, q := range stream {
			if _, _, err := b.Run(q.SQL); err != nil {
				t.Fatal(err)
			}
		}
		b.Retrain()
		var buf bytes.Buffer
		if err := b.SaveModel(&buf); err != nil {
			t.Fatal(err)
		}
		if rebuild == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("rebuild %d saved a different model than rebuild 0", rebuild)
		}
	}
}

func TestAdvisorMode(t *testing.T) {
	e := buildIMDbEngine(t)
	cfg := FastConfig()
	cfg.Arms = TopArms(4)
	cfg.RetrainEvery = 15
	b := New(e, cfg)
	b.AdvisorMode = true
	inst := workload.IMDb(workload.Config{Scale: 0.12, Queries: 40, Seed: 7})
	for _, q := range inst.Queries {
		res, sel, err := b.Run(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		if sel != nil {
			t.Fatal("advisor mode must not steer plans")
		}
		if res == nil {
			t.Fatal("advisor mode must still execute")
		}
	}
	if !b.Trained() {
		t.Fatal("advisor mode should learn off-policy")
	}
	out, err := b.ExplainWithAdvice("SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id AND t.kind_id = 7 AND t.votes > 200000")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Bao prediction:", "Bao recommended hint:", "QUERY PLAN"} {
		if !strings.Contains(out, want) {
			t.Fatalf("advisor EXPLAIN missing %q:\n%s", want, out)
		}
	}
}

// TestAdviseIsSelectsChoice: during the arm warm-up, with a trained model,
// the hint set Advise recommends is the arm Select picks for the same
// query, and its predictions are that arm's — the advice is the decision.
func TestAdviseIsSelectsChoice(t *testing.T) {
	cfg := FastConfig()
	cfg.Observer = obs.Disabled()
	b := trainedBao(t, cfg)
	if !b.state.Load().warm {
		t.Fatal("the trained model is past the warm-up: the test would not exercise it")
	}
	for _, q := range workload.IMDb(workload.Config{Scale: 0.12, Queries: 80, Seed: 7}).Queries {
		a, _, err := b.Advise(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := b.Select(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		if want := b.Cfg.Arms[sel.ArmID]; a.BestArm != want {
			t.Fatalf("%s: Advise recommends %q, Select chose %q", q.Template, a.BestArm.Name, want.Name)
		}
		if a.BestPredSecs != sel.Preds[sel.ArmID] || a.ImprovementSecs != sel.Preds[0]-sel.Preds[sel.ArmID] {
			t.Fatalf("%s: advice %+v does not carry the chosen arm's prediction", q.Template, a)
		}
	}
}

func TestAdviseUntrainedErrors(t *testing.T) {
	e := buildIMDbEngine(t)
	b := New(e, FastConfig())
	if _, _, err := b.Advise("SELECT COUNT(*) FROM title"); err == nil {
		t.Fatal("advise without training should error")
	}
}

func TestTrainEventsRecorded(t *testing.T) {
	e := buildIMDbEngine(t)
	cfg := FastConfig()
	cfg.Arms = TopArms(2)
	cfg.RetrainEvery = 20
	b := New(e, cfg)
	seen := 0
	for i := 0; i < 45; i++ {
		if _, _, err := b.Run("SELECT COUNT(*) FROM title t WHERE t.kind_id = 3"); err != nil {
			t.Fatal(err)
		}
		if b.TrainCount() == seen {
			continue
		}
		seen = b.TrainCount()
		if ev := b.LastTrain(); ev.Samples == 0 || ev.SimGPUSeconds <= 0 || ev.AtQuery != i+1 {
			t.Fatalf("bad train event %+v after query %d", ev, i+1)
		}
	}
	if seen < 2 {
		t.Fatalf("expected ≥2 train events, got %d", seen)
	}
}

func TestMetricValues(t *testing.T) {
	c := executorCounters(1000, 50, 20)
	if MetricCPU.Value(c) <= 0 || MetricIO.Value(c) <= 0 || MetricLatency.Value(c) <= 0 {
		t.Fatal("metric values must be positive for nonzero counters")
	}
	if MetricIO.Value(c) != 50*1e-4 {
		t.Fatalf("IO metric = %v", MetricIO.Value(c))
	}
}

func TestModelPersistenceAcrossInstances(t *testing.T) {
	e := buildIMDbEngine(t)
	cfg := FastConfig()
	cfg.Arms = TopArms(4)
	cfg.RetrainEvery = 20
	b1 := New(e, cfg)
	for i := 0; i < 45; i++ {
		if _, _, err := b1.Run("SELECT COUNT(*) FROM title t WHERE t.kind_id = 2"); err != nil {
			t.Fatal(err)
		}
	}
	if !b1.Trained() {
		t.Fatal("first instance never trained")
	}
	var buf bytes.Buffer
	if err := b1.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	// A fresh instance loads the model and selects with it immediately —
	// no relearning, no cold-start arm-0 phase.
	b2 := New(e, cfg)
	if err := b2.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	if !b2.Trained() {
		t.Fatal("loaded instance not marked trained")
	}
	sel, err := b2.Select("SELECT COUNT(*) FROM title t WHERE t.kind_id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if !sel.UsedModel {
		t.Fatal("loaded model not used for selection")
	}
}

func TestSaveModelWrongTypeFails(t *testing.T) {
	e := buildIMDbEngine(t)
	cfg := FastConfig()
	cfg.NewModel = func(int64) model.Model { return model.NewLinear() }
	b := New(e, cfg)
	var buf bytes.Buffer
	if err := b.SaveModel(&buf); err == nil {
		t.Fatal("persistence should be TCNN-only")
	}
}

func TestArmWarmupCurriculum(t *testing.T) {
	e := buildIMDbEngine(t)
	cfg := FastConfig()
	cfg.ArmWarmup = 2
	cfg.RetrainEvery = 10
	b := New(e, cfg)
	// Before any training: default arm only.
	if got := b.state.Load().arms; len(got) != 6 {
		t.Fatalf("warm-up family size = %d, want 6 (TopArms)", len(got))
	}
	for i := 0; i < 40; i++ {
		if _, _, err := b.Run("SELECT COUNT(*) FROM title t WHERE t.kind_id = 1"); err != nil {
			t.Fatal(err)
		}
	}
	if b.TrainCount() < 2 {
		t.Fatalf("trainCount = %d, want ≥ 2", b.TrainCount())
	}
	if got := b.state.Load().arms; len(got) != len(b.Cfg.Arms) {
		t.Fatalf("after warm-up selectable arms = %d, want all %d", len(got), len(b.Cfg.Arms))
	}
}

func TestArmWarmupDisabled(t *testing.T) {
	e := buildIMDbEngine(t)
	cfg := FastConfig()
	cfg.ArmWarmup = 0
	b := New(e, cfg)
	if got := b.state.Load().arms; len(got) != len(b.Cfg.Arms) {
		t.Fatalf("warm-up disabled but only %d arms selectable", len(got))
	}
}
