package core

import (
	"slices"
	"strings"
	"testing"

	"bao/internal/guard"
	"bao/internal/model"
	"bao/internal/nn"
	"bao/internal/obs"
	"bao/internal/planner"
)

// stubModel predicts a constant for every plan, making the
// gross-misprediction arithmetic in Observe exactly controllable.
type stubModel struct {
	pred float64
	fits int
}

func (s *stubModel) Name() string { return "stub" }

func (s *stubModel) Fit(trees []*nn.Tree, secs []float64) int {
	s.fits++
	return 1
}

func (s *stubModel) Predict(trees []*nn.Tree) []float64 {
	out := make([]float64, len(trees))
	for i := range out {
		out[i] = s.pred
	}
	return out
}

const obsTestSQL = "SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id AND t.production_year > 1990"

// TestGrossMispredictionTriggersEarlyRetrain exercises the §3.2 "learns
// from its mistakes" branch: an execution observed far above its
// prediction (secs > 8*pred, slow in absolute terms, at least two queries
// since the last retrain) must retrain immediately instead of waiting out
// the RetrainEvery schedule.
func TestGrossMispredictionTriggersEarlyRetrain(t *testing.T) {
	e := buildIMDbEngine(t)
	stub := &stubModel{pred: 0.001}
	cfg := FastConfig()
	cfg.RetrainEvery = 1000 // keep the schedule out of the way
	cfg.ArmWarmup = 0
	cfg.NewModel = func(int64) model.Model { return stub }
	cfg.Observer = obs.NewObserver(obs.NewRegistry(), nil)
	b := New(e, cfg)

	sel, err := b.Select(obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the experience window past the >=16 retrain floor.
	for i := 0; i < 20; i++ {
		b.ObserveValue(sel, 0.01)
	}
	if b.TrainCount() != 0 {
		t.Fatalf("retrained on schedule unexpectedly (trainCount=%d)", b.TrainCount())
	}
	b.Retrain()
	if !b.Trained() || b.TrainCount() != 1 {
		t.Fatalf("manual retrain: trained=%v trainCount=%d", b.Trained(), b.TrainCount())
	}

	// First post-retrain observation: grossly mispredicted, but
	// sinceTrain == 1, so the trigger must hold its fire (a single
	// observation right after a retrain cannot indict the new model).
	sel2, err := b.Select(obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !sel2.UsedModel {
		t.Fatal("model not used after retrain")
	}
	b.Observe(sel2, executorCounters(0, 1000, 0)) // 0.2s vs 0.001s predicted
	if b.TrainCount() != 1 {
		t.Fatalf("early retrain fired with sinceTrain < 2 (trainCount=%d)", b.TrainCount())
	}

	// Second gross misprediction: now the early retrain must fire.
	sel3, err := b.Select(obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	b.Observe(sel3, executorCounters(0, 1000, 0))
	if b.TrainCount() != 2 {
		t.Fatalf("gross misprediction did not trigger early retrain (trainCount=%d)", b.TrainCount())
	}
	if b.sinceTrain != 0 {
		t.Fatalf("sinceTrain = %d after early retrain, want 0", b.sinceTrain)
	}

	snap := b.Stats()
	if got := snap.Counter("bao_gross_mispredictions_total"); got != 2 {
		t.Fatalf("gross mispredictions counter = %v, want 2", got)
	}
	if got := snap.Counter("bao_early_retrains_total"); got != 1 {
		t.Fatalf("early retrains counter = %v, want 1", got)
	}

	// Control: a well-predicted fast execution must not retrain. Use a
	// value above 8*pred but below the 0.03s absolute floor to confirm
	// the floor is honored too.
	sel4, err := b.Select(obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	b.Observe(sel4, executorCounters(500, 0, 0)) // 1e-5 s: fast
	sel5, err := b.Select(obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	b.Observe(sel5, executorCounters(0, 100, 0)) // 0.02s: >8*pred but under floor
	if b.TrainCount() != 2 {
		t.Fatalf("retrain fired below the absolute-slowness floor (trainCount=%d)", b.TrainCount())
	}
}

// TestObserveValueNeverRetrainsEarly pins ObserveValue's contract: even a
// grossly mispredicted external measurement only retrains on schedule.
func TestObserveValueNeverRetrainsEarly(t *testing.T) {
	e := buildIMDbEngine(t)
	stub := &stubModel{pred: 0.001}
	cfg := FastConfig()
	cfg.RetrainEvery = 1000
	cfg.ArmWarmup = 0
	cfg.NewModel = func(int64) model.Model { return stub }
	cfg.Observer = obs.Disabled()
	b := New(e, cfg)
	sel, err := b.Select(obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		b.ObserveValue(sel, 0.01)
	}
	b.Retrain()
	sel2, _ := b.Select(obsTestSQL)
	b.ObserveValue(sel2, 10) // 10s vs 0.001s predicted
	sel3, _ := b.Select(obsTestSQL)
	b.ObserveValue(sel3, 10)
	if b.TrainCount() != 1 {
		t.Fatalf("ObserveValue triggered an early retrain (trainCount=%d)", b.TrainCount())
	}
}

// TestAddExternalExperienceRetrainSchedule covers off-policy learning's
// retrain scheduling: the >=16 experience floor gates the first retrain,
// then RetrainEvery paces the rest.
func TestAddExternalExperienceRetrainSchedule(t *testing.T) {
	e := buildIMDbEngine(t)
	stub := &stubModel{pred: 0.001}
	cfg := FastConfig()
	cfg.RetrainEvery = 5
	cfg.NewModel = func(int64) model.Model { return stub }
	cfg.Observer = obs.NewObserver(obs.NewRegistry(), nil)
	b := New(e, cfg)

	plan, err := e.PlanSQL(obsTestSQL, planner.AllOn())
	if err != nil {
		t.Fatal(err)
	}
	// 15 experiences: sinceTrain is far past RetrainEvery, but the window
	// floor (>=16) must hold the retrain back.
	for i := 0; i < 15; i++ {
		b.AddExternalExperience(plan, executorCounters(int64(1000+i), 10, 0))
	}
	if b.TrainCount() != 0 {
		t.Fatalf("retrained before the 16-experience floor (trainCount=%d)", b.TrainCount())
	}
	// The 16th tips it over.
	b.AddExternalExperience(plan, executorCounters(2000, 10, 0))
	if b.TrainCount() != 1 || b.sinceTrain != 0 || !b.Trained() {
		t.Fatalf("first retrain: trainCount=%d sinceTrain=%d trained=%v",
			b.TrainCount(), b.sinceTrain, b.Trained())
	}
	// Thereafter RetrainEvery paces retrains.
	for i := 0; i < 4; i++ {
		b.AddExternalExperience(plan, executorCounters(3000, 10, 0))
	}
	if b.TrainCount() != 1 {
		t.Fatalf("retrained before RetrainEvery elapsed (trainCount=%d)", b.TrainCount())
	}
	b.AddExternalExperience(plan, executorCounters(3000, 10, 0))
	if b.TrainCount() != 2 {
		t.Fatalf("second retrain did not fire on schedule (trainCount=%d)", b.TrainCount())
	}
	if stub.fits != 2 {
		t.Fatalf("model fits = %d, want 2", stub.fits)
	}
	if got := b.Stats().Counter("bao_external_experiences_total"); got != 21 {
		t.Fatalf("external experience counter = %v, want 21", got)
	}
}

// TestDecisionLoopMetricsAndTraces runs the full Run loop and checks that
// metrics and decision traces come out consistent.
func TestDecisionLoopMetricsAndTraces(t *testing.T) {
	e := buildIMDbEngine(t)
	o := obs.NewObserver(obs.NewRegistry(), nil)
	o.EnableTracing(8)
	cfg := FastConfig()
	cfg.Arms = TopArms(3)
	cfg.RetrainEvery = 1000
	cfg.Observer = o
	b := New(e, cfg)

	const n = 5
	for i := 0; i < n; i++ {
		if _, _, err := b.Run(obsTestSQL); err != nil {
			t.Fatal(err)
		}
	}

	snap := b.Stats()
	if got := snap.Counter("bao_queries_total"); got != n {
		t.Fatalf("query counter = %v, want %d", got, n)
	}
	var selected float64
	for _, v := range snap.Labeled["bao_arm_selected_total"] {
		selected += v
	}
	if selected != n {
		t.Fatalf("arm selections = %v, want %d", selected, n)
	}
	for _, h := range []string{"bao_selection_seconds", "bao_execution_seconds"} {
		if got := snap.Histograms[h].Count; got != n {
			t.Fatalf("%s count = %d, want %d", h, got, n)
		}
	}
	for _, stage := range []string{"parse", "plan_arms", "featurize"} {
		if got := snap.LabeledHist["bao_select_stage_seconds"][stage].Count; got != n {
			t.Fatalf("bao_select_stage_seconds{stage=%q} count = %d, want %d", stage, got, n)
		}
	}
	if hr := snap.Gauge("bao_bufferpool_hit_rate"); hr < 0 || hr > 1 {
		t.Fatalf("hit rate = %v, want [0,1]", hr)
	}
	if got := snap.Gauge("bao_experience_window"); got != n {
		t.Fatalf("window gauge = %v, want %d", got, n)
	}
	if snap.Counter("bao_exec_cpu_ops_total") <= 0 {
		t.Fatal("executor CPU ops not recorded")
	}

	traces := o.Traces()
	if len(traces) != n {
		t.Fatalf("trace count = %d, want %d", len(traces), n)
	}
	newest := traces[0]
	if newest.ArmName == "" || newest.ObservedSecs <= 0 {
		t.Fatalf("trace missing arm/observation: %+v", newest)
	}
	if !strings.Contains(newest.SQL, "SELECT") {
		t.Fatalf("trace SQL = %q", newest.SQL)
	}
	want := map[string]bool{"parse": false, "plan_arms": false,
		"featurize": false, "execute": false, "observe": false}
	for _, sp := range newest.Spans {
		if _, ok := want[sp.Name]; ok {
			want[sp.Name] = true
		}
		if sp.DurUS < 0 || sp.StartUS < 0 {
			t.Fatalf("negative span timing: %+v", sp)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("trace missing span %q: %+v", name, newest.Spans)
		}
	}
	if newest.WarmUp != b.state.Load().warm {
		t.Fatalf("trace warm-up flag = %v", newest.WarmUp)
	}
}

// TestAddExternalExperienceEarlyRetrain covers the off-policy side of the
// §3.2 mistake-driven loop: an external (advisor-mode) execution that
// grossly exceeds the model's prediction must trigger an early retrain
// through the same shared admission path the on-policy Observe uses.
func TestAddExternalExperienceEarlyRetrain(t *testing.T) {
	e := buildIMDbEngine(t)
	stub := &stubModel{pred: 0.001}
	cfg := FastConfig()
	cfg.RetrainEvery = 1000 // keep the schedule out of the way
	cfg.ArmWarmup = 0
	cfg.NewModel = func(int64) model.Model { return stub }
	cfg.Observer = obs.NewObserver(obs.NewRegistry(), nil)
	b := New(e, cfg)

	plan, err := e.PlanSQL(obsTestSQL, planner.AllOn())
	if err != nil {
		t.Fatal(err)
	}
	// Seed past the >=16 window floor and train once so predictions exist.
	for i := 0; i < 16; i++ {
		b.AddExternalExperience(plan, executorCounters(1000, 10, 0))
	}
	b.Retrain()
	if b.TrainCount() != 1 {
		t.Fatalf("setup retrain: trainCount=%d", b.TrainCount())
	}
	// Fast external execution: predicted 1ms, observed ~2ms — no indictment.
	b.AddExternalExperience(plan, executorCounters(1000, 10, 0))
	if b.TrainCount() != 1 {
		t.Fatalf("benign external experience retrained (trainCount=%d)", b.TrainCount())
	}
	// Slow external execution: ~200ms against a 1ms prediction, past the
	// absolute floor and >=2 since the last retrain — retrain immediately.
	b.AddExternalExperience(plan, executorCounters(0, 1000, 0))
	if b.TrainCount() != 2 || b.sinceTrain != 0 {
		t.Fatalf("gross external misprediction did not early-retrain (trainCount=%d sinceTrain=%d)",
			b.TrainCount(), b.sinceTrain)
	}
	snap := b.Stats()
	if got := snap.Counter("bao_early_retrains_total"); got != 1 {
		t.Fatalf("bao_early_retrains_total = %v, want 1", got)
	}
	if got := snap.Counter("bao_gross_mispredictions_total"); got != 1 {
		t.Fatalf("bao_gross_mispredictions_total = %v, want 1", got)
	}
	// The window gauge is maintained exactly once per admission.
	if got := snap.Gauge("bao_experience_window"); got != 18 {
		t.Fatalf("bao_experience_window = %v, want 18", got)
	}
}

// TestSelectStagesTileTheSelection drives a select through a plan-cache
// miss, a hit, the open breaker and a planner panic. In each, every
// stage that ran is observed exactly once in bao_select_stage_seconds and
// no other stage is, and the trace spans from parse to the last stage
// follow one another with no gap (±1 µs of rounding).
func TestSelectStagesTileTheSelection(t *testing.T) {
	newBao := func(fault *guard.Fault) (*Bao, *obs.Observer) {
		cfg := guardTestConfig(1, fault)
		cfg.PlanCache = true
		cfg.NewModel = func(int64) model.Model { return &stubModel{pred: 0.01} }
		cfg.Observer.EnableTracing(8)
		return New(buildIMDbEngine(t), cfg), cfg.Observer
	}
	b, o := newBao(nil)
	sel, err := b.Select(obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		b.ObserveValue(sel, 0.01)
	}
	b.Retrain()
	panicky, po := newBao(&guard.Fault{PlanPanicArm: 1})
	const other = "SELECT COUNT(*) FROM title t WHERE t.kind_id = 3"

	for _, c := range []struct {
		name   string
		b      *Bao
		o      *obs.Observer
		before func()
		want   []string
	}{
		{"miss", b, o, nil, []string{"parse", "plan_arms", "featurize", "infer", "select_arm"}},
		{"hit", b, o, nil, []string{"parse", "plancache", "infer", "select_arm"}},
		{"breaker-open", b, o, func() { b.Breaker().Trip("test") }, []string{"parse", "plan_arms", "featurize"}},
		{"planner-panic", panicky, po, nil, []string{"parse", "plan_arms", "featurize"}},
	} {
		if c.before != nil {
			c.before()
		}
		before := c.o.Snapshot().LabeledHist["bao_select_stage_seconds"]
		sel, err := c.b.Select(other)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		after := c.o.Snapshot().LabeledHist["bao_select_stage_seconds"]
		for _, stage := range []string{"parse", "plancache", "plan_arms", "featurize", "infer", "select_arm"} {
			want := int64(0)
			if slices.Contains(c.want, stage) {
				want = 1
			}
			if got := after[stage].Count - before[stage].Count; got != want {
				t.Errorf("%s: stage %q observed %d times, want %d", c.name, stage, got, want)
			}
		}
		spans := sel.Trace.Spans
		var names []string
		for i, sp := range spans {
			names = append(names, sp.Name)
			if i == 0 {
				continue
			}
			prev := spans[i-1]
			if gap := sp.StartUS - (prev.StartUS + prev.DurUS); gap < -1 || gap > 1 {
				t.Errorf("%s: span %q starts %d µs after %q ends, want 0 ± 1", c.name, sp.Name, gap, prev.Name)
			}
		}
		if !slices.Equal(names, c.want) {
			t.Errorf("%s: spans %v, want %v", c.name, names, c.want)
		}
	}
}
