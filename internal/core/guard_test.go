package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"bao/internal/guard"
	"bao/internal/model"
	"bao/internal/nn"
	"bao/internal/obs"
	"bao/internal/planner"
	"bao/internal/stats"
)

// guardTestConfig is the shared guard-enabled configuration: small arms,
// fast fits, breaker and validation gate on, deterministic fault script
// supplied by the caller.
func guardTestConfig(workers int, fault *guard.Fault) Config {
	cfg := FastConfig()
	cfg.Arms = TopArms(3)
	cfg.ArmWarmup = 0
	cfg.RetrainEvery = 16
	cfg.Train.MaxEpochs = 3
	cfg.Train.Patience = 2
	cfg.Train.Workers = workers
	cfg.Seed = 7
	cfg.Breaker = guard.BreakerConfig{
		Enabled:       true,
		ModelFailures: 2,
		// Keep serving-regret trips out of the scripted runs: the script
		// drives the breaker through model failures alone.
		RegretFailures: 1000,
		RegretRatio:    1e6,
		Cooldown:       6,
		Probes:         2,
	}
	cfg.Validate = guard.ValidateConfig{Enabled: true}
	cfg.Fault = fault
	cfg.Observer = obs.NewObserver(obs.NewRegistry(), nil)
	return cfg
}

// runGuardScript drives the deterministic fault script through the full
// Run loop on a fresh engine: fit 1 trains normally, fit 2 panics, fit 3
// produces a NaN model the validation gate rejects — the second
// consecutive model failure trips the breaker, which then cools down on
// served-default decisions, goes half-open, and closes on passing probes.
func runGuardScript(t *testing.T, workers int) *Bao {
	t.Helper()
	e := buildIMDbEngine(t)
	cfg := guardTestConfig(workers, &guard.Fault{PanicOnFit: 2, NaNOnFit: 3})
	b := New(e, cfg)
	queries := []string{
		obsTestSQL,
		"SELECT COUNT(*) FROM title t WHERE t.votes > 100",
	}
	for i := 0; i < 60; i++ {
		if _, _, err := b.Run(queries[i%len(queries)]); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	return b
}

// TestGuardFaultScriptDeterministic is the acceptance test for the guard
// subsystem: the injected fault script (bad fit → NaN model → trip →
// cool-down → half-open probes → close) must produce byte-identical
// breaker transitions and identical guard metrics at every worker count.
// The breaker's clock is the decision counter, never wall time, so this
// holds under -race and any scheduling.
func TestGuardFaultScriptDeterministic(t *testing.T) {
	b1 := runGuardScript(t, 1)
	b4 := runGuardScript(t, 4)

	tr1, tr4 := b1.Breaker().Transitions(), b4.Breaker().Transitions()
	if !reflect.DeepEqual(tr1, tr4) {
		t.Fatalf("breaker transitions differ across worker counts:\nworkers=1: %+v\nworkers=4: %+v", tr1, tr4)
	}

	// The script must have walked the full ladder: trip on the second
	// model failure, cool down, half-open, close.
	if len(tr1) < 3 {
		t.Fatalf("transitions = %+v, want trip/half-open/close", tr1)
	}
	if tr1[0].From != guard.Closed || tr1[0].To != guard.Open {
		t.Fatalf("first transition %+v, want Closed→Open", tr1[0])
	}
	if tr1[1].From != guard.Open || tr1[1].To != guard.HalfOpen || tr1[1].Reason != "cooldown-elapsed" {
		t.Fatalf("second transition %+v, want Open→HalfOpen(cooldown-elapsed)", tr1[1])
	}
	if tr1[2].From != guard.HalfOpen || tr1[2].To != guard.Closed || tr1[2].Reason != "probes-passed" {
		t.Fatalf("third transition %+v, want HalfOpen→Closed(probes-passed)", tr1[2])
	}
	// The cool-down denies exactly Cooldown decisions: half-open begins
	// Cooldown+1 decisions after the trip.
	if got := tr1[1].Decision - tr1[0].Decision; got != 7 {
		t.Fatalf("half-open %d decisions after trip, want 7 (cooldown 6 + first probe)", got)
	}
	if b1.Breaker().State() != guard.Closed {
		t.Fatalf("final state = %v, want Closed", b1.Breaker().State())
	}

	// Guard metrics must agree exactly across worker counts.
	s1, s4 := b1.Stats(), b4.Stats()
	for _, m := range []string{
		"bao_trainer_panics_total",
		"bao_retrain_rejected_total",
		"bao_breaker_trips_total",
		"bao_breaker_default_served_total",
		"bao_nonfinite_predictions_total",
		"bao_queries_total",
		"bao_retrains_total",
	} {
		if v1, v4 := s1.Counter(m), s4.Counter(m); v1 != v4 {
			t.Fatalf("%s differs across worker counts: %v vs %v", m, v1, v4)
		}
	}
	if v1, v4 := s1.Gauge("bao_breaker_state"), s4.Gauge("bao_breaker_state"); v1 != v4 {
		t.Fatalf("bao_breaker_state differs: %v vs %v", v1, v4)
	}

	// Script-shaped expectations: one panicked fit, one rejected NaN
	// candidate, one trip, six default-served cool-down decisions.
	if got := s1.Counter("bao_trainer_panics_total"); got != 1 {
		t.Fatalf("bao_trainer_panics_total = %v, want 1", got)
	}
	if got := s1.Counter("bao_retrain_rejected_total"); got != 1 {
		t.Fatalf("bao_retrain_rejected_total = %v, want 1", got)
	}
	if got := s1.Counter("bao_breaker_trips_total"); got != 1 {
		t.Fatalf("bao_breaker_trips_total = %v, want 1", got)
	}
	if got := s1.Counter("bao_breaker_default_served_total"); got != 6 {
		t.Fatalf("bao_breaker_default_served_total = %v, want 6 (the cool-down)", got)
	}
	if got := s1.Gauge("bao_breaker_state"); got != float64(guard.Closed) {
		t.Fatalf("bao_breaker_state gauge = %v, want closed", got)
	}
	// The incumbent from fit 1 survived both failed candidates.
	if !b1.Trained() || b1.TrainCount() < 1 {
		t.Fatal("incumbent model lost during the fault script")
	}
}

// TestBreakerOpenServesDefaultAndRecords: with the breaker open, Select
// serves the default arm without the model — but the observation is still
// admitted to the experience window, so learning continues through the
// outage (the window is how the system earns its way back).
func TestBreakerOpenServesDefaultAndRecords(t *testing.T) {
	e := buildIMDbEngine(t)
	cfg := guardTestConfig(1, nil)
	cfg.RetrainEvery = 1000
	o := cfg.Observer
	o.EnableTracing(4)
	b := New(e, cfg)

	b.Breaker().Trip("forced")
	before := b.ExperienceSize()
	sel, err := b.Select(obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if sel.ArmID != 0 || sel.UsedModel || sel.Preds != nil {
		t.Fatalf("open-breaker selection: arm=%d usedModel=%v preds=%v, want default arm without model",
			sel.ArmID, sel.UsedModel, sel.Preds)
	}
	if sel.Trees[0] == nil {
		t.Fatal("default plan not featurized — the experience would be untrainable")
	}
	b.ObserveValue(sel, 0.05)
	if got := b.ExperienceSize(); got != before+1 {
		t.Fatalf("experience window = %d, want %d (must record through the outage)", got, before+1)
	}
	if got := b.Stats().Counter("bao_breaker_default_served_total"); got != 1 {
		t.Fatalf("bao_breaker_default_served_total = %v, want 1", got)
	}
	traces := o.Traces()
	if len(traces) == 0 || traces[0].Breaker != "breaker-open" {
		t.Fatalf("trace breaker note missing: %+v", traces)
	}
}

// TestPlannerPanicDegradesToDefault: a planner panic in a non-default arm
// must not fail the query — it degrades to the default arm planned alone
// and trips the breaker once, whichever arm the fault names.
func TestPlannerPanicDegradesToDefault(t *testing.T) {
	for _, arm := range []int{1, 2} {
		e := buildIMDbEngine(t)
		b := New(e, guardTestConfig(4, &guard.Fault{PlanPanicArm: arm}))

		want, err := e.PlanSQL(obsTestSQL, b.Cfg.Arms[0].Hints)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := b.Select(obsTestSQL)
		if err != nil {
			t.Fatalf("arm %d: planner panic failed the query: %v", arm, err)
		}
		if sel.ArmID != 0 || sel.UsedModel {
			t.Fatalf("arm %d: arm=%d usedModel=%v, want degraded default", arm, sel.ArmID, sel.UsedModel)
		}
		if sel.Plans[0].Explain() != want.Explain() || sel.Trees[0] == nil {
			t.Fatalf("arm %d: degraded selection does not carry the default plan", arm)
		}
		if b.Breaker().State() != guard.Open {
			t.Fatalf("arm %d: breaker = %v after planner panic, want Open", arm, b.Breaker().State())
		}
		if got := b.Stats().Counter("bao_planner_panics_total"); got != 1 {
			t.Fatalf("arm %d: bao_planner_panics_total = %v, want 1", arm, got)
		}
		if got := b.Breaker().Trips(); got != 1 {
			t.Fatalf("arm %d: trips = %d, want 1", arm, got)
		}
	}
}

// panicStats is a StatsProvider whose every call panics: a planner that
// cannot even plan the default arm.
type panicStats struct{}

func (panicStats) TableStats(string) *stats.TableStats { panic("stats: provider is broken") }

// TestPlannerPanicOnDefaultArmFailsRequest: when planning panics for the
// default arm too there is nothing to degrade to — the request fails with
// an error (the process does not crash) and the breaker is open.
func TestPlannerPanicOnDefaultArmFailsRequest(t *testing.T) {
	e := buildIMDbEngine(t)
	b := New(e, guardTestConfig(4, nil))
	e.Opt.Stats = panicStats{}
	sel, err := b.Select(obsTestSQL)
	if err == nil || !errors.Is(err, errPlannerPanic) {
		t.Fatalf("sel=%v err=%v, want a planner-panic error", sel, err)
	}
	if b.Breaker().State() != guard.Open {
		t.Fatalf("breaker = %v after planner panic, want Open", b.Breaker().State())
	}
	// The open breaker plans arm 0 alone; that panics as well and must
	// also come back as an error.
	if _, err := b.Select(obsTestSQL); !errors.Is(err, errPlannerPanic) {
		t.Fatalf("breaker-open select: err=%v, want a planner-panic error", err)
	}
}

// cancelAfter is a context that reports cancellation from its n-th Err
// call on.
type cancelAfter struct {
	context.Context
	polls, at int
}

func (c *cancelAfter) Err() error {
	if c.polls++; c.polls >= c.at {
		return context.Canceled
	}
	return nil
}

// TestSelectCancelledMidEnumeration: a request abandoned while the join
// enumeration is running returns the context's error and records nothing.
func TestSelectCancelledMidEnumeration(t *testing.T) {
	e := buildIMDbEngine(t)
	b := New(e, guardTestConfig(4, nil))
	const sql = "SELECT COUNT(*) FROM title t, cast_info ci, movie_info mi WHERE t.id = ci.movie_id AND t.id = mi.movie_id AND t.kind_id = 3"
	free := &cancelAfter{Context: context.Background(), at: 1 << 30}
	if _, err := b.SelectCtx(free, sql); err != nil {
		t.Fatal(err)
	}
	if free.polls < 7 {
		t.Fatalf("a 3-relation select polled its context %d times, want at least once per relation subset (7)", free.polls)
	}
	ctx := &cancelAfter{Context: context.Background(), at: free.polls - 1}
	sel, err := b.SelectCtx(ctx, sql)
	if sel != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("sel=%v err=%v, want context.Canceled", sel, err)
	}
	if got := b.Stats().Counter("bao_planner_panics_total"); got != 0 || b.Breaker().State() != guard.Closed {
		t.Fatalf("cancellation counted as a planner fault: panics=%v breaker=%v", got, b.Breaker().State())
	}
}

// TestNonFiniteTargetsSkipped: experiences with NaN/Inf latency targets
// are admitted (and counted) but never trained on — one NaN target would
// zero the gradients and poison the whole fit.
func TestNonFiniteTargetsSkipped(t *testing.T) {
	e := buildIMDbEngine(t)
	cfg := FastConfig()
	cfg.ArmWarmup = 0
	cfg.Train.MaxEpochs = 3
	cfg.Observer = obs.NewObserver(obs.NewRegistry(), nil)
	b := New(e, cfg)

	plan, err := e.PlanSQL(obsTestSQL, planner.AllOn())
	if err != nil {
		t.Fatal(err)
	}
	tree := b.Feat.Vectorize(plan)
	var exps []Experience
	for i := 0; i < 20; i++ {
		exps = append(exps, Experience{Tree: tree, Secs: 0.01 * float64(i+1)})
	}
	exps = append(exps,
		Experience{Tree: tree, Secs: math.NaN()},
		Experience{Tree: tree, Secs: math.Inf(1)},
		Experience{Tree: tree, Secs: math.Inf(-1)},
	)
	b.RestoreExperiences(exps)
	if got := b.ExperienceSize(); got != 23 {
		t.Fatalf("window = %d, want 23 (non-finite experiences are admitted)", got)
	}
	if got := b.Stats().Counter("bao_nonfinite_targets_total"); got != 3 {
		t.Fatalf("bao_nonfinite_targets_total = %v, want 3", got)
	}
	b.Retrain()
	if !b.Trained() {
		t.Fatal("retrain with finite majority did not train")
	}
	if ev := b.LastTrain(); ev.Samples != 20 {
		t.Fatalf("trained on %d samples, want 20 (non-finite targets excluded)", ev.Samples)
	}

	// An all-non-finite window has nothing to train on: the retrain is a
	// no-op, not a poisoned model.
	b2 := New(buildIMDbEngine(t), cfg)
	bad := make([]Experience, 16)
	for i := range bad {
		bad[i] = Experience{Tree: tree, Secs: math.NaN()}
	}
	b2.RestoreExperiences(bad)
	b2.Retrain()
	if b2.Trained() {
		t.Fatal("retrained on an all-non-finite window")
	}
}

// TestDegeneratePredictionsTripBreaker: with validation off, a NaN model
// can hot-swap in — the serving-time backstop must then catch it on the
// very next selection: clamp the predictions, trip the breaker, and serve
// the default arm instead of feeding NaN to the argmin.
func TestDegeneratePredictionsTripBreaker(t *testing.T) {
	e := buildIMDbEngine(t)
	cfg := guardTestConfig(1, &guard.Fault{NaNOnFit: 1})
	cfg.Validate = guard.ValidateConfig{} // gate off: nothing stops the NaN swap
	cfg.RetrainEvery = 1000
	b := New(e, cfg)

	sel, err := b.Select(obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		b.ObserveValue(sel, 0.01)
	}
	if !b.RetrainAsyncFor(obs.Cause{}) {
		t.Fatal("unvalidated NaN candidate should have swapped in")
	}
	if !b.Trained() {
		t.Fatal("not trained after swap")
	}

	sel2, err := b.Select(obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if sel2.ArmID != 0 || sel2.UsedModel || sel2.Preds != nil {
		t.Fatalf("degenerate-model selection: arm=%d usedModel=%v preds=%v, want default arm", sel2.ArmID, sel2.UsedModel, sel2.Preds)
	}
	if b.Breaker().State() != guard.Open {
		t.Fatalf("breaker = %v after all-NaN predictions, want Open", b.Breaker().State())
	}
	if got := b.Stats().Counter("bao_nonfinite_predictions_total"); got < 1 {
		t.Fatalf("bao_nonfinite_predictions_total = %v, want >= 1", got)
	}
	tr := b.Breaker().Transitions()
	if len(tr) != 1 || tr[0].Reason != "degenerate-predictions" {
		t.Fatalf("transitions = %+v, want one degenerate-predictions trip", tr)
	}

	// The next decision is inside the cool-down: default served without
	// touching the degenerate model.
	sel3, err := b.Select(obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if sel3.ArmID != 0 || sel3.UsedModel {
		t.Fatalf("cool-down selection: arm=%d usedModel=%v, want default", sel3.ArmID, sel3.UsedModel)
	}
}

// trainedGuardBao runs obsTestSQL through the full loop until the model
// has trained (RetrainEvery is 16 in guardTestConfig).
func trainedGuardBao(t *testing.T, cfg Config) *Bao {
	t.Helper()
	b := New(buildIMDbEngine(t), cfg)
	for i := 0; i < 40; i++ {
		if _, _, err := b.Run(obsTestSQL); err != nil {
			t.Fatal(err)
		}
	}
	if !b.Trained() {
		t.Fatal("model never trained")
	}
	return b
}

// adviseMustDecline asserts the advisor's contract when Select served the
// default arm without predictions: an error naming the reason and the
// default plan, from both entry points — never a panic.
func adviseMustDecline(t *testing.T, b *Bao, reason string) {
	t.Helper()
	a, plan, err := b.Advise(obsTestSQL)
	if err == nil || a != nil {
		t.Fatalf("Advise = %+v, %v; want an error and no advice", a, err)
	}
	if !strings.Contains(err.Error(), reason) {
		t.Fatalf("Advise error %q does not name the reason %q", err, reason)
	}
	want, perr := b.Eng.PlanSQL(obsTestSQL, b.Cfg.Arms[0].Hints)
	if perr != nil {
		t.Fatal(perr)
	}
	if plan == nil || plan.Explain() != want.Explain() {
		t.Fatal("Advise did not return the default plan alongside the error")
	}
	if out, err := b.ExplainWithAdvice(obsTestSQL); err == nil || out != "" {
		t.Fatalf("ExplainWithAdvice = %q, %v; want an error", out, err)
	}
}

// TestAdviseWhileBreakerOpen: EXPLAIN during a breaker cool-down used to
// index the nil predictions of a default-arm selection and panic (killing
// baoshell -guard). It must decline with the breaker's reason — and read
// the trained flag under the lock, so it can run beside a background
// retrain (the race detector is the assertion for that half).
func TestAdviseWhileBreakerOpen(t *testing.T) {
	b := trainedGuardBao(t, guardTestConfig(1, nil))
	if _, err := b.ExplainWithAdvice(obsTestSQL); err != nil {
		t.Fatalf("advisor on a healthy trained model: %v", err)
	}
	b.Breaker().Trip("forced")
	adviseMustDecline(t, b, "breaker-open")

	done := make(chan struct{})
	go func() {
		defer close(done)
		b.RetrainAsyncFor(obs.Cause{})
	}()
	for i := 0; i < 5; i++ {
		if _, _, err := b.Advise(obsTestSQL); err == nil && b.Breaker().State() == guard.Open {
			t.Fatal("Advise succeeded while the breaker is open")
		}
	}
	<-done
}

// TestAdviseOnDegeneratePredictions: a swapped-in model whose every
// prediction is non-finite makes Select trip the breaker and drop the
// predictions mid-call; the advisor must decline, not index them.
func TestAdviseOnDegeneratePredictions(t *testing.T) {
	cfg := guardTestConfig(1, &guard.Fault{NaNOnFit: 1})
	cfg.Validate = guard.ValidateConfig{} // gate off: nothing stops the NaN swap
	cfg.RetrainEvery = 1000
	cfg.Observer.EnableTracing(4) // the trace carries the exact note
	b := New(buildIMDbEngine(t), cfg)
	sel, err := b.Select(obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		b.ObserveValue(sel, 0.01)
	}
	if !b.RetrainAsyncFor(obs.Cause{}) || !b.Trained() {
		t.Fatal("unvalidated NaN candidate should have swapped in")
	}
	adviseMustDecline(t, b, "degenerate-predictions")
	// From here the breaker is cooling down: same contract, other reason.
	adviseMustDecline(t, b, "breaker-open")
}

// TestAdviseAfterPlannerPanic: a hint set whose planning panics degrades
// every selection to the default arm (first as planner-panic, then as
// breaker-open while it cools down); the model still trains from those
// default-arm experiences, and the advisor must decline either way.
func TestAdviseAfterPlannerPanic(t *testing.T) {
	b := trainedGuardBao(t, guardTestConfig(1, &guard.Fault{PlanPanicArm: 1}))
	for i := 0; i < 10; i++ { // spans cool-down, half-open probe, and re-trip
		a, plan, err := b.Advise(obsTestSQL)
		if err == nil || a != nil || plan == nil {
			t.Fatalf("decision %d: Advise = %+v, %v; want an error with the default plan", i, a, err)
		}
		if !strings.Contains(err.Error(), "planner-panic") && !strings.Contains(err.Error(), "breaker-open") {
			t.Fatalf("decision %d: error %q names neither degradation", i, err)
		}
	}
}

// TestSingleNaNPredictionClamped: one degenerate prediction among healthy
// ones must lose the argmin (clamped to +max), not poison it — and the
// breaker stays closed because the model still has finite signal. Arms
// that share a plan share its prediction, so the unit that is clamped and
// loses is the NaN plan's whole dedup group.
func TestSingleNaNPredictionClamped(t *testing.T) {
	e := buildIMDbEngine(t)
	cfg := guardTestConfig(1, nil)
	cfg.Validate.Enabled = false // the subject is Select's clamp: let the NaN-emitting model in
	cfg.RetrainEvery = 1000
	cfg.Arms = DefaultArms() // enough hint sets that plans are shared and differ
	const nanGroup = 1
	nan := &nanArmModel{badIdx: nanGroup}
	cfg.NewModel = func(int64) model.Model { return nan }
	b := New(e, cfg)

	sel, err := b.Select(obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		b.ObserveValue(sel, 0.01)
	}
	b.Retrain()
	sel2, err := b.Select(obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !sel2.UsedModel {
		t.Fatal("model not used")
	}
	armGroup, groups := DedupPlans(sel2.Plans)
	if groups <= nanGroup {
		t.Fatalf("%d distinct plans: no group %d for the model to poison", groups, nanGroup)
	}
	clamped := 0
	for i, g := range armGroup {
		switch {
		case g == nanGroup && sel2.Preds[i] != math.MaxFloat64:
			t.Fatalf("arm %d shares the NaN plan but predicts %v, want clamped to MaxFloat64", i, sel2.Preds[i])
		case g != nanGroup && sel2.Preds[i] != 0.01*float64(g+1):
			t.Fatalf("arm %d (group %d) predicts %v, want the healthy %v", i, g, sel2.Preds[i], 0.01*float64(g+1))
		case g == nanGroup:
			clamped++
		}
	}
	if clamped < 2 {
		t.Fatalf("%d arms map to the NaN group, want a shared plan (≥ 2)", clamped)
	}
	if armGroup[sel2.ArmID] == nanGroup {
		t.Fatalf("argmin picked arm %d, which shares the NaN-predicted plan", sel2.ArmID)
	}
	if b.Breaker().State() != guard.Closed {
		t.Fatalf("breaker = %v, want Closed (finite predictions remain)", b.Breaker().State())
	}
	// One non-finite prediction, however many arms it fans out to.
	if got := b.Stats().Counter("bao_nonfinite_predictions_total"); got != 1 {
		t.Fatalf("bao_nonfinite_predictions_total = %v, want 1", got)
	}
}

// nanArmModel predicts NaN for exactly one tree index and a finite value
// elsewhere.
type nanArmModel struct{ badIdx int }

func (m *nanArmModel) Name() string { return "nan-arm" }

func (m *nanArmModel) Fit(trees []*nn.Tree, secs []float64) int { return 1 }

func (m *nanArmModel) Predict(trees []*nn.Tree) []float64 {
	out := make([]float64, len(trees))
	for i := range out {
		if i == m.badIdx {
			out[i] = math.NaN()
		} else {
			out[i] = 0.01 * float64(i+1)
		}
	}
	return out
}

// TestValidationRejectsNaNCandidateKeepsIncumbent: with the gate on, a
// NaN candidate is rejected before the swap — the incumbent (or the
// untrained cold-start state) keeps serving and the rejection is counted.
func TestValidationRejectsNaNCandidateKeepsIncumbent(t *testing.T) {
	e := buildIMDbEngine(t)
	cfg := guardTestConfig(1, &guard.Fault{NaNOnFit: 1})
	cfg.RetrainEvery = 1000
	b := New(e, cfg)

	sel, err := b.Select(obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		b.ObserveValue(sel, 0.01)
	}
	if b.RetrainAsyncFor(obs.Cause{}) {
		t.Fatal("NaN candidate passed the validation gate")
	}
	if b.Trained() || b.TrainCount() != 0 {
		t.Fatalf("rejected candidate mutated state: trained=%v trainCount=%d", b.Trained(), b.TrainCount())
	}
	if got := b.Stats().Counter("bao_retrain_rejected_total"); got != 1 {
		t.Fatalf("bao_retrain_rejected_total = %v, want 1", got)
	}
	// The next (unfaulted) attempt trains normally.
	if !b.RetrainAsyncFor(obs.Cause{}) {
		t.Fatal("healthy candidate rejected")
	}
	if !b.Trained() || b.TrainCount() != 1 {
		t.Fatalf("post-rejection retrain: trained=%v trainCount=%d", b.Trained(), b.TrainCount())
	}
}

// badWeightsModel is a TCNN whose weight scan fails: what a fit that left
// a NaN below the output layer looks like from outside — every prediction
// finite (the rectifiers map NaN to zero), a parameter that is not.
type badWeightsModel struct{ *model.TCNNModel }

func (badWeightsModel) WeightsFinite() error {
	return errors.New("model: non-finite value in parameter conv1.root")
}

// TestValidationRejectsNonFiniteWeightsKeepsIncumbent: the fit → validate
// → swap path consults the candidate's weight scan, so a model Load would
// refuse at the next restart is never swapped in (nor checkpointed); the
// incumbent keeps serving and the rejection is counted and journaled.
func TestValidationRejectsNonFiniteWeightsKeepsIncumbent(t *testing.T) {
	e := buildIMDbEngine(t)
	cfg := guardTestConfig(1, nil)
	cfg.RetrainEvery = 1000
	fits := 0
	cfg.NewModel = func(int64) model.Model {
		m := model.NewTCNN(FeatureDim, cfg.Train, cfg.Seed)
		fits++
		if fits == 3 { // New builds one, the first retrain the second
			return badWeightsModel{m}
		}
		return m
	}
	cfg.Observer.EnableEvents(16)
	b := New(e, cfg)

	sel, err := b.Select(obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		b.ObserveValue(sel, 0.01)
	}
	if !b.RetrainAsyncFor(obs.Cause{}) {
		t.Fatal("healthy candidate rejected")
	}
	incumbent := b.Model
	if b.RetrainAsyncFor(obs.Cause{}) {
		t.Fatal("candidate with non-finite weights passed the validation gate")
	}
	if b.Model != incumbent || b.TrainCount() != 1 {
		t.Fatalf("rejected candidate replaced the incumbent: trainCount=%d", b.TrainCount())
	}
	if got := b.Stats().Counter("bao_retrain_rejected_total"); got != 1 {
		t.Fatalf("bao_retrain_rejected_total = %v, want 1", got)
	}
	ev := cfg.Observer.Events()[0]
	if ev.Kind != obs.EventSwapRejected || !strings.Contains(ev.Detail, "non-finite weights") {
		t.Fatalf("newest event = %+v, want a swap rejection for non-finite weights", ev)
	}
	if sel, err := b.Select(obsTestSQL); err != nil || !sel.UsedModel {
		t.Fatalf("incumbent stopped serving after the rejection: %+v, %v", sel, err)
	}
}
