package core

// Tests for the learning-loop observability feed: regret ledger entries
// from the observe paths, calibration telemetry, lifecycle events, and
// the linked retrain trace.

import (
	"encoding/json"
	"math"
	"testing"

	"bao/internal/model"
	"bao/internal/obs"
)

// loopObsBao builds a Bao over the tiny IMDb engine with a private
// instrumented observer and a constant-prediction stub model.
func loopObsBao(t *testing.T, pred float64) (*Bao, *obs.Observer) {
	t.Helper()
	e := buildIMDbEngine(t)
	o := obs.NewObserver(obs.NewRegistry(), nil)
	o.EnableTracing(16)
	o.EnableEvents(64)
	cfg := FastConfig()
	cfg.Arms = TopArms(3)
	cfg.RetrainEvery = 1000 // retrains only when the test asks
	cfg.ArmWarmup = 0
	cfg.NewModel = func(int64) model.Model { return &stubModel{pred: pred} }
	cfg.Observer = o
	return New(e, cfg), o
}

func TestRegretWithoutBaselinesIsZero(t *testing.T) {
	// Untrained, warm-up off: the default arm serves with no predictions
	// and no measurements of the others — the decision counts, the regret
	// is definitionally zero.
	b, o := loopObsBao(t, 0.001)
	sel, err := b.Select(obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if sel.UsedModel {
		t.Fatal("untrained selection claimed to use the model")
	}
	b.ObserveValue(sel, 2.5)
	s := o.RegretSnapshot()
	if s.Decisions != 1 || s.CumVsDefaultSecs != 0 || s.CumVsBestSecs != 0 {
		t.Fatalf("snapshot = %+v, want 1 decision with zero regret", s)
	}
}

func TestCalibrationTelemetryAndCensoredEvents(t *testing.T) {
	b, o := loopObsBao(t, 0.01)
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
		t.Fatal("model not used after retrain")
	}
	b.ObserveValue(sel2, 0.02) // ratio 2 against the 0.01 prediction

	arm := b.Cfg.Arms[sel2.ArmID].Name
	if got := o.Calibration.With(arm).Count(); got != 1 {
		t.Fatalf("by-arm calibration count = %d, want 1", got)
	}
	// The warm-up phase rides on the trace and the regret entry.
	if tr, e := o.Traces()[0], o.RegretSnapshot().Window[0]; tr.WarmUp || e.WarmUp {
		t.Fatalf("steady-state decision booked as warm-up: trace %v, regret entry %v", tr.WarmUp, e.WarmUp)
	}
	if drift := o.CalibrationDrift(); drift <= 0 {
		t.Fatalf("drift = %v, want >0 (observed 2x the prediction)", drift)
	}

	// A deadline-censored observation must land in the ledger flagged
	// Censored and emit a censored event carrying the arm.
	sel3, err := b.Select(obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	b.ObserveTimeout(sel3, 0.5)
	s := o.RegretSnapshot()
	if s.Window[0].Censored != true || s.Window[0].ObservedSecs != 0.5 {
		t.Fatalf("censored entry = %+v", s.Window[0])
	}
	// The early-retrain the gross misprediction schedules may journal
	// after the censored event, so search rather than assume newest.
	events := o.Events()
	var censored *obs.Event
	for i := range events {
		if events[i].Kind == obs.EventCensored {
			censored = &events[i]
			break
		}
	}
	if censored == nil || censored.Secs != 0.5 {
		t.Fatalf("events = %+v, want a censored event at 0.5s", events)
	}
	if censored.Arm == "" {
		t.Fatal("censored event missing arm")
	}

	// Abandon emits its event and records nothing else.
	sel4, err := b.Select(obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	before := o.RegretSnapshot().Decisions
	b.Abandon(sel4.Ticket(), "client disconnected")
	if got := o.Events()[0]; got.Kind != obs.EventAbandoned || got.Detail != "client disconnected" {
		t.Fatalf("abandon event = %+v", got)
	}
	if o.RegretSnapshot().Decisions != before {
		t.Fatal("abandon fed the regret ledger")
	}
}

func TestRetrainTraceLinkage(t *testing.T) {
	b, o := loopObsBao(t, 0.01)
	sel, err := b.Select(obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		b.ObserveValue(sel, 0.01)
	}
	cause := obs.Cause{TraceID: sel.Trace.ID, RequestID: "req-link"}
	if !b.RetrainAsyncFor(cause) {
		t.Fatal("retrain did not swap")
	}
	// The newest trace is the retrain, linked back to the triggering query.
	traces := o.Traces()
	rt := traces[0]
	if rt.Kind != "retrain" || rt.CauseID != sel.Trace.ID || rt.RequestID != "req-link" {
		t.Fatalf("retrain trace = %+v", rt)
	}
	want := map[string]bool{"sample": false, "fit": false, "validate": false, "swap": false}
	for _, sp := range rt.Spans {
		if _, ok := want[sp.Name]; ok {
			want[sp.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("retrain trace missing span %q: %+v", name, rt.Spans)
		}
	}
	// And the swap-accepted event carries the same linkage.
	events := o.Events()
	if len(events) == 0 || events[0].Kind != obs.EventSwapAccepted {
		t.Fatalf("events = %+v, want swap-accepted newest", events)
	}
	if events[0].TraceID != sel.Trace.ID || events[0].RequestID != "req-link" {
		t.Fatalf("swap event not linked: %+v", events[0])
	}
	if events[0].Secs <= 0 {
		t.Fatalf("swap event missing fit wall time: %+v", events[0])
	}
}

func TestRequestIDFlowsSelectToTrace(t *testing.T) {
	b, o := loopObsBao(t, 0.01)
	ctx := obs.WithRequestID(t.Context(), "req-ctx")
	sel, err := b.SelectCtx(ctx, obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Trace == nil || sel.Trace.RequestID != "req-ctx" {
		t.Fatalf("trace = %+v, want request id req-ctx", sel.Trace)
	}
	b.ObserveValue(sel, 0.01)
	if got := o.RegretSnapshot().Window[0].RequestID; got != "req-ctx" {
		t.Fatalf("ledger request id = %q, want req-ctx", got)
	}
	if ex := o.ExecSeconds.Exemplar(); ex == nil || ex.RequestID != "req-ctx" {
		t.Fatalf("exec exemplar = %+v", ex)
	}
}

// TestNonFiniteObservationBooksNothing: a NaN observation is admitted
// into the window (and counted by bao_nonfinite_targets_total) but feeds
// no running sum, so the learning-loop accounting reads finite again as
// soon as finite observations follow — long after the entry would have
// left the regret window, a booked NaN would still read NaN (NaN − NaN is
// NaN).
func TestNonFiniteObservationBooksNothing(t *testing.T) {
	b, o := loopObsBao(t, 0.01)
	sel, err := b.Select(obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		b.ObserveValue(sel, 0.01)
	}
	b.Retrain()
	sel, err = b.Select(obsTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.UsedModel {
		t.Fatal("model not used after retrain")
	}
	b.ObserveValue(sel, math.NaN())
	if got := b.Stats().Counter("bao_nonfinite_targets_total"); got != 1 {
		t.Fatalf("bao_nonfinite_targets_total = %v, want 1", got)
	}
	for i := 0; i < 600; i++ {
		b.ObserveValue(sel, 0.02)
	}
	s := o.RegretSnapshot()
	arm := b.Cfg.Arms[sel.ArmID].Name
	for name, v := range map[string]float64{
		"cum_vs_default_secs":           s.CumVsDefaultSecs,
		"window_vs_default_secs":        s.WindowVsDefaultSecs,
		"cum_vs_best_secs":              s.CumVsBestSecs,
		"bao_execution_seconds_sum":     o.ExecSeconds.Sum(),
		"bao_prediction_ratio_sum":      o.Calibration.With(arm).Sum(),
		"bao_arm_regret_seconds_total":  o.ArmRegret.With(arm).Value(),
		"bao_regret_vs_default_seconds": o.RegretVsDefault.Value(),
	} {
		if !isFinite(v) {
			t.Errorf("%s = %v after one NaN observation and 600 finite ones", name, v)
		}
	}
	if _, err := json.Marshal(o.Traces()); err != nil {
		t.Errorf("/debug/traces cannot encode: %v", err)
	}
}
