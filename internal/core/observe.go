package core

import (
	"math"
	"time"

	"bao/internal/executor"
	"bao/internal/nn"
	"bao/internal/obs"
	"bao/internal/planner"
)

// Ticket is everything observing a selection reads: the SQL text (the
// experience key), the chosen arm and its tree, three predictions and the
// decision trace. A caller that executes the chosen plan itself and
// reports its cost later keeps a Ticket, not the Selection, so the
// analyzed query, the per-arm plans and predictions and every tree but
// the chosen one can be collected in between — the serving layer parks
// one per /v1/select until its /v1/observe. Build one with
// (*Selection).Ticket; the zero Ticket observes nothing meaningful.
type Ticket struct {
	sql    string
	arm    int
	tree   *nn.Tree
	warmUp bool
	// predicted: the model chose the arm (Selection.UsedModel) and priced
	// every arm. Only then do the predictions mean anything: the chosen
	// arm's and the default arm's as Select left them (non-finite ones
	// clamped to MaxFloat64), and the smallest prediction that is finite
	// and below MaxFloat64, +Inf when none is.
	predicted               bool
	pred, defPred, bestPred float64
	trace                   *obs.Trace
}

// Ticket returns what observing sel reads. The tree and the trace are
// shared with sel, not copied.
func (sel *Selection) Ticket() Ticket {
	t := Ticket{sql: sel.SQL, arm: sel.ArmID, tree: sel.Trees[sel.ArmID], warmUp: sel.WarmUp, trace: sel.Trace}
	if !sel.UsedModel || len(sel.Preds) == 0 {
		return t
	}
	t.predicted = true
	t.pred, t.defPred, t.bestPred = sel.Preds[sel.ArmID], sel.Preds[0], math.Inf(1)
	for _, v := range sel.Preds {
		// MaxFloat64 is the clamp for degenerate predictions, not a price.
		if isFinite(v) && v < math.MaxFloat64 && v < t.bestPred {
			t.bestPred = v
		}
	}
	return t
}

// Observe records the outcome of executing the selected plan and retrains
// on schedule. A grossly mispredicted execution (observed an order of
// magnitude over the prediction, and slow in absolute terms) triggers an
// early retrain so a bad arm cannot be exploited for a whole window — the
// "learns from its mistakes" loop of §3.2 at mistake granularity.
func (b *Bao) Observe(sel *Selection, c executor.Counters) {
	o := b.observer
	o.ExecCPUOps.Add(float64(c.CPUOps))
	o.ExecPageHits.Add(float64(c.PageHits))
	o.ExecPageMisses.Add(float64(c.PageMisses))
	o.ExecRandReads.Add(float64(c.RandReads))
	o.ExecRowsOut.Add(float64(c.RowsOut))
	b.observe(sel.Ticket(), b.Cfg.Metric.Value(c), true, false)
}

// ObserveValue records an already-measured metric value for the selected
// plan. Experiment harnesses that evaluate arms externally (e.g. regret
// studies executing every arm cold) use it instead of Observe. Unlike
// Observe it never triggers the gross-misprediction early retrain: the
// caller's measurement may deliberately be off-policy (cold caches,
// foreign hardware profiles).
func (b *Bao) ObserveValue(sel *Selection, secs float64) {
	b.observe(sel.Ticket(), secs, false, false)
}

// ObserveLatency records an externally measured metric value for a
// selection's ticket with the full on-policy semantics of Observe,
// including the gross-misprediction early retrain. The serving layer's
// /v1/observe endpoint uses it: the client executed the selected plan for
// real and reports what it cost.
func (b *Bao) ObserveLatency(t Ticket, secs float64) {
	b.observe(t, secs, true, false)
}

// ObserveTimeout records a censored experience for a selection whose
// execution was cancelled at its deadline: the observation is clamped to
// budgetSecs — the deadline mapped onto the simulated clock
// (cloud.DeadlineBudgetSecs) — and flagged Censored, so the window learns
// "this plan takes at least the cap" instead of either dropping the signal
// or inventing a completion, the paper's §3 treatment of queries that blow
// past the time limit. The gross-misprediction check runs against the
// clamped value: a lower bound can only under-trigger the early retrain,
// never indict the model on fabricated evidence; when even the bound is 8×
// over the prediction the model retrains exactly as it would for a
// completed catastrophic plan.
func (b *Bao) ObserveTimeout(sel *Selection, budgetSecs float64) {
	b.observe(sel.Ticket(), budgetSecs, true, true)
}

// regretEntry books one decision's regret accounting: observed cost of
// the chosen arm against the default arm and the best arm. Baselines are
// the model's own predictions; without them, both baselines equal the
// observation and the entry contributes zero regret (it still counts the
// decision). Measured per-arm regret is the experiment harness's job
// (Figure 16), not the ledger's.
func (b *Bao) regretEntry(t Ticket, secs float64, censored bool) obs.RegretEntry {
	cause := t.trace.Cause()
	e := obs.RegretEntry{
		TraceID:      cause.TraceID,
		RequestID:    cause.RequestID,
		ArmID:        t.arm,
		Arm:          b.Cfg.Arms[t.arm].Name,
		ObservedSecs: secs,
		DefaultSecs:  secs,
		BestSecs:     secs,
		Censored:     censored,
		WarmUp:       t.warmUp,
	}
	if !t.predicted {
		return e
	}
	if t.arm != 0 {
		// Serving the default arm has zero regret vs default by
		// definition.
		if d := t.defPred; isFinite(d) && d < math.MaxFloat64 {
			e.DefaultSecs = d
		}
	}
	if isFinite(t.bestPred) {
		e.BestSecs = t.bestPred
	}
	return e
}

// Abandon discards a selection's ticket without recording anything: no
// experience, no explog append, no retrain signal. The serving layer calls
// it for requests whose client is gone (HTTP timeout or disconnect), for
// executions that failed outright, and for parked tickets evicted or still
// pending at shutdown — an abandoned request must leave the learning state
// exactly as it found it. The decision trace, if any, is finished and
// published flagged with the reason so dropped work stays visible in
// /debug/traces. Every call counts in bao_server_abandoned_total; the zero
// Ticket stands for a request that never had a selection, and counts
// without an event or a trace.
func (b *Bao) Abandon(t Ticket, reason string) {
	b.observer.ServeAbandoned.Inc()
	if t == (Ticket{}) {
		return
	}
	cause := t.trace.Cause()
	b.observer.Emit(obs.Event{
		Kind:      obs.EventAbandoned,
		Detail:    reason,
		TraceID:   cause.TraceID,
		RequestID: cause.RequestID,
		Arm:       b.Cfg.Arms[t.arm].Name,
	})
	if tr := t.trace; tr != nil {
		tr.AddSpan("abandon", time.Now(), 0, reason)
		b.observer.FinishTrace(tr)
	}
}

// Experiences returns a copy of the sliding window, oldest first
// (inspection and tests; the trees are shared, not deep-copied).
func (b *Bao) Experiences() []Experience {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return append([]Experience(nil), b.exp...)
}

// RestoreExperiences re-admits logged experiences into the window without
// scheduling retrains or invoking hooks — the serving layer's startup
// replay, so a restarted server resumes with its window intact.
func (b *Bao) RestoreExperiences(exps []Experience) {
	b.mu.Lock()
	for _, e := range exps {
		b.addExperienceLocked(e)
	}
	b.observer.Window.Set(float64(len(b.exp)))
	b.mu.Unlock()
}

// observe is the one place a decision is booked: record metrics and
// regret, admit the experience, and retrain on schedule (or early, when
// allowEarly and the prediction was grossly wrong). It finishes and
// publishes the ticket's trace. A censored observation is a lower bound —
// the execution was cancelled at its deadline and secs is the budget — so
// it is counted and journalled as such and yields no calibration sample. A
// non-finite observation is admitted (and counted, by
// bao_nonfinite_targets_total) but books no metric, regret or trace
// value: one NaN in a running sum stays there for good.
func (b *Bao) observe(t Ticket, secs float64, allowEarly, censored bool) {
	obsStart := time.Now()
	o := b.observer
	o.Queries.Inc()
	cause := t.trace.Cause()
	armName := b.Cfg.Arms[t.arm].Name
	pred := t.pred // zero unless predicted
	var ratio float64
	finite := isFinite(secs)
	if finite {
		o.ExecSeconds.ObserveEx(secs, cause.TraceID, cause.RequestID)
		if pred > 0 {
			// Regret accrues either way — a censored run lost at least
			// (budget - pred) — but observed/predicted on a lower bound
			// would systematically understate the calibration ratio.
			if regret := secs - pred; regret > 0 {
				o.ArmRegret.With(armName).Add(regret)
			}
			if !censored {
				ratio = secs / pred
				o.ObserveCalibration(armName, ratio)
			}
		}
		// The ledger books a censored observation at its budget: a lower
		// bound on the regret actually suffered, flagged so readers know
		// it understates.
		o.RecordRegret(b.regretEntry(t, secs, censored))
	}
	if censored {
		o.QueryTimeouts.Inc()
		o.Emit(obs.Event{
			Kind:      obs.EventCensored,
			Detail:    "execution cancelled at deadline",
			TraceID:   cause.TraceID,
			RequestID: cause.RequestID,
			Arm:       armName,
			Secs:      secs,
		})
	}
	if b.Eng != nil {
		st := b.Eng.Pool.Stats()
		o.PoolHits.Set(float64(st.Hits))
		o.PoolMisses.Set(float64(st.Misses))
		o.PoolHitRate.Set(st.HitRate())
	}
	t.trace.AddSpan("observe", obsStart, time.Since(obsStart), "")
	if allowEarly {
		b.reportBreakerOutcome(t, secs)
	}
	b.record(Experience{
		Tree:     t.tree,
		Secs:     secs,
		ArmID:    t.arm,
		Key:      t.sql,
		Censored: censored,
	}, pred, allowEarly, true, t.trace)
	if tr := t.trace; tr != nil {
		if finite {
			tr.ObservedSecs = secs
		}
		tr.Ratio = ratio
		if censored {
			tr.DeadlineSecs = secs
			tr.Censored = true
		}
		o.FinishTrace(tr)
	}
}

// reportBreakerOutcome scores one on-policy outcome for the circuit
// breaker: a model-steered selection of a non-default arm that ran far
// over what the model predicted for the *default* arm is a serving
// regression — the learned path made this query materially worse than
// just not steering, the exact failure mode the paper's §1 guarantee
// rules out. Both the ratio and an absolute floor must be exceeded, so
// noise on fast queries never trips anything. Default-served decisions
// (cold start, warm-up, breaker open) carry no learned-vs-default signal
// and report nothing; a censored observation reports its budget — a
// lower bound that can only under-report the regression.
func (b *Bao) reportBreakerOutcome(t Ticket, secs float64) {
	if b.breaker == nil || !t.predicted {
		return
	}
	c := b.Cfg.Breaker
	defPred := t.defPred
	failure := t.arm != 0 && isFinite(defPred) && defPred > 0 &&
		secs > c.RegretRatio*defPred && secs > grossMispredFloorSecs
	b.breaker.ReportOutcome(failure)
}

// AddExternalExperience records a plan executed outside Bao's control
// (off-policy learning: advisor mode, DBA-tuned plans). It shares
// observe's admission path, so an external execution the current model
// grossly mispredicts triggers the same early retrain a steered one would
// — a DBA-tuned plan going off a cliff is exactly as informative as one
// Bao chose itself.
func (b *Bao) AddExternalExperience(plan *planner.Node, c executor.Counters) {
	secs := b.Cfg.Metric.Value(c)
	tree := b.Feat.Vectorize(plan)
	var pred float64
	if st := b.state.Load(); st.trained {
		pred = st.model.Predict([]*nn.Tree{tree})[0]
	}
	b.observer.External.Inc()
	b.record(Experience{Tree: tree, Secs: secs}, pred, true, false, nil)
}

// record is the single experience-admission path behind every Observe*
// and AddExternalExperience: append to the window, maintain the window
// gauge, detect gross misprediction against pred (zero disables the
// check), and retrain on schedule — or early, when allowEarly and the
// model was grossly wrong. The retrain runs inline unless a retrain hook
// is registered, in which case the hook is signaled and training happens
// elsewhere (the serving layer's trainer).
func (b *Bao) record(e Experience, pred float64, allowEarly, fromQuery bool, tr *obs.Trace) {
	o := b.observer
	mispred := pred > 0 && e.Secs > grossMispredRatio*pred && e.Secs > grossMispredFloorSecs
	if mispred {
		o.GrossMispred.Inc()
	}
	b.mu.Lock()
	if fromQuery {
		b.queriesSeen++
	}
	b.sinceTrain++
	b.addExperienceLocked(e)
	o.Window.Set(float64(len(b.exp)))
	gross := allowEarly && mispred && b.sinceTrain >= 2
	should := (b.sinceTrain >= b.Cfg.RetrainEvery || gross) && len(b.exp) >= minRetrainWindow
	early := should && gross && b.sinceTrain < b.Cfg.RetrainEvery
	hook := b.retrainHook
	expHook := b.expHook
	b.mu.Unlock()
	if expHook != nil {
		hookStart := time.Now()
		expHook(e)
		tr.AddSpan("explog_append", hookStart, time.Since(hookStart), "")
	}
	if !should {
		return
	}
	if early {
		o.EarlyRetrains.Inc()
	}
	cause := tr.Cause()
	if hook != nil {
		hook(cause)
		return
	}
	retrainStart := time.Now()
	b.retrain(cause, true)
	tr.AddSpan("retrain", retrainStart, time.Since(retrainStart), "")
}

// addExperienceLocked appends to the sliding window, evicting the oldest
// past the cap, and refreshes the lock-free window length. Callers hold
// b.mu.
func (b *Bao) addExperienceLocked(e Experience) {
	if !isFinite(e.Secs) {
		// Admitted but never trained on (trainingSampleLocked skips it);
		// counted once here rather than once per retrain it sat out.
		b.observer.NonFiniteTargets.Inc()
	}
	b.exp = append(b.exp, e)
	if over := len(b.exp) - b.Cfg.WindowSize; over > 0 {
		b.exp = b.exp[over:]
	}
	b.windowLen.Store(int64(len(b.exp)))
}

// isFinite reports whether f is neither NaN nor infinite.
func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
