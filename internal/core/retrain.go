package core

import (
	"fmt"
	"time"

	"bao/internal/cloud"
	"bao/internal/guard"
	"bao/internal/model"
	"bao/internal/nn"
	"bao/internal/obs"
)

// trainingSample is one Thompson sampling draw's input, assembled under
// b.mu and fitted off it.
type trainingSample struct {
	trees    []*nn.Tree
	secs     []float64
	valTrees []*nn.Tree // held-out validation slice (gate enabled only)
	valSecs  []float64
	crit     map[string][]Experience // critical registry, for enforcement
}

// trainingSampleLocked assembles one Thompson sampling draw's training
// set and resets the retrain schedule: a bootstrap (sample with
// replacement) of the experience window, the most recent experiences
// verbatim (so a fresh catastrophic observation can never be dropped by
// the resampling), and every flagged critical experience. It also
// snapshots the critical registry for the enforcement loop.
//
// Experiences with non-finite latency targets are excluded — one NaN
// target would zero the network's gradients and poison the whole fit —
// and, when the validation gate is enabled, every guard.HoldoutStride-th
// eligible experience is routed into the held-out validation slice
// instead of the training pool (the newest recentKeep and censored
// observations stay trainable: the former must never be dropped, the
// latter are lower bounds that would bias a validation error).
//
// When the guard is off and every target is finite, the index pool is
// the identity and the bootstrap consumes the seeded RNG exactly as it
// always has, so existing deterministic runs are unchanged. Returns no
// trees when there is nothing to train on. Callers hold b.mu.
func (b *Bao) trainingSampleLocked() (s trainingSample) {
	b.sinceTrain = 0
	if len(b.exp) == 0 && len(b.critical) == 0 {
		return s
	}
	pool := make([]int, 0, len(b.exp))
	for i, e := range b.exp {
		if !isFinite(e.Secs) {
			continue
		}
		pool = append(pool, i)
	}
	if b.Cfg.Validate.Enabled {
		holdout := make(map[int]bool)
		tail := max(len(b.exp)-recentKeep, 0)
		nth := 0
		for _, i := range pool {
			if i >= tail || b.exp[i].Censored {
				continue
			}
			nth++
			if nth%guard.HoldoutStride == 0 && len(holdout) < guard.HoldoutCap {
				holdout[i] = true
				s.valTrees = append(s.valTrees, b.exp[i].Tree)
				s.valSecs = append(s.valSecs, b.exp[i].Secs)
			}
		}
		if len(holdout) > 0 {
			kept := pool[:0]
			for _, i := range pool {
				if !holdout[i] {
					kept = append(kept, i)
				}
			}
			pool = kept
		}
	}
	s.trees = make([]*nn.Tree, 0, len(pool))
	s.secs = make([]float64, 0, len(pool))
	// Bootstrap sample (the Thompson draw) ...
	bootN := max(len(pool)-recentKeep, 0)
	for i := 0; i < bootN; i++ {
		e := b.exp[pool[b.rng.Intn(len(pool))]]
		s.trees = append(s.trees, e.Tree)
		s.secs = append(s.secs, e.Secs)
	}
	// ... plus the newest experiences verbatim.
	for _, i := range pool[max(len(pool)-recentKeep, 0):] {
		s.trees = append(s.trees, b.exp[i].Tree)
		s.secs = append(s.secs, b.exp[i].Secs)
	}
	for _, key := range sortedKeys(b.critical) {
		for _, e := range b.critical[key] {
			if !isFinite(e.Secs) {
				continue
			}
			s.trees = append(s.trees, e.Tree)
			s.secs = append(s.secs, e.Secs)
		}
	}
	s.crit = b.criticalSetsLocked()
	return s
}

// Retrain performs one Thompson sampling draw: fit a fresh model on a
// bootstrap of the experience window, always including the flagged
// critical experiences, fine-tune until every critical query's fastest arm
// is ranked first (§4 "triggered exploration"), and swap it in. It returns
// when the swap (or the rejection) has happened; selections running
// meanwhile keep predicting with the previous model.
func (b *Bao) Retrain() { b.retrain(obs.Cause{}, true) }

// RetrainAsync is the training process's entry point (the serving layer's
// trainer goroutine calls it beside the query path): the paper's
// Bao-server loop, where steering stays on the hot path while learning
// stays off it. Returns false when nothing was trained or the candidate
// was rejected.
func (b *Bao) RetrainAsync() bool { return b.RetrainAsyncFor(obs.Cause{}) }

// RetrainAsyncFor is RetrainAsync carrying the identity of the decision
// that triggered it: the published "retrain" trace (sample → fit →
// validate → swap spans) and the swap-accepted/rejected events all link
// back to cause, so a hot-swap under load is resolvable from the query
// whose observation scheduled it. A zero Cause (manual retrain, tests)
// produces an unlinked trace.
func (b *Bao) RetrainAsyncFor(cause obs.Cause) bool { return b.retrain(cause, false) }

// retrain is the one fit-and-swap body: the training sample is drawn
// under a brief lock, a fresh model is fitted with no lock held, and the
// fitted model is published under another brief lock — no published model
// is ever written again.
//
// The guard wraps the swap: a panic inside the fit is recovered into a
// breaker model-failure signal (the incumbent keeps serving), and when
// the validation gate is enabled the candidate must pass it — non-finite
// weights, non-finite predictions or a validation-error regression past
// the threshold reject the candidate, count bao_retrain_rejected_total,
// and keep the incumbent.
func (b *Bao) retrain(cause obs.Cause, inline bool) bool {
	o := b.observer
	tr := o.StartLinkedTrace("retrain", cause)
	defer o.FinishTrace(tr)
	emit := func(kind, detail string, secs float64) {
		o.Emit(obs.Event{Kind: kind, Detail: detail, TraceID: cause.TraceID, RequestID: cause.RequestID, Secs: secs})
	}
	sampleStart := time.Now()
	b.mu.Lock()
	s := b.trainingSampleLocked()
	if len(s.trees) == 0 {
		b.mu.Unlock()
		tr.AddSpan("sample", sampleStart, time.Since(sampleStart), "no trainable experiences")
		return false
	}
	b.fitAttempts++
	attempt := b.fitAttempts
	// Every draw starts from a fresh initialization. One body, two seed
	// values, each exactly what its configuration drew before there was
	// one body, so no pinned run moves (ROADMAP item 2 merges them, with
	// its one re-baseline): an inline draw continues the sequence a single
	// model refitted in place stepped through, one per Fit call; the
	// trainer's draws — and inline ones under a guard, which always fitted
	// detached — are offset by the retrain ordinal.
	seed := b.Cfg.Seed + int64(b.state.Load().trainCount+1)*997
	if c := &b.Cfg; inline && !c.Validate.Enabled && !c.Breaker.Enabled && c.Fault == nil {
		seed = c.Seed + int64(b.fits)
	}
	b.mu.Unlock()
	tr.AddSpan("sample", sampleStart, time.Since(sampleStart),
		fmt.Sprintf("train=%d holdout=%d", len(s.trees), len(s.valTrees)))
	fitStart := time.Now()
	fresh, fit, err := b.fitDetached(attempt, seed, s)
	tr.AddSpan("fit", fitStart, time.Since(fitStart), fmt.Sprintf("samples=%d epochs=%d", len(s.trees), fit.epochs))
	if err != nil {
		o.TrainerPanics.Inc()
		b.breaker.ModelFailure("trainer-panic")
		emit(obs.EventTrainerPanic, err.Error(), 0)
		return false
	}
	validateStart := time.Now()
	verdict := b.validateCandidate(fresh, s)
	tr.AddSpan("validate", validateStart, time.Since(validateStart), verdict.Reason)
	swapStart := time.Now()
	b.mu.Lock()
	b.fits += fit.calls
	if verdict.OK {
		b.finishRetrainLocked(fresh, len(s.trees), fit)
	}
	b.mu.Unlock()
	if !verdict.OK {
		o.RetrainRejected.Inc()
		b.breaker.ModelFailure("candidate-rejected: " + verdict.Reason)
		emit(obs.EventSwapRejected, verdict.Reason, 0)
		return false
	}
	tr.AddSpan("swap", swapStart, time.Since(swapStart), "")
	b.breaker.ModelAccepted()
	emit(obs.EventSwapAccepted, fmt.Sprintf("samples=%d epochs=%d", len(s.trees), fit.epochs), fit.wall)
	return true
}

// fitResult is what one detached fit cost: epochs and wall time across the
// first fit and the enforcement refits, and how many Fit calls that was.
type fitResult struct {
	epochs, calls int
	wall          float64
}

// fitDetached fits a fresh candidate model off-lock, converting a panic
// in the fit — real, or injected via Cfg.Fault — into an error: a
// crashing trainer must degrade to "no new model this round", never take
// the serving process down with it.
func (b *Bao) fitDetached(attempt int, seed int64, s trainingSample) (m model.Model, fit fitResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, fit = nil, fitResult{}
			err = fmt.Errorf("core: retrain attempt %d panicked: %v", attempt, r)
		}
	}()
	f := b.Cfg.Fault
	if f != nil && f.SlowFit > 0 {
		time.Sleep(f.SlowFit)
	}
	if f != nil && f.PanicOnFit == attempt {
		panic("guard: injected fit failure")
	}
	m = b.newDetachedModel(seed)
	start := time.Now()
	fit.epochs = m.Fit(s.trees, s.secs)
	epochs, refits := enforceCriticalOn(m, s.trees, s.secs, s.crit)
	fit.epochs += epochs
	fit.calls = 1 + refits
	fit.wall = time.Since(start).Seconds()
	if f != nil && f.NaNOnFit == attempt {
		m = guard.NaNModel{Model: m}
	}
	return m, fit, nil
}

// validateCandidate judges a fitted candidate before the swap. With the
// gate disabled every candidate passes; enabled, the candidate is scored
// on the held-out slice against the incumbent — or, when no holdout
// accumulated yet, probed on a handful of training trees for prediction
// finiteness alone.
func (b *Bao) validateCandidate(cand model.Model, s trainingSample) guard.Verdict {
	if !b.Cfg.Validate.Enabled {
		return guard.Verdict{OK: true, Reason: "validation-disabled"}
	}
	trees, secs := s.valTrees, s.valSecs
	var incumbent guard.Predictor
	if len(trees) == 0 {
		trees, secs = s.trees[:min(len(s.trees), 32)], nil
	} else if st := b.state.Load(); st.trained {
		incumbent = st.model
	}
	return guard.ValidateCandidate(cand, incumbent, trees, secs)
}

// finishRetrainLocked publishes an accepted fit and its bookkeeping.
// Callers hold b.mu.
func (b *Bao) finishRetrainLocked(m model.Model, samples int, fit fitResult) {
	b.publishLocked(m, true, b.state.Load().trainCount+1)
	b.TrainEvents = append(b.TrainEvents, TrainEvent{
		AtQuery:       b.queriesSeen,
		Samples:       samples,
		Epochs:        fit.epochs,
		WallSeconds:   fit.wall,
		SimGPUSeconds: cloud.GPUTrainSeconds(samples, max(fit.epochs, 1)),
	})
	o := b.observer
	o.HotSwaps.Inc()
	o.RetrainSeconds.Add(fit.wall)
	o.TrainEpochs.Add(float64(fit.epochs))
	o.TrainSamples.Set(float64(samples))
	if lf, ok := m.(interface{ LastFit() nn.TrainResult }); ok {
		o.TrainLoss.Set(lf.LastFit().FinalLoss)
	}
}

// newDetachedModel builds an unpublished value model of the configured
// kind, seeded for one draw.
func (b *Bao) newDetachedModel(seed int64) model.Model {
	var m model.Model
	if b.Cfg.NewModel != nil {
		m = b.Cfg.NewModel(seed)
	} else {
		m = model.NewTCNN(FeatureDim, b.Cfg.Train, seed)
	}
	if w, ok := m.(interface{ SetWorkers(int) }); ok {
		w.SetWorkers(b.Cfg.Workers)
	}
	return m
}
