package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"bao/internal/guard"
	"bao/internal/model"
	"bao/internal/nn"
	"bao/internal/obs"
	"bao/internal/planner"
)

// Select plans the query under every arm, predicts each plan's
// performance, and picks the arm with the best prediction (greedy under
// the currently sampled model parameters — the Thompson sampling draw
// happens at retrain time via the bootstrap). Before the first retrain the
// default arm (the unhinted optimizer) is used, matching the paper's
// conservative cold start.
func (b *Bao) Select(sql string) (*Selection, error) {
	return b.SelectCtx(context.Background(), sql)
}

// selectReq is one selection in flight: what each stage of SelectCtx
// leaves for the next. Stages are plain methods called in order; none
// takes b.mu — everything a selection reads about the learned side comes
// from the one published banditState loaded in parse.
type selectReq struct {
	b           *Bao
	sel         *Selection
	tr          *obs.Trace
	st          *banditState
	start, mark time.Time // of the selection; end of the last timed stage
	breakerNote string

	// Plan cache: the epochs the lookup ran under, the entry found (nil on
	// a miss or with the cache off), whether its tensors were reused
	// verbatim, the verdict.
	schemaVer, statsEp uint64
	verdict            string
	hit                *planCacheEntry
	reused             bool

	// Dedup: arm → group, and per group a representative plan and one
	// tree. armGroup is nil when only arm 0 was planned.
	armGroup  []int
	uniq      []*planner.Node
	uniqTrees []*nn.Tree
	// A forward pass made by THIS call (not predictions served out of the
	// cache) — what the cache write-back publishes.
	freshPreds  []float64
	freshFinite int
}

// SelectCtx is Select under a context: cancellation is checked once the
// arms are planned and, inside planning, once per relation subset of the
// join enumeration, so an abandoned request stops planning within one
// subset rather than finishing the enumeration for nobody. A cancelled
// selection returns the context's error; nothing is recorded.
//
// The degradations live here too. While the breaker is open the learned
// path is not trusted (the breaker clocks every decision). A planner
// panic somewhere in the hint-set family trips the breaker and degrades
// to the default arm planned alone; a panic there too leaves nothing to
// degrade to and fails the query.
func (b *Bao) SelectCtx(ctx context.Context, sql string) (*Selection, error) {
	r := &selectReq{b: b, freshFinite: -1}
	if err := r.parse(ctx, sql); err != nil {
		return nil, err
	}
	var err error
	switch {
	case !b.breaker.Allow():
		err = r.planDefault(ctx, "breaker-open", "breaker open: default arm only")
	case r.hit != nil:
		r.reuseCached()
	default:
		err = r.planAll(ctx)
		if errors.Is(err, errPlannerPanic) && len(b.Cfg.Arms) > 1 {
			err = r.planDefault(ctx, "planner-panic", "planner panic: degraded to default arm")
		}
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("core: select cancelled: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	// UsedModel: the model picks the arm. False before the first fit, on
	// both default-arm degradations, and after degenerate predictions.
	if r.sel.UsedModel {
		r.predict()
	}
	r.storeCacheEntry()
	if r.sel.UsedModel {
		r.pickArm()
	}
	return r.finish(), nil
}

// stage closes one pipeline stage: it runs from the end of the previous
// one (r.mark) to to, so the stages tile the selection. Its span in the
// decision trace and its bao_select_stage_seconds sample are both taken
// from that one interval, and to becomes the next stage's start.
func (r *selectReq) stage(name string, to time.Time, note string) {
	d := to.Sub(r.mark)
	r.b.observer.SelectStage.With(name).Observe(d.Seconds())
	r.tr.AddSpan(name, r.mark, d, note)
	r.mark = to
}

// parse looks the SQL text up in the plan cache, analyzes it only when
// that misses, and loads the published bandit state: concurrent Selects
// share the current model, and a hot-swap arriving mid-query affects only
// subsequent selections. The epochs are snapshotted before the analysis,
// so a concurrent DDL/ANALYZE at worst tags a stored entry with a
// superseded epoch, which the next lookup drops. The lookup comes before
// the state load, so the state is never older than the entry hit: an
// entry that replaces it never carries an older prediction version.
func (r *selectReq) parse(ctx context.Context, sql string) error {
	b := r.b
	r.tr = b.observer.StartTrace(sql)
	r.tr.SetRequestID(obs.RequestIDFrom(ctx))
	r.start = time.Now() // after the trace's own anchor: span offsets are never negative
	r.mark = r.start
	var q *planner.Query
	if b.pcache != nil {
		r.schemaVer, r.statsEp = b.Eng.CatalogVersion(), b.Eng.StatsEpoch()
		if r.hit = b.pcache.get(sql, r.schemaVer, r.statsEp); r.hit != nil {
			q = r.hit.query
		}
	}
	if q == nil {
		var err error
		if q, err = b.Eng.AnalyzeSQL(sql); err != nil {
			return err
		}
	}
	r.stage("parse", time.Now(), "")
	r.sel = &Selection{SQL: sql, Query: q, Trace: r.tr, Trees: make([]*nn.Tree, len(b.Cfg.Arms))}
	r.st = b.state.Load()
	r.sel.WarmUp, r.sel.UsedModel = r.st.warm, r.st.trained
	return nil
}

// planDefault is the guard's degradation (breaker open, or a planner panic
// on a non-default arm): plan and featurize the default arm alone — cheap,
// and immune to a misbehaving hint-set planner — and skip prediction. The
// selection leaves with UsedModel false, so the observation path records
// the experience exactly as it would a cold-start default selection and
// the window keeps learning while the learned path sits out.
func (r *selectReq) planDefault(ctx context.Context, reason, note string) error {
	b, sel := r.b, r.sel
	if err := b.planArms(ctx, sel.Query, sel, 1); err != nil {
		return err
	}
	r.stage("plan_arms", time.Now(), note)
	sel.UniquePlans = 1
	sel.Trees[0] = b.Feat.Vectorize(sel.Plans[0])
	r.stage("featurize", time.Now(), "default arm only")
	sel.UsedModel = false
	r.breakerNote = reason
	return nil
}

// reuseCached serves a plan-cache hit: the analyzed query, planned arm set
// and dedup groups are reused outright; the tensors too unless buffer-pool
// residency drifted since they were featurized (the one plan-independent
// feature input).
func (r *selectReq) reuseCached() {
	b, sel, e := r.b, r.sel, r.hit
	b.observer.PlanCacheHits.Inc()
	r.verdict = "hit"
	sel.Plans, sel.Candidates = e.plans, e.cands
	r.armGroup, r.uniq, r.uniqTrees = e.armGroup, e.uniq, e.trees
	sel.UniquePlans = len(r.uniq)
	r.reused = true
	for g, p := range r.uniq {
		if !b.Feat.residencyMatches(p, e.trees[g]) {
			r.reused = false
			break
		}
	}
	if !r.reused {
		r.verdict = "hit-refeaturize"
		r.uniqTrees = make([]*nn.Tree, len(r.uniq))
		for g, p := range r.uniq {
			r.uniqTrees[g] = b.Feat.Vectorize(p)
		}
	}
	for i, g := range r.armGroup {
		sel.Trees[i] = r.uniqTrees[g]
	}
	r.stage("plancache", time.Now(), r.verdict)
}

// planAll plans every arm in one join enumeration (arms with the same plan
// come back sharing one tree), deduplicates and featurizes.
func (r *selectReq) planAll(ctx context.Context) error {
	b, sel, o := r.b, r.sel, r.b.observer
	if err := b.planArms(ctx, sel.Query, sel, len(b.Cfg.Arms)); err != nil {
		return err
	}
	planDone := time.Now()
	// Deduplicate before featurizing: hint sets routinely collapse to the
	// same physical plan, and identical plans featurize to identical trees
	// and predictions, so each distinct plan is vectorized and inferred
	// exactly once and the result fanned back out per arm.
	r.armGroup, sel.UniquePlans = dedupPlans(sel.Plans)
	deduped := len(sel.Plans) - sel.UniquePlans
	o.PlansDeduped.Add(float64(deduped))
	r.uniqTrees = make([]*nn.Tree, sel.UniquePlans)
	r.uniq = make([]*planner.Node, sel.UniquePlans)
	for i, g := range r.armGroup {
		if r.uniqTrees[g] == nil {
			r.uniqTrees[g] = b.Feat.Vectorize(sel.Plans[i])
			r.uniq[g] = sel.Plans[i]
		}
		sel.Trees[i] = r.uniqTrees[g]
	}
	featDone := time.Now()
	if b.pcache != nil {
		o.PlanCacheMisses.Inc()
		r.verdict = "miss"
	}
	var planNote, featNote string
	if r.tr != nil {
		planNote = fmt.Sprintf("arms=%d distinct=%d", len(b.Cfg.Arms), sel.UniquePlans)
		featNote = fmt.Sprintf("unique=%d deduped=%d", sel.UniquePlans, deduped)
	}
	r.stage("plan_arms", planDone, planNote)
	r.stage("featurize", featDone, featNote)
	return nil
}

// predict fills sel.Preds: from the cache on a full hit, otherwise by one
// forward pass over the distinct plans, fanned back out per arm.
func (r *selectReq) predict() {
	b, sel, o := r.b, r.sel, r.b.observer
	var uniqPreds []float64
	finite := 0
	if e := r.hit; r.reused && e.preds != nil && e.predsVer == r.st.version {
		// Full hit: these exact tensors were already predicted under this
		// model version — skip inference entirely. Versions are bumped
		// precisely when a model is published, so an equal version implies
		// the same model instance and the cached predictions are
		// byte-identical to a fresh pass.
		uniqPreds, finite = e.preds, e.finite
	} else {
		if r.verdict == "hit" {
			r.verdict = "hit-repredict" // tensors reused, model moved on
		}
		uniqPreds = b.predictTrees(r.st.model, r.uniqTrees)
		// Clamp non-finite predictions: one NaN must not poison the argmin
		// (every comparison against NaN is false), so a degenerate arm is
		// priced at +infinity-in-practice and loses to any finite one.
		for i, p := range uniqPreds {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				o.NonFinitePreds.Inc()
				uniqPreds[i] = math.MaxFloat64
			} else {
				finite++
			}
		}
		r.freshPreds, r.freshFinite = uniqPreds, finite
	}
	sel.Preds = make([]float64, len(r.armGroup))
	for i, g := range r.armGroup {
		sel.Preds[i] = uniqPreds[g]
	}
	r.stage("infer", time.Now(), "")
	if finite == 0 {
		// NO prediction is finite: the model has nothing usable to say —
		// trip the breaker and serve the default arm.
		b.breaker.Trip("degenerate-predictions")
		sel.Preds = nil
		r.breakerNote = "degenerate-predictions"
		sel.UsedModel = false
	}
}

// predictTrees runs a forward pass over trees, coalescing with concurrent
// selections through the micro-batcher when one is configured and the
// model is the batchable TCNN. The batch key is the model instance, so
// selections that snapshotted different models — e.g. across a hot-swap —
// never share a pass.
func (b *Bao) predictTrees(mdl model.Model, trees []*nn.Tree) []float64 {
	if b.batcher != nil {
		if tm, ok := mdl.(*model.TCNNModel); ok {
			return b.batcher.Predict(tm, tm.Predict, trees)
		}
	}
	return mdl.Predict(trees)
}

// storeCacheEntry publishes this selection's reusable work into the plan
// cache: a miss stores a new entry, and so does a hit that had to
// refeaturize or re-predict — the hit's plans and groups with its fresh
// tensors or predictions, in place of the entry it hit. Degenerate
// predictions (freshFinite == 0) are never cached — the entry keeps its
// plans but no predictions, so the next repeat re-predicts. No-op when the
// cache is off, the arm set wasn't fully planned (armGroup nil), or a full
// hit has nothing newer than what is cached.
func (r *selectReq) storeCacheEntry() {
	b := r.b
	if b.pcache == nil || r.armGroup == nil || r.reused && r.freshPreds == nil {
		return
	}
	e := &planCacheEntry{
		sql:        r.sel.SQL,
		query:      r.sel.Query,
		schemaVer:  r.schemaVer,
		statsEpoch: r.statsEp,
		plans:      r.sel.Plans,
		cands:      r.sel.Candidates,
		armGroup:   r.armGroup,
		uniq:       r.uniq,
		trees:      r.uniqTrees,
		predsVer:   r.st.version,
	}
	if r.freshFinite > 0 {
		e.preds, e.finite = r.freshPreds, r.freshFinite
	}
	b.pcache.put(e, r.hit)
}

// pickArm is the argmin over the selectable arms' predictions. Its stage,
// select_arm, also carries the plan-cache write-back that precedes it.
func (r *selectReq) pickArm() {
	sel, candidates := r.sel, r.st.arms
	// Cost-sanity guard: skip arms whose plan the traditional optimizer
	// prices two orders of magnitude above the cheapest arm. Bao
	// second-guesses the cost model's *choices*, not its arithmetic —
	// no mis-estimate plausibly hides a 10,000× cost ratio, so such
	// plans are pure exploration downside. The cheapest arm passes unless
	// its cost is negative or NaN, and then no arm does: the filter is off.
	minCost := sel.Plans[candidates[0]].EstCost
	for _, i := range candidates {
		if sel.Plans[i].EstCost < minCost {
			minCost = sel.Plans[i].EstCost
		}
	}
	limit := minCost * 100
	filter := minCost <= limit
	// Exact ties are the common case once dedup runs: every arm in a
	// dedup group carries the same prediction. Break them with the
	// traditional optimizer's cost estimate — the "leverage the wisdom
	// built into existing optimizers" principle: the model decides when
	// it has signal, the cost model when it has none. The band is exact
	// equality on purpose: any wider and the cost model would override
	// the learned signal on the trap queries Bao exists to fix. Both
	// comparisons are strict, so on a full (pred, cost) tie the lowest
	// arm index wins and the choice is stable run to run.
	best := -1
	for _, i := range candidates {
		if filter && !(sel.Plans[i].EstCost <= limit) {
			continue
		}
		if best < 0 || sel.Preds[i] < sel.Preds[best] ||
			(sel.Preds[i] == sel.Preds[best] && sel.Plans[i].EstCost < sel.Plans[best].EstCost) {
			best = i
		}
	}
	sel.ArmID = best
	r.stage("select_arm", time.Now(), "")
}

// finish stamps the decision — arm counter, degradation counter,
// whole-Select latency and the trace's summary fields — on every exit that
// serves a plan.
func (r *selectReq) finish() *Selection {
	b, sel, o := r.b, r.sel, r.b.observer
	arm := b.Cfg.Arms[sel.ArmID].Name
	o.SelectSeconds.Observe(time.Since(r.start).Seconds())
	o.ArmSelected.With(arm).Inc()
	if r.breakerNote != "" {
		o.BreakerDefault.Inc()
	}
	if tr := r.tr; tr != nil {
		tr.ArmID = sel.ArmID
		tr.ArmName = arm
		tr.UsedModel = sel.UsedModel
		tr.WarmUp = sel.WarmUp
		tr.WindowSize = int(b.windowLen.Load())
		tr.UniquePlans = sel.UniquePlans
		tr.Breaker = r.breakerNote
		tr.Cache = r.verdict
		if sel.Preds != nil {
			tr.PredictedSecs = sel.Preds[sel.ArmID]
		}
	}
	return sel
}

// errPlannerPanic marks a planning error that was a recovered panic: the
// selection degrades to the default arm planned alone instead of failing.
var errPlannerPanic = errors.New("planner panicked")

// planArms plans the first n arms of the query in one join enumeration
// (planner.PlanArms) and stores each arm's plan and the enumeration's
// candidate count — which does not depend on the hint set — in fresh
// arm-wide sel.Plans and sel.Candidates (a hit shares the cached ones). A
// planner panic — real, or injected via Cfg.Fault.PlanPanicArm when that
// arm is among the n — becomes a breaker trip plus an error wrapping
// errPlannerPanic: one buggy hint-set extension must degrade queries to
// the default plan, never crash the process (the paper's extensibility
// story depends on new arms being safe to add).
func (b *Bao) planArms(ctx context.Context, q *planner.Query, sel *Selection, n int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			b.observer.PlannerPanics.Inc()
			b.breaker.Trip("planner-panic")
			err = fmt.Errorf("core: planning %d arms: %w: %v", n, errPlannerPanic, r)
		}
	}()
	if f := b.Cfg.Fault; f != nil && f.PlanPanicArm > 0 && f.PlanPanicArm < n {
		panic("guard: injected planner fault")
	}
	roots, cands, err := b.Eng.Opt.PlanArms(ctx, q, b.hints[:n])
	if err != nil {
		return fmt.Errorf("core: planning %d arms: %w", n, err)
	}
	sel.Plans, sel.Candidates = make([]*planner.Node, len(b.Cfg.Arms)), make([]int, len(b.Cfg.Arms))
	copy(sel.Plans, roots)
	for i := range roots {
		sel.Candidates[i] = cands
	}
	return nil
}

// Advice is advisor-mode EXPLAIN enrichment (Figure 6): the default
// plan's prediction, and the arm Select chose with its prediction and its
// predicted saving over the default.
type Advice struct {
	DefaultPredSecs float64
	BestArm         Arm
	BestPredSecs    float64
	ImprovementSecs float64
}

// Advise predicts the default plan's performance and recommends the hint
// set Select chose for the query — warm-up family, cost-sanity filter and
// cost tie-break included — without executing anything: the advice is the
// decision Bao would make. When there are no predictions to
// advise from — no model yet, or Select degraded to the default arm
// (breaker open, planner panic, all-non-finite predictions) — it returns
// the default plan with an error naming the reason.
func (b *Bao) Advise(sql string) (*Advice, *planner.Node, error) {
	sel, err := b.Select(sql)
	if err != nil {
		return nil, nil, err
	}
	if !b.Trained() {
		return nil, sel.Plans[0], fmt.Errorf("core: advisor needs a trained model (no experience yet)")
	}
	if !sel.UsedModel || sel.Preds == nil {
		// The trace, when tracing is on, has the exact degradation note;
		// without it, every such degradation leaves the breaker open.
		reason := "model unavailable"
		if sel.Trace != nil && sel.Trace.Breaker != "" {
			reason = sel.Trace.Breaker
		} else if b.breaker.State() == guard.Open {
			reason = "breaker-open"
		}
		return nil, sel.Plans[0], fmt.Errorf("core: advisor has no predictions, default plan served (%s)", reason)
	}
	best := sel.ArmID
	a := &Advice{
		DefaultPredSecs: sel.Preds[0],
		BestArm:         b.Cfg.Arms[best],
		BestPredSecs:    sel.Preds[best],
		ImprovementSecs: sel.Preds[0] - sel.Preds[best],
	}
	return a, sel.Plans[0], nil
}

// ExplainWithAdvice renders the Figure 6 advisor-mode EXPLAIN output.
func (b *Bao) ExplainWithAdvice(sql string) (string, error) {
	a, defPlan, err := b.Advise(sql)
	if err != nil {
		return "", err
	}
	head := fmt.Sprintf("Bao prediction: %.3f ms\nBao recommended hint: %s\n    (estimated %.3f ms improvement)\n",
		a.DefaultPredSecs*1000, a.BestArm.Hints.SQL(), a.ImprovementSecs*1000)
	return head + b.Eng.Explain(defPlan), nil
}
