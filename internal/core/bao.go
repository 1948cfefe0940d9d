package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"bao/internal/cloud"
	"bao/internal/engine"
	"bao/internal/executor"
	"bao/internal/guard"
	"bao/internal/model"
	"bao/internal/nn"
	"bao/internal/obs"
	"bao/internal/planner"
	"bao/internal/storage"
)

// Metric is the user-defined performance metric P the bandit minimizes
// (§3). Latency is the default; CPU and I/O reproduce the customizable
// optimization goals of Figure 16.
type Metric int

// Supported metrics.
const (
	MetricLatency Metric = iota
	MetricCPU
	MetricIO
)

// Value extracts the metric from execution counters, in seconds (I/O is
// reported as physical reads scaled to seconds-equivalent units so one
// model handles all metrics).
func (m Metric) Value(c executor.Counters) float64 {
	switch m {
	case MetricCPU:
		return cloud.CPUSeconds(c)
	case MetricIO:
		return float64(c.PageMisses) * 1e-4
	default:
		return cloud.ExecSeconds(c)
	}
}

// String names the metric.
func (m Metric) String() string {
	switch m {
	case MetricCPU:
		return "cpu"
	case MetricIO:
		return "io"
	default:
		return "latency"
	}
}

// Config controls a Bao instance. The defaults mirror the paper's tuned
// values: 49 arms, sliding window k=2000, retrain every n=100 queries.
type Config struct {
	Arms         []Arm
	WindowSize   int // k: most recent experiences kept
	RetrainEvery int // n: queries between model retrains
	CacheAware   bool
	Train        nn.TrainConfig
	Metric       Metric
	Seed         int64
	// ArmWarmup restricts arm selection to the small proven family
	// (TopArms) for the first N retrains, then opens the full family —
	// the paper's §1 extensibility property ("Bao can be extended by
	// adding new query hints over time, without retraining") used as a
	// curriculum: new arms join once the model has matured enough to
	// judge them. Zero disables the warm-up.
	ArmWarmup int
	// Workers bounds the goroutines used by every parallel stage of the
	// decision loop: TCNN inference and model training. (Arm planning is
	// one join enumeration costing every arm on the calling goroutine; the
	// time the paper's parallel planners would take is modelled
	// analytically by cloud.BaoPlanSeconds.) Zero or negative means one
	// worker per CPU; one forces fully sequential execution. Results are
	// bit-identical at every worker count.
	Workers int
	// PlanCache enables the query-fingerprint plan cache: the per-shape
	// work of a selection — planned arm set, dedup groups, featurized
	// tensors, and predictions — is cached keyed by (query fingerprint,
	// model version, catalog version, statistics epoch), so a repeated
	// query shape costs one lookup plus the argmin instead of 49 planner
	// invocations and a forward pass. Entries invalidate lazily on any DDL
	// (catalog version), ANALYZE (statistics epoch), and eagerly on model
	// publication (retrain hot-swap or checkpoint restore). Cached and
	// uncached selections are byte-identical at any worker count. Off by
	// default (the cmd layer turns it on for serving).
	PlanCache bool
	// PlanCacheSize bounds the cache's entry count (0 = 512). The cache is
	// additionally bounded by PlanCacheBytes (0 = 64 MiB), the approximate
	// resident bytes of the cached tensors; the LRU evicts until both
	// bounds hold.
	PlanCacheSize  int
	PlanCacheBytes int64
	// InferBatch, when positive, coalesces concurrent predictions against
	// the same model into shared forward passes bounded by this many trees
	// (cross-request micro-batching; see nn.Batcher). Zero disables
	// batching. The first caller per model runs immediately — no gather
	// timer — so low-concurrency latency is unchanged, and per-tree
	// independence keeps batched predictions byte-identical to unbatched.
	InferBatch int
	// Breaker configures the default-plan circuit breaker: when the
	// learned path repeatedly regresses against the default arm, a
	// planner worker panics, or predictions go degenerate, Select serves
	// the default (unhinted) arm for a cool-down before probing its way
	// back — the paper's "never far worse than the underlying optimizer"
	// guarantee enforced at serving time. Off by default.
	Breaker guard.BreakerConfig
	// Validate configures the validation gate RetrainAsync applies before
	// hot-swapping a candidate model: the candidate is scored on a
	// held-out slice of the experience window and rejected (keeping the
	// incumbent) when it regresses past the threshold or predicts
	// non-finite values. Off by default.
	Validate guard.ValidateConfig
	// Fault injects deterministic guard faults (fit panics, NaN models,
	// planner panics) for tests and the chaos harness. Nil in production.
	Fault *guard.Fault
	// NewModel overrides the value model (Figure 15a swaps in RF/Linear).
	// When nil a TCNN is used.
	NewModel func() model.Model
	// Observer is the observability sink (metrics + decision traces).
	// When nil the process-wide obs.Default() is used; obs.Disabled()
	// turns instrumentation into no-ops.
	Observer *obs.Observer
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		Arms:         DefaultArms(),
		WindowSize:   2000,
		RetrainEvery: 100,
		CacheAware:   true,
		Train:        nn.DefaultTrainConfig(),
		Metric:       MetricLatency,
		Seed:         17,
		ArmWarmup:    8,
	}
}

// FastConfig returns a laptop-scale configuration used by tests and the
// default experiment harness: fewer epochs and a smaller window, same
// structure.
func FastConfig() Config {
	c := DefaultConfig()
	c.WindowSize = 500
	c.RetrainEvery = 50
	c.Train.MaxEpochs = 35
	c.Train.Patience = 10
	return c
}

// Experience is one observed (plan tree, performance) pair (§3). A
// censored experience records an execution cancelled at its deadline:
// Secs is the deadline's simulated-clock budget — a lower bound on the
// true cost, per the paper's timeout handling — rather than a completed
// measurement, so bad arms still teach the model without ever running to
// completion.
type Experience struct {
	Tree     *nn.Tree
	Secs     float64
	ArmID    int
	Key      string // query identity, used by triggered exploration
	Critical bool
	Censored bool // Secs is a lower bound (execution hit its deadline)
}

// TrainEvent records one model retrain for cost accounting: the measured
// wall time on this machine and the simulated detachable-GPU time the
// cloud billing model charges.
type TrainEvent struct {
	AtQuery       int
	Samples       int
	Epochs        int
	WallSeconds   float64
	SimGPUSeconds float64
}

// Selection is the outcome of Bao's per-query arm choice.
type Selection struct {
	SQL        string
	Query      *planner.Query
	ArmID      int
	Plans      []*planner.Node // one per arm
	Trees      []*nn.Tree
	Preds      []float64 // model predictions (seconds); nil before first train
	Candidates []int     // planner effort per arm, for the optimization-time model
	// UniquePlans is how many distinct plans the arms produced this query
	// (equal to len(Plans) when dedup is disabled). Featurization and
	// inference ran once per distinct plan, not once per arm.
	UniquePlans int
	UsedModel   bool
	// WarmUp records whether the arm-warmup round-robin (not the model)
	// drove this choice; the calibration telemetry splits ratios on it.
	WarmUp bool
	// Trace is the in-flight decision trace for this query; nil unless
	// the observer has tracing enabled. Observe/ObserveValue finish and
	// publish it.
	Trace *obs.Trace
	// trueArmSecs, when set via ObserveValueWithArms, holds the measured
	// metric value of every arm for this query — the harness's simulated
	// clock knows them all — so the regret ledger books true baselines
	// instead of the model's counterfactual predictions.
	trueArmSecs []float64
}

// recentKeep is how many of the newest experiences are always included in
// a retrain alongside the bootstrap sample.
const recentKeep = 8

// Gross-misprediction thresholds (§3.2 "learns from its mistakes"): an
// execution observed more than grossMispredRatio times its prediction AND
// slower than grossMispredFloorSecs in absolute terms indicts the model.
const (
	grossMispredRatio     = 8.0
	grossMispredFloorSecs = 0.03
)

// minRetrainWindow is the experience floor below which retrains are held
// back (too little data to fit anything useful).
const minRetrainWindow = 16

// Bao is the bandit optimizer: it sits on top of an engine's traditional
// optimizer and selects hint sets per query via Thompson sampling.
//
// Concurrency: Select, Observe, ObserveLatency, ObserveValue,
// AddExternalExperience, Retrain, and the accessors are safe for
// concurrent use. Select takes only a brief read lock to snapshot the
// current model, so any number of selections run concurrently; the inline
// Retrain path holds the write lock for the duration of the fit (library
// users keep single-threaded semantics), while RetrainAsync fits a
// detached model off-lock and hot-swaps it in — the serving layer's
// trainer uses it so no selection ever blocks on training. Engine
// *execution* is not synchronized here: concurrent callers must serialize
// Eng.Execute (the serving layer runs a single execution lane).
type Bao struct {
	Cfg Config
	Eng *engine.Engine
	// Model is the current value model. Concurrent readers must snapshot
	// it via the mutex (Select does); it is hot-swapped by RetrainAsync.
	Model model.Model
	Feat  Featurizer

	// Enabled gates arm selection (SET enable_bao); when disabled, Run
	// uses the engine's default optimizer but can still learn off-policy.
	Enabled bool
	// AdvisorMode keeps observing executions for training while never
	// steering plans (§4).
	AdvisorMode bool

	// mu guards every mutable field below (and Model swaps above).
	mu          sync.RWMutex
	exp         []Experience
	critical    map[string][]Experience
	markedCrit  map[string]string // key → SQL
	queriesSeen int
	sinceTrain  int
	trainCount  int
	fitAttempts int // detached fit attempts, including rejected/panicked ones
	trained     bool
	warmupArms  []int // Cfg.Arms indices selectable during warm-up
	rng         *rand.Rand
	observer    *obs.Observer
	// modelVersion counts model publications (accepted retrains, inline
	// retrains, checkpoint restores). Cached predictions are tagged with
	// the version they were computed under and a mismatch forces a fresh
	// forward pass, so a selection can never serve a superseded model's
	// predictions out of the plan cache.
	modelVersion uint64

	// pcache is the query-fingerprint plan cache; nil unless
	// Cfg.PlanCache. It has its own lock (never held together with mu
	// except briefly inside model-publication flushes, b.mu → pcache.mu).
	pcache *planCache
	// batcher coalesces concurrent TCNN forward passes; nil unless
	// Cfg.InferBatch > 0.
	batcher *nn.Batcher

	// breaker is the default-plan circuit breaker; nil unless
	// Cfg.Breaker.Enabled (every guard call is nil-safe).
	breaker *guard.Breaker

	// retrainHook, when set, is signaled instead of retraining inline —
	// the serving layer points it at its trainer goroutine's channel. The
	// Cause identifies the decision whose observation triggered it.
	retrainHook func(obs.Cause)
	// expHook observes every admitted experience (the serving layer's
	// durable log). Called outside the lock, after admission.
	expHook func(Experience)
	// critHook observes every stored critical-query exploration set.
	critHook func(key string, exps []Experience)

	TrainEvents []TrainEvent
}

// New constructs Bao on top of an engine.
func New(eng *engine.Engine, cfg Config) *Bao {
	if len(cfg.Arms) == 0 {
		cfg.Arms = DefaultArms()
	}
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 2000
	}
	// A positive window below the retrain floor would silently never
	// retrain (len(exp) can never reach minRetrainWindow); clamp it up so
	// a tiny configured window degrades to the smallest working one.
	if cfg.WindowSize < minRetrainWindow {
		cfg.WindowSize = minRetrainWindow
	}
	if cfg.RetrainEvery <= 0 {
		cfg.RetrainEvery = 100
	}
	if cfg.Train.Workers == 0 {
		cfg.Train.Workers = cfg.Workers
	}
	if cfg.Breaker.Enabled {
		cfg.Breaker = cfg.Breaker.WithDefaults()
	}
	if cfg.Validate.Enabled {
		cfg.Validate = cfg.Validate.WithDefaults()
	}
	b := &Bao{
		Cfg:        cfg,
		Eng:        eng,
		Enabled:    true,
		critical:   make(map[string][]Experience),
		markedCrit: make(map[string]string),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		observer:   cfg.Observer,
	}
	if b.observer == nil {
		b.observer = obs.Default()
	}
	if cfg.Breaker.Enabled {
		o := b.observer
		b.breaker = guard.NewBreaker(cfg.Breaker, func(t guard.Transition) {
			o.BreakerState.Set(float64(t.To))
			if t.To == guard.Open {
				o.BreakerTrips.Inc()
			}
			o.Emit(obs.Event{
				Kind:     obs.EventBreaker,
				Detail:   t.From.String() + "->" + t.To.String() + ": " + t.Reason,
				Decision: t.Decision,
			})
		})
	}
	if cfg.PlanCache {
		b.pcache = newPlanCache(cfg.PlanCacheSize, cfg.PlanCacheBytes, b.observer)
	}
	if cfg.InferBatch > 0 {
		o := b.observer
		b.batcher = nn.NewBatcher(cfg.InferBatch)
		b.batcher.OnBatch = func(trees, calls int) {
			o.InferBatchSize.Observe(float64(trees))
		}
	}
	if cfg.NewModel != nil {
		b.Model = cfg.NewModel()
	} else {
		b.Model = model.NewTCNN(FeatureDim, cfg.Train, cfg.Seed)
	}
	if w, ok := b.Model.(interface{ SetWorkers(int) }); ok {
		w.SetWorkers(cfg.Workers)
	}
	// Resolve the warm-up family to indices in the configured arm list.
	if cfg.ArmWarmup > 0 {
		for _, top := range TopArms(6) {
			for i, arm := range cfg.Arms {
				if arm.Hints == top.Hints {
					b.warmupArms = append(b.warmupArms, i)
					break
				}
			}
		}
	}
	if cfg.CacheAware {
		b.Feat.CacheFrac = func(table string, indexOnly bool) float64 {
			t, ok := eng.DB.Table(table)
			if !ok {
				return 0
			}
			if indexOnly {
				ixPages := (t.NumRows() + storage.IndexEntriesPerPage - 1) / storage.IndexEntriesPerPage
				return eng.Pool.CachedIndexFraction(table, ixPages)
			}
			return eng.Pool.CachedFraction(table, t.NumPages())
		}
	}
	return b
}

// Trained reports whether the value model has been fit at least once.
func (b *Bao) Trained() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.trained
}

// ExperienceSize returns the number of windowed experiences.
func (b *Bao) ExperienceSize() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.exp)
}

// TrainCount returns the number of completed retrains.
func (b *Bao) TrainCount() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.trainCount
}

// CriticalKeys returns the keys of queries with stored critical
// exploration sets, sorted.
func (b *Bao) CriticalKeys() []string {
	b.mu.RLock()
	keys := make([]string, 0, len(b.critical))
	for k := range b.critical {
		keys = append(keys, k)
	}
	b.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// WindowCap returns the configured (clamped) experience-window capacity
// — the most experiences the sliding window ever holds. The serving
// layer sizes its durable-log shadow window from this so a recovered
// window is never under-filled relative to the live one.
func (b *Bao) WindowCap() int { return b.Cfg.WindowSize }

// CriticalSets returns a copy of the critical-query exploration registry
// keyed by query identity — the snapshot-side counterpart of
// RestoreCritical. The per-key slices are shared (they are immutable
// once stored).
func (b *Bao) CriticalSets() map[string][]Experience {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make(map[string][]Experience, len(b.critical))
	for k, v := range b.critical {
		out[k] = v
	}
	return out
}

// SetRetrainHook routes retrain triggers to fn instead of retraining
// inline: when the schedule (or a gross misprediction) calls for a
// retrain, fn is invoked — typically a non-blocking channel send into a
// background trainer that later calls RetrainAsyncFor. fn receives the
// identity of the decision that triggered it, so the eventual async
// retrain's trace links back to the query that scheduled it. Pass nil to
// restore the inline default. fn must not block and must not call back
// into Bao.
func (b *Bao) SetRetrainHook(fn func(obs.Cause)) {
	b.mu.Lock()
	b.retrainHook = fn
	b.mu.Unlock()
}

// SetExperienceHook registers fn to be called (outside the lock) with
// every experience admitted into the window — the serving layer appends
// them to its durable log. Pass nil to unregister.
func (b *Bao) SetExperienceHook(fn func(Experience)) {
	b.mu.Lock()
	b.expHook = fn
	b.mu.Unlock()
}

// SetCriticalHook registers fn to be called with every critical-query
// exploration set ExploreCritical stores. Pass nil to unregister.
func (b *Bao) SetCriticalHook(fn func(key string, exps []Experience)) {
	b.mu.Lock()
	b.critHook = fn
	b.mu.Unlock()
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

// RestoreCritical restores one critical query's exploration set (startup
// replay counterpart of ExploreCritical's bookkeeping).
func (b *Bao) RestoreCritical(key string, exps []Experience) {
	b.mu.Lock()
	b.critical[key] = exps
	b.markedCrit[key] = key
	b.mu.Unlock()
}

// Select plans the query under every arm, predicts each plan's
// performance, and picks the arm with the best prediction (greedy under
// the currently sampled model parameters — the Thompson sampling draw
// happens at retrain time via the bootstrap). Before the first retrain the
// default arm (the unhinted optimizer) is used, matching the paper's
// conservative cold start.
func (b *Bao) Select(sql string) (*Selection, error) {
	return b.SelectCtx(context.Background(), sql)
}

// SelectCtx is Select under a context: cancellation is checked between
// pipeline stages and, inside planning, once per relation subset of the
// join enumeration, so an abandoned request stops planning within one
// subset rather than finishing the enumeration for nobody. A cancelled
// selection returns the context's error; nothing is recorded.
func (b *Bao) SelectCtx(ctx context.Context, sql string) (*Selection, error) {
	o := b.observer
	selStart := time.Now()
	tr := o.StartTrace(sql)
	tr.SetRequestID(obs.RequestIDFrom(ctx))
	q, err := b.Eng.AnalyzeSQL(sql)
	if err != nil {
		return nil, err
	}
	parseDone := time.Now()
	o.ParseSeconds.Observe(parseDone.Sub(selStart).Seconds())
	tr.AddSpan("parse", selStart, parseDone.Sub(selStart), "")
	sel := &Selection{SQL: sql, Query: q, Trace: tr}
	sel.Plans = make([]*planner.Node, len(b.Cfg.Arms))
	sel.Candidates = make([]int, len(b.Cfg.Arms))
	sel.Trees = make([]*nn.Tree, len(b.Cfg.Arms))
	// Snapshot the bandit state under a brief read lock: concurrent
	// Selects share the current model, and a RetrainAsync hot-swap
	// arriving mid-query affects only subsequent selections.
	b.mu.RLock()
	trained := b.trained
	mdl := b.Model
	mver := b.modelVersion
	warm := b.warmupActiveLocked()
	candidates := b.selectableArmsLocked()
	windowLen := len(b.exp)
	b.mu.RUnlock()
	sel.WarmUp = warm
	// The breaker clocks every decision. While it is open the learned
	// path is not trusted: plan only the default arm — cheap, and immune
	// to a misbehaving hint-set planner — and serve it, still recording
	// the experience so the window keeps learning through the outage.
	if !b.breaker.Allow() {
		o.BreakerDefault.Inc()
		if err := b.planArms(ctx, q, sel, 1); err != nil {
			return nil, err
		}
		planDone := time.Now()
		o.PlanSeconds.Observe(planDone.Sub(parseDone).Seconds())
		tr.AddSpan("plan_arms", parseDone, planDone.Sub(parseDone), "breaker open: default arm only")
		return b.finishDefault(sel, selStart, planDone, warm, windowLen, "breaker-open")
	}
	// Plan-cache lookup: when the cache is on, the fingerprint chain is
	// consulted before any planner runs. The epochs are snapshotted here —
	// a concurrent DDL/ANALYZE landing after this point at worst tags a
	// stored entry with a superseded epoch, which the next lookup drops.
	var (
		cacheFP    uint64
		cacheCanon string
		schemaVer  uint64
		statsEp    uint64
		hitEntry   *planCacheEntry
		hitVariant *cacheVariant // set when cached tensors were reused verbatim
		verdict    string
	)
	if b.pcache != nil {
		schemaVer = b.Eng.CatalogVersion()
		statsEp = b.Eng.StatsEpoch()
		cacheFP = queryFingerprint(q.Stmt)
		cacheCanon = q.Stmt.String()
		hitEntry = b.pcache.get(cacheFP, cacheCanon, schemaVer, statsEp)
	}
	var (
		armGroup  []int
		groupFP   []uint64
		uniq      []*planner.Node // representative plan per dedup group
		uniqTrees []*nn.Tree
	)
	planDone := parseDone
	if hitEntry != nil {
		// Hit: reuse the planned arm set and dedup groups outright; reuse
		// the tensors too unless buffer-pool residency drifted since they
		// were featurized (the one plan-independent feature input).
		o.PlanCacheHits.Inc()
		verdict = "hit"
		sel.Plans = hitEntry.plans
		sel.Candidates = hitEntry.cands
		armGroup, groupFP, uniq = hitEntry.armGroup, hitEntry.groupFP, hitEntry.uniq
		sel.UniquePlans = len(groupFP)
		v := hitEntry.variant
		if floatsEqual(b.Feat.residencyFromPlans(uniq), v.resSig) {
			uniqTrees = v.trees
			hitVariant = v
		} else {
			verdict = "hit-refeaturize"
			uniqTrees = make([]*nn.Tree, len(uniq))
			for g, p := range uniq {
				uniqTrees[g] = b.Feat.Vectorize(p)
			}
		}
		for i, g := range armGroup {
			sel.Trees[i] = uniqTrees[g]
		}
		planDone = time.Now()
		if tr != nil {
			tr.UniquePlans = sel.UniquePlans
			tr.AddSpan("plancache", parseDone, planDone.Sub(parseDone), verdict)
		}
	} else {
		// One join enumeration plans every arm; arms with the same plan
		// come back sharing one tree.
		err := b.planArms(ctx, q, sel, len(b.Cfg.Arms))
		degraded := errors.Is(err, errPlannerPanic) && len(b.Cfg.Arms) > 1
		if degraded {
			// The planner panicked somewhere in the hint-set family (and
			// the breaker tripped). If the default arm plans fine on its
			// own, this query degrades to the default plan instead of
			// failing; a panic there too leaves nothing to degrade to.
			err = b.planArms(ctx, q, sel, 1)
		}
		if err == nil && ctx.Err() != nil {
			err = fmt.Errorf("core: select cancelled: %w", ctx.Err())
		}
		if err != nil {
			return nil, err
		}
		planDone = time.Now()
		o.PlanSeconds.Observe(planDone.Sub(parseDone).Seconds())
		if degraded {
			o.BreakerDefault.Inc()
			tr.AddSpan("plan_arms", parseDone, planDone.Sub(parseDone), "planner panic: degraded to default arm")
			return b.finishDefault(sel, selStart, planDone, warm, windowLen, "planner-panic")
		}
		// Deduplicate before featurizing: hint sets routinely collapse to the
		// same physical plan, and identical plans featurize to identical trees
		// and predictions, so each distinct plan is vectorized and inferred
		// exactly once and the result fanned back out per arm.
		armGroup, groupFP = dedupPlans(sel.Plans)
		sel.UniquePlans = len(groupFP)
		o.PlansDeduped.Add(float64(len(sel.Plans) - sel.UniquePlans))
		uniqTrees = make([]*nn.Tree, sel.UniquePlans)
		uniq = make([]*planner.Node, sel.UniquePlans)
		for i, g := range armGroup {
			if uniqTrees[g] == nil {
				uniqTrees[g] = b.Feat.Vectorize(sel.Plans[i])
				uniq[g] = sel.Plans[i]
			}
			sel.Trees[i] = uniqTrees[g]
		}
		featDone := time.Now()
		o.FeatSeconds.Observe(featDone.Sub(planDone).Seconds())
		if b.pcache != nil {
			o.PlanCacheMisses.Inc()
			verdict = "miss"
		}
		if tr != nil {
			tr.UniquePlans = sel.UniquePlans
			tr.AddSpan("plan_arms", parseDone, planDone.Sub(parseDone),
				fmt.Sprintf("arms=%d distinct=%d", len(b.Cfg.Arms), sel.UniquePlans))
			tr.AddSpan("featurize", planDone, featDone.Sub(planDone),
				fmt.Sprintf("unique=%d deduped=%d", sel.UniquePlans, len(sel.Plans)-sel.UniquePlans))
		}
	}
	breakerNote := ""
	// freshPreds/freshFinite record a forward pass made by THIS call (as
	// opposed to predictions served out of the cache), which is what the
	// cache write-back below publishes.
	var freshPreds []float64
	freshFinite := -1
	if trained {
		inferStart := time.Now()
		var uniqPreds []float64
		finite := 0
		if hitVariant != nil && hitVariant.preds != nil && hitVariant.predsVer == mver {
			// Full hit: these exact tensors were already predicted under
			// this model version — skip inference entirely. Versions are
			// bumped precisely when a model is published, so an equal
			// version implies the same model instance and the cached
			// predictions are byte-identical to a fresh pass.
			uniqPreds = hitVariant.preds
			finite = hitVariant.finite
		} else {
			if verdict == "hit" {
				verdict = "hit-repredict" // tensors reused, model moved on
			}
			uniqPreds = b.predictTrees(mdl, uniqTrees)
			// Clamp non-finite predictions: one NaN must not poison the argmin
			// (every comparison against NaN is false), so a degenerate arm is
			// priced at +infinity-in-practice and loses to any finite one. If
			// NO prediction is finite the model has nothing usable to say —
			// trip the breaker and serve the default arm.
			for i, p := range uniqPreds {
				if math.IsNaN(p) || math.IsInf(p, 0) {
					o.NonFinitePreds.Inc()
					uniqPreds[i] = math.MaxFloat64
				} else {
					finite++
				}
			}
			freshPreds, freshFinite = uniqPreds, finite
		}
		sel.Preds = make([]float64, len(armGroup))
		for i, g := range armGroup {
			sel.Preds[i] = uniqPreds[g]
		}
		inferDone := time.Now()
		o.InferSeconds.Observe(inferDone.Sub(inferStart).Seconds())
		tr.AddSpan("infer", inferStart, inferDone.Sub(inferStart), "")
		if finite == 0 {
			b.breaker.Trip("degenerate-predictions")
			o.BreakerDefault.Inc()
			sel.Preds = nil
			breakerNote = "degenerate-predictions"
			trained = false
		}
	}
	b.storeCacheEntry(hitEntry, hitVariant, cacheFP, cacheCanon, schemaVer, statsEp,
		sel, armGroup, groupFP, uniq, uniqTrees, freshPreds, freshFinite, mver)
	if trained {
		pickStart := time.Now()
		// Cost-sanity guard: drop arms whose plan the traditional optimizer
		// prices two orders of magnitude above the cheapest arm. Bao
		// second-guesses the cost model's *choices*, not its arithmetic —
		// no mis-estimate plausibly hides a 10,000× cost ratio, so such
		// plans are pure exploration downside.
		minCost := sel.Plans[candidates[0]].EstCost
		for _, i := range candidates {
			if sel.Plans[i].EstCost < minCost {
				minCost = sel.Plans[i].EstCost
			}
		}
		sane := candidates[:0:0]
		for _, i := range candidates {
			if sel.Plans[i].EstCost <= minCost*100 {
				sane = append(sane, i)
			}
		}
		if len(sane) > 0 {
			candidates = sane
		}
		// Exact ties are the common case once dedup runs: every arm in a
		// dedup group carries the same prediction. Break them with the
		// traditional optimizer's cost estimate — the "leverage the wisdom
		// built into existing optimizers" principle: the model decides when
		// it has signal, the cost model when it has none. The band is exact
		// equality on purpose: any wider and the cost model would override
		// the learned signal on the trap queries Bao exists to fix. Both
		// comparisons are strict, so on a full (pred, cost) tie the lowest
		// arm index wins and the choice is stable run to run.
		best := candidates[0]
		for _, i := range candidates[1:] {
			if sel.Preds[i] < sel.Preds[best] ||
				(sel.Preds[i] == sel.Preds[best] && sel.Plans[i].EstCost < sel.Plans[best].EstCost) {
				best = i
			}
		}
		sel.ArmID = best
		sel.UsedModel = true
		tr.AddSpan("select_arm", pickStart, time.Since(pickStart), "")
	}
	o.SelectSeconds.Observe(time.Since(selStart).Seconds())
	o.ArmSelected.With(b.Cfg.Arms[sel.ArmID].Name).Inc()
	if tr != nil {
		tr.ArmID = sel.ArmID
		tr.ArmName = b.Cfg.Arms[sel.ArmID].Name
		tr.UsedModel = sel.UsedModel
		tr.WarmUp = warm
		tr.WindowSize = windowLen
		tr.Breaker = breakerNote
		tr.Cache = verdict
		if sel.Preds != nil {
			tr.PredictedSecs = sel.Preds[sel.ArmID]
		}
	}
	return sel, nil
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
// cache: a miss stores the whole entry; a hit that had to refeaturize or
// re-predict refreshes the entry's variant. Degenerate predictions
// (freshFinite == 0) are never cached — the entry keeps its plans but no
// predictions, so the next repeat re-predicts. No-op when the cache is
// off or the arm set wasn't fully planned (groupFP nil).
func (b *Bao) storeCacheEntry(hitEntry *planCacheEntry, hitVariant *cacheVariant,
	fp uint64, canon string, schemaVer, statsEp uint64,
	sel *Selection, armGroup []int, groupFP []uint64, uniq []*planner.Node,
	uniqTrees []*nn.Tree, freshPreds []float64, freshFinite int, mver uint64) {
	if b.pcache == nil || groupFP == nil {
		return
	}
	if hitEntry != nil && hitVariant != nil && freshPreds == nil {
		return // full hit: nothing newer than what is already cached
	}
	v := &cacheVariant{predsVer: mver}
	if hitVariant != nil {
		// Tensors were reused; only the predictions are new.
		v.resSig, v.trees = hitVariant.resSig, hitVariant.trees
	} else {
		v.trees = uniqTrees
		if b.Feat.CacheFrac != nil {
			v.resSig = residencyFromTrees(uniqTrees)
		}
	}
	if freshFinite > 0 {
		v.preds, v.finite = freshPreds, freshFinite
	}
	if hitEntry != nil {
		b.pcache.replaceVariant(hitEntry, v)
		return
	}
	b.pcache.put(&planCacheEntry{
		fp:         fp,
		canon:      canon,
		schemaVer:  schemaVer,
		statsEpoch: statsEp,
		plans:      sel.Plans,
		cands:      sel.Candidates,
		armGroup:   armGroup,
		groupFP:    groupFP,
		uniq:       uniq,
		variant:    v,
	})
}

// finishDefault completes a selection the guard degraded to the default
// arm (breaker open, or a planner panic on a non-default arm): featurize
// the default plan, stamp the trace with the reason, and return with
// UsedModel false — the observation path records the experience exactly
// as it would a cold-start default selection, so the window keeps
// learning while the learned path sits out.
func (b *Bao) finishDefault(sel *Selection, selStart, planDone time.Time, warm bool, windowLen int, reason string) (*Selection, error) {
	o := b.observer
	sel.ArmID = 0
	sel.UsedModel = false
	sel.Preds = nil
	sel.UniquePlans = 1
	sel.Trees[0] = b.Feat.Vectorize(sel.Plans[0])
	featDone := time.Now()
	o.FeatSeconds.Observe(featDone.Sub(planDone).Seconds())
	o.SelectSeconds.Observe(time.Since(selStart).Seconds())
	o.ArmSelected.With(b.Cfg.Arms[0].Name).Inc()
	if tr := sel.Trace; tr != nil {
		tr.AddSpan("featurize", planDone, featDone.Sub(planDone), "default arm only")
		tr.ArmID = 0
		tr.ArmName = b.Cfg.Arms[0].Name
		tr.UsedModel = false
		tr.WarmUp = warm
		tr.WindowSize = windowLen
		tr.UniquePlans = 1
		tr.Breaker = reason
	}
	return sel, nil
}

// errPlannerPanic marks a planning error that was a recovered panic: the
// selection degrades to the default arm planned alone instead of failing.
var errPlannerPanic = errors.New("planner panicked")

// armHints returns the hint sets of the first n arms.
func (b *Bao) armHints(n int) []planner.Hints {
	hints := make([]planner.Hints, n)
	for i := range hints {
		hints[i] = b.Cfg.Arms[i].Hints
	}
	return hints
}

// planArms plans the first n arms of the query in one join enumeration
// (planner.PlanArms) and stores each arm's plan and the enumeration's
// candidate count — which does not depend on the hint set — in sel. A
// planner panic — real, or injected via Cfg.Fault.PlanPanicArm when that
// arm is among the n — becomes a breaker trip plus an error wrapping
// errPlannerPanic: one buggy hint-set extension must degrade queries to
// the default plan, never crash the process (the paper's extensibility
// story depends on new arms being safe to add). A cancelled enumeration
// returns the context's error.
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
	roots, cands, err := b.Eng.Opt.PlanArms(ctx, q, b.armHints(n))
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("core: select cancelled: %w", cerr)
		}
		return fmt.Errorf("core: planning %d arms: %w", n, err)
	}
	copy(sel.Plans, roots)
	for i := range roots {
		sel.Candidates[i] = cands
	}
	return nil
}

// warmupActive reports whether arm selection is currently restricted to
// the warm-up family.
func (b *Bao) warmupActive() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.warmupActiveLocked()
}

func (b *Bao) warmupActiveLocked() bool {
	return b.Cfg.ArmWarmup > 0 && b.trainCount < b.Cfg.ArmWarmup && len(b.warmupArms) > 0
}

// selectableArms returns the arm indices the bandit may pick right now:
// the warm-up family while the model is young, every arm afterwards.
func (b *Bao) selectableArms() []int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.selectableArmsLocked()
}

func (b *Bao) selectableArmsLocked() []int {
	if b.warmupActiveLocked() {
		return b.warmupArms
	}
	all := make([]int, len(b.Cfg.Arms))
	for i := range all {
		all[i] = i
	}
	return all
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
	b.observe(sel, b.Cfg.Metric.Value(c), true)
}

// ObserveValue records an already-measured metric value for the selected
// plan. Experiment harnesses that evaluate arms externally (e.g. regret
// studies executing every arm cold) use it instead of Observe. Unlike
// Observe it never triggers the gross-misprediction early retrain: the
// caller's measurement may deliberately be off-policy (cold caches,
// foreign hardware profiles).
func (b *Bao) ObserveValue(sel *Selection, secs float64) {
	b.observe(sel, secs, false)
}

// ObserveValueWithArms is ObserveValue for harnesses that measured EVERY
// arm for this query (regret experiments on the simulated clock):
// armSecs[i] is arm i's metric value, and armSecs[sel.ArmID] is recorded
// as the observation. The extra information flows into the regret
// ledger, which books the default arm's and the best arm's measured cost
// as true baselines instead of the model's counterfactual predictions.
func (b *Bao) ObserveValueWithArms(sel *Selection, armSecs []float64) {
	if len(armSecs) != len(b.Cfg.Arms) {
		b.observe(sel, armSecs[sel.ArmID], false)
		return
	}
	sel.trueArmSecs = armSecs
	b.observe(sel, armSecs[sel.ArmID], false)
}

// regretEntry books one decision's regret accounting: observed cost of
// the chosen arm against the default arm and the best arm. Baselines are
// measured values when the caller evaluated every arm (trueArmSecs),
// otherwise the model's own predictions; with neither, both baselines
// equal the observation and the entry contributes zero regret (it still
// counts the decision).
func (b *Bao) regretEntry(sel *Selection, secs float64, censored bool) obs.RegretEntry {
	cause := sel.Trace.Cause()
	e := obs.RegretEntry{
		TraceID:      cause.TraceID,
		RequestID:    cause.RequestID,
		ArmID:        sel.ArmID,
		Arm:          b.Cfg.Arms[sel.ArmID].Name,
		ObservedSecs: secs,
		DefaultSecs:  secs,
		BestSecs:     secs,
		Censored:     censored,
		WarmUp:       sel.WarmUp,
	}
	baselines := sel.trueArmSecs
	if baselines != nil {
		e.TrueBaseline = true
	} else if sel.UsedModel {
		baselines = sel.Preds
	}
	if len(baselines) == 0 {
		return e
	}
	if e.TrueBaseline || sel.ArmID != 0 {
		// Serving the default arm has zero regret vs default by
		// definition; only a measured baseline can say otherwise.
		// MaxFloat64 is the clamp for degenerate predictions, not a price.
		if d := baselines[0]; isFinite(d) && d < math.MaxFloat64 {
			e.DefaultSecs = d
		}
	}
	best := math.Inf(1)
	for _, v := range baselines {
		if isFinite(v) && v < best {
			best = v
		}
	}
	if isFinite(best) && best < math.MaxFloat64 {
		e.BestSecs = best
	}
	return e
}

// ObserveLatency records an externally measured metric value with the full
// on-policy semantics of Observe, including the gross-misprediction early
// retrain. The serving layer's /v1/observe endpoint uses it: the client
// executed the selected plan for real and reports what it cost.
func (b *Bao) ObserveLatency(sel *Selection, secs float64) {
	b.observe(sel, secs, true)
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
	o := b.observer
	o.Queries.Inc()
	o.QueryTimeouts.Inc()
	o.CensoredExperiences.Inc()
	cause := sel.Trace.Cause()
	o.ExecSeconds.ObserveEx(budgetSecs, cause.TraceID, cause.RequestID)
	armName := b.Cfg.Arms[sel.ArmID].Name
	o.ArmObserved.With(armName).Add(budgetSecs)
	var pred float64
	if sel.UsedModel && sel.Preds != nil {
		pred = sel.Preds[sel.ArmID]
		// No calibration sample: observed/predicted on a censored value
		// would systematically understate the ratio. Regret still accrues —
		// at least (budget - pred) was lost.
		if regret := budgetSecs - pred; regret > 0 {
			o.ArmRegret.With(armName).Add(regret)
		}
	}
	// The ledger books the censored observation at its budget: a lower
	// bound on the regret actually suffered, flagged Censored so readers
	// know it understates.
	o.RecordRegret(b.regretEntry(sel, budgetSecs, true))
	o.Emit(obs.Event{
		Kind:      obs.EventCensored,
		Detail:    "execution cancelled at deadline",
		TraceID:   cause.TraceID,
		RequestID: cause.RequestID,
		Arm:       armName,
		Secs:      budgetSecs,
	})
	b.reportBreakerOutcome(sel, budgetSecs)
	b.record(Experience{
		Tree:     sel.Trees[sel.ArmID],
		Secs:     budgetSecs,
		ArmID:    sel.ArmID,
		Key:      sel.SQL,
		Censored: true,
	}, pred, true, true, sel.Trace)
	if tr := sel.Trace; tr != nil {
		tr.ObservedSecs = budgetSecs
		tr.DeadlineSecs = budgetSecs
		tr.Censored = true
		o.FinishTrace(tr)
	}
}

// Abandon discards a selection without recording anything: no experience,
// no explog append, no retrain signal. The serving layer calls it for
// requests whose client is gone (HTTP timeout or disconnect) and for
// executions that failed outright — an abandoned request must leave the
// learning state exactly as it found it. The decision trace, if any, is
// finished and published flagged with the reason so dropped work stays
// visible in /debug/traces.
func (b *Bao) Abandon(sel *Selection, reason string) {
	if sel == nil {
		return
	}
	cause := sel.Trace.Cause()
	b.observer.Emit(obs.Event{
		Kind:      obs.EventAbandoned,
		Detail:    reason,
		TraceID:   cause.TraceID,
		RequestID: cause.RequestID,
		Arm:       b.Cfg.Arms[sel.ArmID].Name,
	})
	if tr := sel.Trace; tr != nil {
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

// observe is the shared observation path: record metrics, admit the
// experience, and retrain on schedule (or early, when allowEarly and the
// prediction was grossly wrong). It finishes and publishes sel.Trace.
func (b *Bao) observe(sel *Selection, secs float64, allowEarly bool) {
	obsStart := time.Now()
	o := b.observer
	o.Queries.Inc()
	cause := sel.Trace.Cause()
	o.ExecSeconds.ObserveEx(secs, cause.TraceID, cause.RequestID)
	armName := b.Cfg.Arms[sel.ArmID].Name
	o.ArmObserved.With(armName).Add(secs)
	var pred, ratio float64
	if sel.UsedModel && sel.Preds != nil {
		pred = sel.Preds[sel.ArmID]
		if pred > 0 {
			ratio = secs / pred
			o.Calibration.Observe(ratio)
			o.ObserveCalibration(armName, sel.WarmUp, ratio)
			if regret := secs - pred; regret > 0 {
				o.ArmRegret.With(armName).Add(regret)
			}
		}
	}
	o.RecordRegret(b.regretEntry(sel, secs, false))
	if b.Eng != nil {
		st := b.Eng.Pool.Stats()
		o.PoolHits.Set(float64(st.Hits))
		o.PoolMisses.Set(float64(st.Misses))
		o.PoolHitRate.Set(st.HitRate())
	}
	sel.Trace.AddSpan("observe", obsStart, time.Since(obsStart), "")
	if allowEarly {
		b.reportBreakerOutcome(sel, secs)
	}
	b.record(Experience{
		Tree:  sel.Trees[sel.ArmID],
		Secs:  secs,
		ArmID: sel.ArmID,
		Key:   sel.SQL,
	}, pred, allowEarly, true, sel.Trace)
	if tr := sel.Trace; tr != nil {
		tr.ObservedSecs = secs
		tr.Ratio = ratio
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
func (b *Bao) reportBreakerOutcome(sel *Selection, secs float64) {
	if b.breaker == nil || !sel.UsedModel || sel.Preds == nil {
		return
	}
	c := b.Cfg.Breaker
	defPred := sel.Preds[0]
	failure := sel.ArmID != 0 && isFinite(defPred) && defPred > 0 &&
		secs > c.RegretRatio*defPred && secs > c.RegretFloorSecs
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
	b.mu.RLock()
	trained, mdl := b.trained, b.Model
	b.mu.RUnlock()
	if trained {
		pred = mdl.Predict([]*nn.Tree{tree})[0]
	}
	b.observer.External.Inc()
	b.record(Experience{Tree: tree, Secs: secs}, pred, true, false, nil)
}

// record is the single experience-admission path behind Observe,
// ObserveValue/ObserveLatency, and AddExternalExperience: append to the
// window, maintain the window gauge, detect gross misprediction against
// pred (zero disables the check), and retrain on schedule — or early,
// when allowEarly and the model was grossly wrong. The retrain runs
// inline unless a retrain hook is registered, in which case the hook is
// signaled and training happens elsewhere (the serving layer's trainer).
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
	if b.guardedRetrains() {
		// With the guard configured, inline retrains route through
		// RetrainAsyncFor so the validation gate, fault hooks, and panic
		// recovery apply on every path — Retrain's in-place fit would
		// mutate the live model before any verdict could reject it. The
		// async trace it publishes links back to this decision.
		b.RetrainAsyncFor(cause)
	} else {
		b.Retrain()
	}
	tr.AddSpan("retrain", retrainStart, time.Since(retrainStart), "")
}

// guardedRetrains reports whether retrains must run through the guarded
// detached path (validation gate, breaker signals, fault injection).
func (b *Bao) guardedRetrains() bool {
	return b.Cfg.Validate.Enabled || b.Cfg.Breaker.Enabled || b.Cfg.Fault != nil
}

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
}

// isFinite reports whether f is neither NaN nor infinite.
func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// trainingSampleLocked assembles one Thompson sampling draw's training
// set and resets the retrain schedule: a bootstrap (sample with
// replacement) of the experience window, the most recent experiences
// verbatim (so a fresh catastrophic observation can never be dropped by
// the resampling), and every flagged critical experience. It also
// snapshots the critical registry for the enforcement loop.
//
// Experiences with non-finite latency targets are excluded — one NaN
// target would zero the network's gradients and poison the whole fit —
// and, when the validation gate is enabled, every cfg.HoldoutEvery-th
// eligible experience is routed into the held-out validation slice
// instead of the training pool (the newest recentKeep and censored
// observations stay trainable: the former must never be dropped, the
// latter are lower bounds that would bias a validation error).
//
// When the guard is off and every target is finite, the index pool is
// the identity and the bootstrap consumes the seeded RNG exactly as it
// always has, so existing deterministic runs are unchanged. Returns nil
// trees when there is nothing to train on. Callers hold b.mu.
func (b *Bao) trainingSampleLocked() (trees []*nn.Tree, secs []float64, valTrees []*nn.Tree, valSecs []float64, crit map[string][]Experience) {
	b.sinceTrain = 0
	if len(b.exp) == 0 && len(b.critical) == 0 {
		return nil, nil, nil, nil, nil
	}
	pool := make([]int, 0, len(b.exp))
	for i, e := range b.exp {
		if !isFinite(e.Secs) {
			continue
		}
		pool = append(pool, i)
	}
	if v := b.Cfg.Validate; v.Enabled {
		holdout := make(map[int]bool)
		tail := len(b.exp) - recentKeep
		if tail < 0 {
			tail = 0
		}
		nth := 0
		for _, i := range pool {
			if i >= tail || b.exp[i].Censored {
				continue
			}
			nth++
			if nth%v.HoldoutEvery == 0 && len(holdout) < v.MaxHoldout {
				holdout[i] = true
				valTrees = append(valTrees, b.exp[i].Tree)
				valSecs = append(valSecs, b.exp[i].Secs)
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
	trees = make([]*nn.Tree, 0, len(pool))
	secs = make([]float64, 0, len(pool))
	// Bootstrap sample (the Thompson draw) ...
	bootN := len(pool) - recentKeep
	if bootN < 0 {
		bootN = 0
	}
	for i := 0; i < bootN; i++ {
		e := b.exp[pool[b.rng.Intn(len(pool))]]
		trees = append(trees, e.Tree)
		secs = append(secs, e.Secs)
	}
	// ... plus the newest experiences verbatim.
	tail := len(pool) - recentKeep
	if tail < 0 {
		tail = 0
	}
	for _, i := range pool[tail:] {
		trees = append(trees, b.exp[i].Tree)
		secs = append(secs, b.exp[i].Secs)
	}
	for _, exps := range b.critical {
		for _, e := range exps {
			if !isFinite(e.Secs) {
				continue
			}
			trees = append(trees, e.Tree)
			secs = append(secs, e.Secs)
		}
	}
	crit = make(map[string][]Experience, len(b.critical))
	for k, v := range b.critical {
		crit[k] = v
	}
	return trees, secs, valTrees, valSecs, crit
}

// finishRetrainLocked publishes a completed fit's bookkeeping. Callers
// hold b.mu.
func (b *Bao) finishRetrainLocked(m model.Model, samples, epochs int, wall float64) {
	b.trained = true
	b.trainCount++
	b.publishModelLocked()
	b.TrainEvents = append(b.TrainEvents, TrainEvent{
		AtQuery:       b.queriesSeen,
		Samples:       samples,
		Epochs:        epochs,
		WallSeconds:   wall,
		SimGPUSeconds: cloud.GPUTrainSeconds(samples, maxInt(epochs, 1)),
	})
	o := b.observer
	o.Retrains.Inc()
	o.RetrainSeconds.Add(wall)
	o.TrainEpochs.Add(float64(epochs))
	o.TrainSamples.Set(float64(samples))
	if lf, ok := m.(interface{ LastFit() nn.TrainResult }); ok {
		o.TrainLoss.Set(lf.LastFit().FinalLoss)
	}
}

// Retrain performs one Thompson sampling draw: fit a fresh model on a
// bootstrap of the experience window, always including the flagged
// critical experiences, then fine-tune until every critical query's
// fastest arm is ranked first (§4 "triggered exploration"). The inline
// path fits the live model while holding the write lock, so concurrent
// Selects wait out the fit — callers that must keep selecting during
// training use RetrainAsync instead.
func (b *Bao) Retrain() {
	b.mu.Lock()
	defer b.mu.Unlock()
	trees, secs, valTrees, valSecs, crit := b.trainingSampleLocked()
	// The inline path has no hot-swap to gate, so the holdout (if the
	// validation config carved one out) folds back into the training set
	// rather than going unused.
	trees = append(trees, valTrees...)
	secs = append(secs, valSecs...)
	if len(trees) == 0 {
		return
	}
	start := time.Now()
	epochs := b.Model.Fit(trees, secs)
	epochs += enforceCriticalOn(b.Model, trees, secs, crit)
	wall := time.Since(start).Seconds()
	b.finishRetrainLocked(b.Model, len(trees), epochs, wall)
	// The inline path fits the live model in place — there is no swap to
	// gate — but journal consumers (baoshell \events, the JSONL sink)
	// still need to see that a retrain landed, so it reports as an
	// unconditionally accepted fit.
	b.observer.Emit(obs.Event{Kind: obs.EventSwapAccepted,
		Detail: fmt.Sprintf("samples=%d epochs=%d (inline)", len(trees), epochs),
		Secs:   wall})
}

// RetrainAsync performs one Thompson sampling draw on a detached model
// and hot-swaps it in: the training sample is drawn under a brief lock,
// the fit runs with no lock held (concurrent Selects keep predicting with
// the previous model), and the fitted model replaces Bao's under another
// brief lock. This is the paper's Bao-server training loop: steering
// stays on the hot path while learning stays off it.
//
// The guard wraps the swap: a panic inside the fit is recovered into a
// breaker model-failure signal (the incumbent keeps serving), and when
// the validation gate is enabled the candidate must pass it — non-finite
// weights, non-finite predictions or a validation-error regression past
// the threshold reject the candidate, count bao_retrain_rejected_total,
// and keep the incumbent. Returns false when nothing was trained or the candidate was
// rejected.
func (b *Bao) RetrainAsync() bool { return b.RetrainAsyncFor(obs.Cause{}) }

// RetrainAsyncFor is RetrainAsync carrying the identity of the decision
// that triggered it: the published "retrain" trace (sample → fit →
// validate → swap spans) and the swap-accepted/rejected events all link
// back to cause, so a hot-swap under load is resolvable from the query
// whose observation scheduled it. A zero Cause (manual retrain, tests)
// produces an unlinked trace.
func (b *Bao) RetrainAsyncFor(cause obs.Cause) bool {
	o := b.observer
	tr := o.StartLinkedTrace("retrain", cause)
	sampleStart := time.Now()
	b.mu.Lock()
	trees, secs, valTrees, valSecs, crit := b.trainingSampleLocked()
	if len(trees) == 0 {
		b.mu.Unlock()
		tr.AddSpan("sample", sampleStart, time.Since(sampleStart), "no trainable experiences")
		o.FinishTrace(tr)
		return false
	}
	b.fitAttempts++
	attempt := b.fitAttempts
	// Offset the detached model's seed by the retrain ordinal so every
	// draw starts from a fresh initialization, as the in-place Fit's
	// internal seed bump would have provided.
	seed := b.Cfg.Seed + int64(b.trainCount+1)*997
	b.mu.Unlock()
	tr.AddSpan("sample", sampleStart, time.Since(sampleStart),
		fmt.Sprintf("train=%d holdout=%d", len(trees), len(valTrees)))
	fitStart := time.Now()
	fresh, epochs, wall, err := b.fitDetached(attempt, seed, trees, secs, crit)
	tr.AddSpan("fit", fitStart, time.Since(fitStart), fmt.Sprintf("samples=%d epochs=%d", len(trees), epochs))
	if err != nil {
		o.TrainerPanics.Inc()
		b.breaker.ModelFailure("trainer-panic")
		o.Emit(obs.Event{Kind: obs.EventTrainerPanic, Detail: err.Error(),
			TraceID: cause.TraceID, RequestID: cause.RequestID})
		o.FinishTrace(tr)
		return false
	}
	validateStart := time.Now()
	verdict := b.validateCandidate(fresh, valTrees, valSecs, trees)
	tr.AddSpan("validate", validateStart, time.Since(validateStart), verdict.Reason)
	if !verdict.OK {
		o.RetrainRejected.Inc()
		b.breaker.ModelFailure("candidate-rejected: " + verdict.Reason)
		o.Emit(obs.Event{Kind: obs.EventSwapRejected, Detail: verdict.Reason,
			TraceID: cause.TraceID, RequestID: cause.RequestID})
		o.FinishTrace(tr)
		return false
	}
	b.breaker.ModelAccepted()
	swapStart := time.Now()
	b.mu.Lock()
	b.Model = fresh
	b.finishRetrainLocked(fresh, len(trees), epochs, wall)
	b.mu.Unlock()
	tr.AddSpan("swap", swapStart, time.Since(swapStart), "")
	o.Emit(obs.Event{Kind: obs.EventSwapAccepted,
		Detail:  fmt.Sprintf("samples=%d epochs=%d", len(trees), epochs),
		TraceID: cause.TraceID, RequestID: cause.RequestID,
		Secs: wall})
	o.FinishTrace(tr)
	return true
}

// fitDetached fits a fresh candidate model off-lock, converting a panic
// in the fit — real, or injected via Cfg.Fault — into an error: a
// crashing trainer must degrade to "no new model this round", never take
// the serving process down with it.
func (b *Bao) fitDetached(attempt int, seed int64, trees []*nn.Tree, secs []float64, crit map[string][]Experience) (m model.Model, epochs int, wall float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, epochs, wall = nil, 0, 0
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
	fresh := b.newDetachedModel(seed)
	start := time.Now()
	epochs = fresh.Fit(trees, secs)
	epochs += enforceCriticalOn(fresh, trees, secs, crit)
	wall = time.Since(start).Seconds()
	if f != nil && f.NaNOnFit == attempt {
		fresh = guard.NaNModel{Model: fresh}
	}
	return fresh, epochs, wall, nil
}

// validateCandidate judges a fitted candidate before the hot-swap. With
// the gate disabled every candidate passes (the pre-guard behavior);
// enabled, the candidate is scored on the held-out slice against the
// incumbent — or, when no holdout accumulated yet, probed on a handful
// of training trees for prediction finiteness alone.
func (b *Bao) validateCandidate(cand model.Model, valTrees []*nn.Tree, valSecs []float64, trainTrees []*nn.Tree) guard.Verdict {
	if !b.Cfg.Validate.Enabled {
		return guard.Verdict{OK: true, Reason: "validation-disabled"}
	}
	trees, secs := valTrees, valSecs
	var incumbent guard.Predictor
	if len(trees) == 0 {
		probe := len(trainTrees)
		if probe > 32 {
			probe = 32
		}
		trees, secs = trainTrees[:probe], nil
	} else {
		b.mu.RLock()
		if b.trained {
			incumbent = b.Model
		}
		b.mu.RUnlock()
	}
	return guard.ValidateCandidate(cand, incumbent, trees, secs, b.Cfg.Validate)
}

// newDetachedModel builds a value model identical in kind to the one New
// installed, for RetrainAsync to fit off-lock.
func (b *Bao) newDetachedModel(seed int64) model.Model {
	var m model.Model
	if b.Cfg.NewModel != nil {
		m = b.Cfg.NewModel()
	} else {
		m = model.NewTCNN(FeatureDim, b.Cfg.Train, seed)
	}
	if w, ok := m.(interface{ SetWorkers(int) }); ok {
		w.SetWorkers(b.Cfg.Workers)
	}
	return m
}

// enforceCriticalOn refits m with exponentially growing weight on
// mispredicted critical experiences until the model selects the truly
// fastest arm for every critical query (bounded rounds). Returns extra
// epochs used.
func enforceCriticalOn(m model.Model, baseTrees []*nn.Tree, baseSecs []float64, crit map[string][]Experience) int {
	if len(crit) == 0 {
		return 0
	}
	extra := 0
	weight := 1
	for round := 0; round < 5; round++ {
		bad := mispredictedCriticalOn(m, crit)
		if len(bad) == 0 {
			return extra
		}
		weight *= 2
		trees := append([]*nn.Tree{}, baseTrees...)
		secs := append([]float64{}, baseSecs...)
		for _, key := range bad {
			for _, e := range crit[key] {
				for w := 0; w < weight; w++ {
					trees = append(trees, e.Tree)
					secs = append(secs, e.Secs)
				}
			}
		}
		extra += m.Fit(trees, secs)
	}
	return extra
}

// mispredictedCritical returns the keys of critical queries for which the
// current model's chosen arm is materially slower than the
// observed-fastest arm.
func (b *Bao) mispredictedCritical() []string {
	b.mu.RLock()
	m := b.Model
	crit := make(map[string][]Experience, len(b.critical))
	for k, v := range b.critical {
		crit[k] = v
	}
	b.mu.RUnlock()
	return mispredictedCriticalOn(m, crit)
}

// mispredictedCriticalOn returns the keys of critical queries for which
// m's chosen arm is materially slower than the observed-fastest arm.
// (Several arms often yield the same physical plan — and therefore the
// same prediction — so exact argmin agreement is too strict; what matters
// is that the selected plan performs like the best one.)
func mispredictedCriticalOn(m model.Model, crit map[string][]Experience) []string {
	var bad []string
	for key, exps := range crit {
		if len(exps) < 2 {
			continue
		}
		trees := make([]*nn.Tree, len(exps))
		bestObs := 0
		for i, e := range exps {
			trees[i] = e.Tree
			if e.Secs < exps[bestObs].Secs {
				bestObs = i
			}
		}
		preds := m.Predict(trees)
		bestPred := 0
		for i, p := range preds {
			if p < preds[bestPred] {
				bestPred = i
			}
		}
		if exps[bestPred].Secs > 1.2*exps[bestObs].Secs+1e-3 {
			bad = append(bad, key)
		}
	}
	return bad
}

// SaveModel persists the trained value model so a deployment can restart
// without relearning (pair with LoadModel). Only the model is saved; the
// experience window is rebuilt from live traffic. The read lock is held
// for the duration of the write, which excludes an inline Retrain from
// mutating the model mid-save (an async retrain fits a detached model and
// only its brief swap waits on us).
func (b *Bao) SaveModel(w io.Writer) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	tm, ok := b.Model.(*model.TCNNModel)
	if !ok {
		return fmt.Errorf("core: only the TCNN model supports persistence (have %s)", b.Model.Name())
	}
	return tm.Save(w)
}

// LoadModel restores a value model saved with SaveModel and marks Bao as
// trained, so arm selection starts immediately. The saved weights are
// loaded into a detached model which is then swapped in under the write
// lock, so in-flight Selects keep predicting with the previous model and
// never observe a half-restored network.
func (b *Bao) LoadModel(r io.Reader) error {
	fresh := b.newDetachedModel(b.Cfg.Seed)
	tm, ok := fresh.(*model.TCNNModel)
	if !ok {
		return fmt.Errorf("core: only the TCNN model supports persistence (have %s)", fresh.Name())
	}
	if err := tm.Load(r); err != nil {
		return err
	}
	b.mu.Lock()
	b.Model = fresh
	b.trained = true
	b.trainCount = maxInt(b.trainCount, b.Cfg.ArmWarmup)
	b.publishModelLocked()
	b.mu.Unlock()
	return nil
}

// publishModelLocked records that a new set of model weights became
// visible to selections (accepted or inline retrain, checkpoint restore):
// the model version advances, which retires every cached prediction, and
// the plan cache is flushed eagerly so a generation bump invalidates
// rather than merely bypasses. Callers hold b.mu.
func (b *Bao) publishModelLocked() {
	b.modelVersion++
	if b.pcache != nil {
		b.pcache.flush()
	}
}

// ModelVersion returns the count of model publications so far (0 before
// the first retrain or restore). Cached predictions are keyed on it; the
// serving layer's bao_model_generation gauge moves in lockstep.
func (b *Bao) ModelVersion() uint64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.modelVersion
}

// PlanCacheStats returns the plan cache's resident entry count and
// approximate bytes (zeros when the cache is disabled).
func (b *Bao) PlanCacheStats() (entries int, bytes int64) {
	if b.pcache == nil {
		return 0, 0
	}
	return b.pcache.stats()
}

// FlushPlanCache drops every plan-cache entry. No-op when disabled.
func (b *Bao) FlushPlanCache() {
	if b.pcache != nil {
		b.pcache.flush()
	}
}

// MarkCritical registers a query for triggered exploration.
func (b *Bao) MarkCritical(sql string) {
	b.mu.Lock()
	b.markedCrit[sql] = sql
	b.mu.Unlock()
}

// ExploreCritical executes every marked query under every arm, storing the
// flagged experiences that Retrain will always honor. It returns the total
// counters spent, so callers can bill the exploration. Execution runs on
// the shared engine, so like Run this must not race other executions; the
// serving layer serializes it behind its execution lock.
func (b *Bao) ExploreCritical() (executor.Counters, error) {
	return b.ExploreCriticalCtx(context.Background())
}

// ExploreCriticalCtx is ExploreCritical under a context: exploration
// checks cancellation between arms and inside each arm's execution, and an
// aborted exploration stores nothing for the query being explored (a
// critical set is only useful complete — a partial set would bias the
// enforcement loop toward whichever arms happened to run). Queries are
// explored in sorted key order, so buffer-pool residency — and with it the
// cache-aware features of the recorded experiences — repeats run to run.
func (b *Bao) ExploreCriticalCtx(ctx context.Context) (executor.Counters, error) {
	b.mu.RLock()
	marked := make(map[string]string, len(b.markedCrit))
	keys := make([]string, 0, len(b.markedCrit))
	for k, v := range b.markedCrit {
		marked[k] = v
		keys = append(keys, k)
	}
	b.mu.RUnlock()
	sort.Strings(keys)
	hints := b.armHints(len(b.Cfg.Arms))
	var total executor.Counters
	for _, key := range keys {
		q, err := b.Eng.AnalyzeSQL(marked[key])
		if err != nil {
			return total, err
		}
		plans, _, err := b.Eng.Opt.PlanArms(ctx, q, hints)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return total, fmt.Errorf("core: exploration cancelled: %w", cerr)
			}
			return total, err
		}
		exps := make([]Experience, 0, len(plans))
		for i, n := range plans {
			if err := ctx.Err(); err != nil {
				return total, fmt.Errorf("core: exploration cancelled: %w", err)
			}
			tree := b.Feat.Vectorize(n)
			res, err := b.Eng.ExecuteCtx(ctx, n)
			if err != nil {
				return total, err
			}
			total.Add(res.Counters)
			exps = append(exps, Experience{
				Tree: tree, Secs: b.Cfg.Metric.Value(res.Counters),
				ArmID: b.Cfg.Arms[i].ID, Key: key, Critical: true,
			})
		}
		b.mu.Lock()
		b.critical[key] = exps
		hook := b.critHook
		b.mu.Unlock()
		if hook != nil {
			hook(key, exps)
		}
	}
	return total, nil
}

// Run is the full per-query lifecycle: select (or fall back to the default
// optimizer when disabled), execute, observe. It returns the engine result
// and the selection made.
func (b *Bao) Run(sql string) (*engine.Result, *Selection, error) {
	return b.RunCtx(context.Background(), sql)
}

// RunCtx is Run under a context. When the context carries a deadline and
// execution blows past it, the query stops within one cancellation-check
// interval, a censored experience is recorded at the deadline's
// simulated-clock budget (see ObserveTimeout), and the typed
// executor.ErrDeadlineExceeded — carrying the partial work counters — is
// returned alongside the selection. A cancellation without a deadline
// (caller gone) records nothing.
func (b *Bao) RunCtx(ctx context.Context, sql string) (*engine.Result, *Selection, error) {
	var budget float64
	if dl, ok := ctx.Deadline(); ok {
		budget = cloud.DeadlineBudgetSecs(time.Until(dl))
	}
	if !b.Enabled || b.AdvisorMode {
		// Default optimizer path; advisor mode still learns off-policy.
		q, err := b.Eng.AnalyzeSQL(sql)
		if err != nil {
			return nil, nil, err
		}
		n, cands, err := b.Eng.Plan(q, planner.AllOn())
		if err != nil {
			return nil, nil, err
		}
		res, err := b.Eng.ExecuteCtx(ctx, n)
		if err != nil {
			return nil, nil, err
		}
		res.PlanCandidates = cands
		if b.AdvisorMode {
			b.AddExternalExperience(n, res.Counters)
		}
		return res, nil, nil
	}
	sel, err := b.SelectCtx(ctx, sql)
	if err != nil {
		return nil, nil, err
	}
	if sel.Trace != nil && budget > 0 {
		sel.Trace.DeadlineSecs = budget
	}
	execStart := time.Now()
	res, err := b.Eng.ExecuteCtx(ctx, sel.Plans[sel.ArmID])
	if err != nil {
		if errors.Is(err, executor.ErrDeadlineExceeded) && budget > 0 &&
			errors.Is(err, context.DeadlineExceeded) {
			sel.Trace.AddSpan("execute", execStart, time.Since(execStart), "deadline exceeded")
			b.ObserveTimeout(sel, budget)
		} else {
			b.Abandon(sel, err.Error())
		}
		return nil, sel, err
	}
	if sel.Trace != nil {
		sel.Trace.AddSpan("execute", execStart, time.Since(execStart),
			fmt.Sprintf("simulated_secs=%.6f", b.Cfg.Metric.Value(res.Counters)))
	}
	b.Observe(sel, res.Counters)
	return res, sel, nil
}

// Observer returns the observability sink this Bao records into.
func (b *Bao) Observer() *obs.Observer { return b.observer }

// Breaker returns the default-plan circuit breaker, or nil when
// Cfg.Breaker.Enabled is false (all guard methods are nil-safe).
func (b *Bao) Breaker() *guard.Breaker { return b.breaker }

// Stats snapshots every metric in this Bao's observer — the programmatic
// equivalent of scraping its /metrics endpoint.
func (b *Bao) Stats() obs.Snapshot { return b.observer.Snapshot() }

// Advice is advisor-mode EXPLAIN enrichment (Figure 6).
type Advice struct {
	DefaultPredSecs float64
	BestArm         Arm
	BestPredSecs    float64
	ImprovementSecs float64
}

// Advise predicts the default plan's performance and the best hint set for
// a query without executing anything. When there are no predictions to
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
	best := 0
	for i, p := range sel.Preds {
		if p < sel.Preds[best] {
			best = i
		}
	}
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
