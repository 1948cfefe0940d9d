package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
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
	// Workers bounds the goroutines model training splits mini-batches
	// across (it fills Train.Workers when that is unset). A selection —
	// one join enumeration for every arm, dedup, featurization, TCNN
	// inference — runs on the caller's goroutine; the time the paper's
	// parallel planners would take is modelled analytically by
	// cloud.BaoPlanSeconds. Zero or negative means one worker per CPU; one
	// forces fully sequential training. Results are bit-identical at every
	// worker count.
	Workers int
	// PlanCache enables the text-keyed plan cache: the work of a selection
	// — analyzed query, planned arm set, dedup groups, featurized tensors,
	// and predictions — is cached keyed by the exact SQL text and checked
	// against (model version, catalog version, statistics epoch), so a
	// repeated text costs one map lookup plus the argmin instead of a
	// parse, 49 planner invocations and a forward pass. Entries invalidate
	// lazily on any DDL (catalog version), ANALYZE (statistics epoch), and
	// eagerly on model publication (retrain hot-swap or checkpoint
	// restore). Cached and uncached selections are byte-identical at any
	// worker count. Off by default (the cmd layer turns it on for serving).
	PlanCache bool
	// PlanCacheSize bounds the cache's entry count (0 = 512). The cache is
	// additionally bounded by PlanCacheBytes (0 = 64 MiB), the approximate
	// resident bytes of the cached tensors; the LRU evicts until both
	// bounds hold.
	PlanCacheSize  int
	PlanCacheBytes int64
	// Deprecated: InferBatch is read by nothing; TCNN inference always
	// runs on the selecting goroutine. It stays only because
	// benchmark/miss_select.go:50 still sets it, and goes with that line.
	InferBatch int
	// Breaker configures the default-plan circuit breaker: when the
	// learned path repeatedly regresses against the default arm, a
	// planner worker panics, or predictions go degenerate, Select serves
	// the default (unhinted) arm for a cool-down before probing its way
	// back — the paper's "never far worse than the underlying optimizer"
	// guarantee enforced at serving time. Off by default.
	Breaker guard.BreakerConfig
	// Validate configures the validation gate every retrain applies before
	// swapping a candidate model in: the candidate is scored on a
	// held-out slice of the experience window and rejected (keeping the
	// incumbent) when it regresses past the threshold or predicts
	// non-finite values. Off by default.
	Validate guard.ValidateConfig
	// Fault injects deterministic guard faults (fit panics, NaN models,
	// planner panics) for tests and the chaos harness. Nil in production.
	Fault *guard.Fault
	// NewModel overrides the value model (Figure 15a swaps in RF/Linear).
	// It is called once per draw with that draw's seed and must return a
	// model nothing else holds. When nil a TCNN is used.
	NewModel func(seed int64) model.Model
	// Observer is the observability sink (metrics + decision traces).
	// When nil the process-wide obs.Default() is used; obs.Disabled()
	// turns instrumentation into no-ops.
	Observer *obs.Observer
	// QueryTimeout is RunCtx's per-query execution deadline (zero = none),
	// started once the query holds the execution lane. A query that runs
	// past it is recorded as a censored experience at
	// cloud.DeadlineBudgetSecs(QueryTimeout) — a function of this value
	// alone, so the recorded observation is reproducible (see RunCtx).
	QueryTimeout time.Duration
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

// Selection is the outcome of Bao's per-query arm choice. Query, Plans
// and Candidates may be shared with the plan cache, and through it with
// every other selection of the same SQL text: they are read-only.
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
}

// recentKeep is how many of the newest experiences are always included in
// a retrain alongside the bootstrap sample.
const recentKeep = 8

// Gross-misprediction thresholds (§3.2 "learns from its mistakes"): an
// execution observed more than grossMispredRatio times its prediction AND
// slower than grossMispredFloorSecs in absolute terms indicts the model.
// The breaker's serving-regression check shares the floor, so noise on
// sub-millisecond queries can never trip anything.
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
// Concurrency: every method is safe for concurrent use. What a selection
// reads about the learned side — model, version, warm-up arm family — is
// one immutable banditState behind an atomic pointer, so Select, Advise
// and the accessors take no lock and never wait on training or on an
// observation. A retrain (Retrain inline, RetrainAsyncFor from the serving
// layer's trainer) draws its sample under b.mu, fits a fresh model with no
// lock held, and publishes it; a published model is never written again.
// b.mu guards only the experience window, the critical-query registry,
// the retrain schedule, the hooks and the last train event. Engine
// execution runs on one execution lane (lane): the engine bills each
// query the delta of shared cumulative counters and the buffer pool
// mutates per execution, so RunCtx and ExploreCriticalCtx serialize their
// executions on it while selections stay concurrent. A caller that
// executes on Eng itself (Select, Eng.Execute, Observe) must not do so
// beside them.
type Bao struct {
	Cfg Config
	Eng *engine.Engine
	// Model is the published value model, for single-threaded inspection
	// (harnesses, the benchmark). The bandit reads state, which
	// publishLocked keeps pointing at the same model.
	Model model.Model
	Feat  Featurizer

	// AdvisorMode keeps observing executions for training while never
	// steering plans (§4): Run executes the engine's default plan.
	AdvisorMode bool

	// lane is the single execution lane (see the concurrency note above).
	lane sync.Mutex

	// Fixed by New: the sink, the two arm families a state can offer, and
	// every arm's hint set in arm order (what the planner takes).
	observer   *obs.Observer
	warmupArms []int // Cfg.Arms indices selectable during warm-up
	allArms    []int // every Cfg.Arms index
	hints      []planner.Hints

	// state is the published bandit state; only publishLocked stores it.
	state atomic.Pointer[banditState]
	// windowLen mirrors len(exp) for lock-free readers (maintained by
	// addExperienceLocked).
	windowLen atomic.Int64

	// mu guards the mutable fields below, and serializes publications.
	mu          sync.RWMutex
	exp         []Experience
	critical    map[string][]Experience
	markedCrit  map[string]string // key → SQL
	queriesSeen int
	sinceTrain  int
	fitAttempts int // retrain attempts, including rejected/panicked ones
	fits        int // Fit calls so far (enforcement refits included); seeds inline draws
	rng         *rand.Rand

	// pcache is the text-keyed plan cache; nil unless
	// Cfg.PlanCache. It has its own lock (never held together with mu
	// except briefly inside model-publication flushes, b.mu → pcache.mu).
	pcache *planCache
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
	// lastTrain is the newest accepted retrain's cost record.
	lastTrain TrainEvent
}

// banditState is everything a selection reads about the learned side of
// the bandit, published whole: a reader that loaded it sees one model with
// the version, training count and selectable arms that went with it.
// Immutable once stored — including the model, which is never fitted
// again.
type banditState struct {
	model   model.Model
	trained bool
	// version counts model publications (accepted retrains, checkpoint
	// restores). Cached predictions are tagged with the version they were
	// computed under and a mismatch forces a fresh forward pass, so a
	// selection can never serve a superseded model's predictions out of
	// the plan cache.
	version    uint64
	trainCount int
	warm       bool  // arm selection restricted to the warm-up family
	arms       []int // selectable Cfg.Arms indices (shared, never written)
}

// publishLocked is the one place a model becomes visible to selections
// (New's untrained model, an accepted retrain, a checkpoint restore): it
// builds and stores the next banditState, advancing the version — which
// retires every cached prediction — and flushes the plan cache eagerly so
// a generation bump invalidates rather than merely bypasses. Callers hold
// b.mu (New excepted: nothing else can see b yet).
func (b *Bao) publishLocked(m model.Model, trained bool, trainCount int) {
	st := &banditState{model: m, trained: trained, trainCount: trainCount, arms: b.allArms}
	if b.Cfg.ArmWarmup > 0 && trainCount < b.Cfg.ArmWarmup && len(b.warmupArms) > 0 {
		st.warm, st.arms = true, b.warmupArms
	}
	if prev := b.state.Load(); prev != nil {
		st.version = prev.version + 1
	}
	b.Model = m
	b.state.Store(st)
	if b.pcache != nil {
		b.pcache.flush()
	}
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
	b := &Bao{
		Cfg:        cfg,
		Eng:        eng,
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
	b.allArms = make([]int, len(cfg.Arms))
	b.hints = make([]planner.Hints, len(cfg.Arms))
	for i, arm := range cfg.Arms {
		b.allArms[i], b.hints[i] = i, arm.Hints
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
	b.publishLocked(b.newDetachedModel(cfg.Seed), false, 0)
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
func (b *Bao) Trained() bool { return b.state.Load().trained }

// ExperienceSize returns the number of windowed experiences.
func (b *Bao) ExperienceSize() int { return int(b.windowLen.Load()) }

// TrainCount returns the number of completed retrains.
func (b *Bao) TrainCount() int { return b.state.Load().trainCount }

// LastTrain returns the newest accepted retrain's cost record (zero before
// the first).
func (b *Bao) LastTrain() TrainEvent {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.lastTrain
}

// ModelVersion returns the count of model publications so far (0 before
// the first retrain or restore). Cached predictions are keyed on it; the
// serving layer's bao_model_generation gauge moves in lockstep.
func (b *Bao) ModelVersion() uint64 { return b.state.Load().version }

// WindowCap returns the configured (clamped) experience-window capacity
// — the most experiences the sliding window ever holds. The serving
// layer sizes its durable-log shadow window from this so a recovered
// window is never under-filled relative to the live one.
func (b *Bao) WindowCap() int { return b.Cfg.WindowSize }

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
// exploration set ExploreCritical stores. fn runs while the exploration
// holds the execution lane, so it must not execute through b. Pass nil to
// unregister.
func (b *Bao) SetCriticalHook(fn func(key string, exps []Experience)) {
	b.mu.Lock()
	b.critHook = fn
	b.mu.Unlock()
}

// SaveModel persists the trained value model so a deployment can restart
// without relearning (pair with LoadModel). Only the model is saved; the
// experience window is rebuilt from live traffic. No lock is needed: a
// published model is immutable.
func (b *Bao) SaveModel(w io.Writer) error {
	m := b.state.Load().model
	tm, ok := m.(*model.TCNNModel)
	if !ok {
		return fmt.Errorf("core: only the TCNN model supports persistence (have %s)", m.Name())
	}
	return tm.Save(w)
}

// LoadModel restores a value model saved with SaveModel and marks Bao as
// trained, so arm selection starts immediately. The saved weights are
// loaded into a detached model which is then published whole, so
// in-flight Selects keep predicting with the previous model and never
// observe a half-restored network.
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
	b.publishLocked(fresh, true, max(b.state.Load().trainCount, b.Cfg.ArmWarmup))
	b.mu.Unlock()
	return nil
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

// Run is RunCtx for a caller that never goes away.
func (b *Bao) Run(sql string) (*engine.Result, *Selection, error) {
	return b.RunCtx(context.Background(), sql)
}

// RunCtx is the one per-query lifecycle: select, execute on the execution
// lane under Cfg.QueryTimeout, and record exactly one outcome.
//
//   - Completed: the execution is observed (Observe) and its result
//     returned with the selection.
//   - Censored: execution ran past Cfg.QueryTimeout. It stops within one
//     cancellation-check interval, an "execute" span and a censored
//     experience at cloud.DeadlineBudgetSecs(Cfg.QueryTimeout) are recorded
//     (ObserveTimeout), and the *executor.DeadlineExceededError carrying the
//     partial work counters is returned with the selection. RunCtx returns
//     that error type for this outcome only.
//   - Abandoned: ctx is the caller's lifetime. Once it is cancelled or
//     expires — during selection, before or during execution, or before the
//     observation — Abandon runs, nothing is recorded, and the error
//     returned is ctx's (or, from selection, one wrapping it). The caller
//     being gone wins over every other outcome.
//   - Failed: any other selection error is returned with no selection; any
//     other execution error abandons the selection and is returned with it.
//
// In AdvisorMode the engine's default plan runs on the same lane and
// deadline and is learned from off-policy; no selection is returned.
func (b *Bao) RunCtx(ctx context.Context, sql string) (*engine.Result, *Selection, error) {
	if b.AdvisorMode {
		q, err := b.Eng.AnalyzeSQL(sql)
		if err != nil {
			return nil, nil, err
		}
		n, cands, err := b.Eng.Plan(q, planner.AllOn())
		if err != nil {
			return nil, nil, err
		}
		res, err := b.execute(ctx, n)
		if err != nil {
			return nil, nil, err
		}
		res.PlanCandidates = cands
		b.AddExternalExperience(n, res.Counters)
		return res, nil, nil
	}
	sel, err := b.SelectCtx(ctx, sql)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			b.Abandon(nil, "select abandoned: "+cerr.Error())
		}
		return nil, nil, err
	}
	// Don't take the execution lane for a caller that is already gone.
	if cerr := ctx.Err(); cerr != nil {
		b.Abandon(sel, "abandoned before execute: "+cerr.Error())
		return nil, sel, cerr
	}
	budget := cloud.DeadlineBudgetSecs(b.Cfg.QueryTimeout)
	if sel.Trace != nil && budget > 0 {
		sel.Trace.DeadlineSecs = budget
	}
	execStart := time.Now()
	res, err := b.execute(ctx, sel.Plans[sel.ArmID])
	if err == nil && sel.Trace != nil {
		sel.Trace.AddSpan("execute", execStart, time.Since(execStart),
			fmt.Sprintf("simulated_secs=%.6f", b.Cfg.Metric.Value(res.Counters)))
	}
	if cerr := ctx.Err(); cerr != nil {
		// Whichever deadline tripped, the caller is gone: drop all signal,
		// including a completed execution's.
		reason := "observation dropped: "
		if err != nil {
			reason = "execution abandoned: "
		}
		b.Abandon(sel, reason+cerr.Error())
		return nil, sel, cerr
	}
	var de *executor.DeadlineExceededError
	switch {
	case errors.As(err, &de):
		sel.Trace.AddSpan("execute", execStart, time.Since(execStart), "deadline exceeded")
		b.ObserveTimeout(sel, budget)
		return nil, sel, err
	case err != nil:
		b.Abandon(sel, "execute failed: "+err.Error())
		return nil, sel, err
	}
	b.Observe(sel, res.Counters)
	return res, sel, nil
}

// execute runs plan on the execution lane, under Cfg.QueryTimeout when set.
// The deadline starts once the lane is held, so time spent queueing behind
// other executions never counts against a query's budget.
func (b *Bao) execute(ctx context.Context, plan *planner.Node) (*engine.Result, error) {
	b.lane.Lock()
	defer b.lane.Unlock()
	if b.Cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, b.Cfg.QueryTimeout)
		defer cancel()
	}
	return b.Eng.ExecuteCtx(ctx, plan)
}

// Observer returns the observability sink this Bao records into.
func (b *Bao) Observer() *obs.Observer { return b.observer }

// Breaker returns the default-plan circuit breaker, or nil when
// Cfg.Breaker.Enabled is false (all guard methods are nil-safe).
func (b *Bao) Breaker() *guard.Breaker { return b.breaker }

// Stats snapshots every metric in this Bao's observer — the programmatic
// equivalent of scraping its /metrics endpoint.
func (b *Bao) Stats() obs.Snapshot { return b.observer.Snapshot() }
