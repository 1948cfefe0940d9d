package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Observer bundles every metric handle the Bao decision loop records,
// plus an optional trace ring. A zero Observer (see Disabled) has nil
// handles throughout; since all metric methods are nil-safe, that makes
// instrumentation free when observability is off.
//
// Tracing is off until EnableTracing is called (Serve does so
// automatically): with no listener attached the per-query cost is a
// handful of atomic adds and no allocations.
type Observer struct {
	Reg *Registry

	// Decision-loop counters and gauges.
	Queries     *Counter    // bao_queries_total
	ArmSelected *CounterVec // bao_arm_selected_total{arm}
	ArmRegret   *CounterVec // bao_arm_regret_seconds_total{arm}
	External    *Counter    // bao_external_experiences_total
	Window      *Gauge      // bao_experience_window
	// PlansDeduped counts arm plans that collapsed onto an already-seen
	// plan this query and therefore skipped featurization and inference.
	PlansDeduped *Counter // bao_plans_deduped_total

	// Plan cache (text-keyed select cache) and the cross-request
	// inference micro-batcher.
	PlanCacheHits      *Counter   // bao_plancache_hits_total
	PlanCacheMisses    *Counter   // bao_plancache_misses_total
	PlanCacheEvictions *Counter   // bao_plancache_evictions_total
	PlanCacheEntries   *Gauge     // bao_plancache_entries
	PlanCacheBytes     *Gauge     // bao_plancache_bytes
	InferBatchSize     *Histogram // bao_infer_batch_size

	// Selection latency: per stage of SelectCtx (parse, plancache,
	// plan_arms, featurize, infer, select_arm — the stages tile the
	// selection) and whole; the observed metric per executed query.
	SelectStage   *HistogramVec // bao_select_stage_seconds{stage}
	SelectSeconds *Histogram    // bao_selection_seconds (whole Select, wall)
	ExecSeconds   *Histogram    // bao_execution_seconds (observed metric)

	// Prediction calibration and the mistake-driven retrain loop.
	Calibration   *HistogramVec // bao_prediction_ratio{arm} (observed/predicted)
	CalibDrift    *Gauge        // bao_calibration_drift_log_ratio
	GrossMispred  *Counter      // bao_gross_mispredictions_total
	EarlyRetrains *Counter      // bao_early_retrains_total

	// Regret against the default arm, cumulative and over the ledger's
	// sliding window: the "never much worse than the default" signal.
	// Regret against the best arm lives in /debug/regret only, beside the
	// true_baseline flag that says whether "best" was measured or is the
	// model's own prediction.
	RegretVsDefault *Gauge // bao_regret_vs_default_seconds
	RegretWinDef    *Gauge // bao_regret_window_vs_default_seconds

	// Queries cancelled at their deadline (each recorded as a censored,
	// lower-bound experience).
	QueryTimeouts *Counter // bao_query_timeouts_total

	// Training. HotSwaps counts accepted fits, each one a model swapped in
	// (under the server, by the async trainer).
	HotSwaps       *Counter // bao_retrains_total
	RetrainSeconds *Counter // bao_retrain_wall_seconds_total
	TrainEpochs    *Counter // bao_train_epochs_total
	TrainLoss      *Gauge   // bao_train_loss
	TrainSamples   *Gauge   // bao_train_samples

	// Serving layer (internal/server): admission control, the async
	// trainer, and the durable experience log.
	ServeInFlight    *Gauge     // bao_server_inflight
	ServeThrottled   *Counter   // bao_server_throttled_total
	ServeSeconds     *Histogram // bao_server_request_seconds
	TrainerLag       *Gauge     // bao_server_trainer_lag_seconds
	RetrainCoalesced *Counter   // bao_server_retrains_coalesced_total
	LogRecords       *Counter   // bao_server_explog_records_total
	LogBytes         *Counter   // bao_server_explog_bytes_total
	LogReplayed      *Counter   // bao_server_explog_replayed_total
	LogSkipped       *Counter   // bao_server_explog_skipped_total
	ServeAbandoned   *Counter   // bao_server_abandoned_total

	// Segmented experience log: rotation, snapshot-anchored compaction,
	// and read-only durability degradation (internal/server.ExperienceLog).
	LogSeals        *Counter // bao_explog_seals_total
	LogSegments     *Gauge   // bao_explog_segments
	LogSnapshots    *Counter // bao_explog_snapshots_total
	LogSnapshotErrs *Counter // bao_explog_snapshot_errors_total
	LogSnapshotSeq  *Gauge   // bao_explog_snapshot_seq
	LogCompacted    *Counter // bao_explog_segments_compacted_total
	LogDropped      *Counter // bao_explog_dropped_total
	LogDegradedG    *Gauge   // bao_explog_degraded
	LogReopenProbes *Counter // bao_explog_reopen_probes_total

	// Guard subsystem (internal/guard): validation-gated hot-swap,
	// versioned checkpoints with rollback, and the default-plan circuit
	// breaker — the degradation ladder keeping Bao never far worse than
	// the underlying optimizer.
	RetrainRejected     *Counter // bao_retrain_rejected_total
	BreakerState        *Gauge   // bao_breaker_state (0 closed, 1 open, 2 half-open)
	BreakerTrips        *Counter // bao_breaker_trips_total
	BreakerDefault      *Counter // bao_breaker_default_served_total
	ModelGeneration     *Gauge   // bao_model_generation
	CheckpointsSaved    *Counter // bao_checkpoints_saved_total
	CheckpointRollbacks *Counter // bao_checkpoint_rollbacks_total
	CheckpointErrors    *Counter // bao_checkpoint_save_errors_total
	NonFiniteTargets    *Counter // bao_nonfinite_targets_total
	NonFinitePreds      *Counter // bao_nonfinite_predictions_total
	TrainerPanics       *Counter // bao_trainer_panics_total
	PlannerPanics       *Counter // bao_planner_panics_total

	// Fleet serving: the multi-tenant shard layer (internal/server.Shard)
	// and the consistent-hash router (internal/router). Tenant labels make
	// one shard's /metrics separable per tenant; shard labels make the
	// router's traffic separable per backend.
	TenantRequests    *CounterVec // bao_shard_tenant_requests_total{tenant}
	TenantActivations *Counter    // bao_shard_tenant_activations_total
	TenantEvictions   *Counter    // bao_shard_tenant_evictions_total
	TenantRehydrated  *Counter    // bao_shard_tenant_rehydrations_total
	TenantsResident   *Gauge      // bao_shard_tenants_resident
	TenantBytes       *Gauge      // bao_shard_resident_bytes
	TenantActivateSec *Histogram  // bao_shard_tenant_activation_seconds
	RouterRequests    *CounterVec // bao_router_requests_total{shard}
	RouterErrors      *CounterVec // bao_router_proxy_errors_total{shard}
	RouterSeconds     *Histogram  // bao_router_request_seconds
	RouterHealthy     *Gauge      // bao_router_shards_healthy
	RouterRehashes    *Counter    // bao_router_ring_rehashes_total
	RouterFailovers   *Counter    // bao_router_failovers_total

	// Execution work counters (from executor.Counters) and buffer pool.
	ExecCPUOps     *Counter // bao_exec_cpu_ops_total
	ExecPageHits   *Counter // bao_exec_page_hits_total
	ExecPageMisses *Counter // bao_exec_page_misses_total
	ExecRandReads  *Counter // bao_exec_rand_reads_total
	ExecRowsOut    *Counter // bao_exec_rows_out_total
	PoolHits       *Gauge   // bao_bufferpool_hits
	PoolMisses     *Gauge   // bao_bufferpool_misses
	PoolHitRate    *Gauge   // bao_bufferpool_hit_rate

	ring    atomic.Pointer[TraceRing]
	journal atomic.Pointer[EventJournal]
	ledger  *RegretLedger
	drift   *driftWindow
}

// NewObserver registers the full Bao metric set on reg (get-or-create,
// so several observers can share one registry) and attaches ring when
// non-nil. reg must not be nil; use Disabled for a no-op observer.
func NewObserver(reg *Registry, ring *TraceRing) *Observer {
	lat := LatencyBuckets()
	o := &Observer{
		Reg: reg,

		Queries:      reg.Counter("bao_queries_total", "Queries run through Bao's select-execute-observe loop."),
		ArmSelected:  reg.CounterVec("bao_arm_selected_total", "Per-arm selection counts.", "arm"),
		ArmRegret:    reg.CounterVec("bao_arm_regret_seconds_total", "Per-arm accumulated positive (observed - predicted) seconds; the model's realized optimism.", "arm"),
		External:     reg.Counter("bao_external_experiences_total", "Off-policy experiences added (advisor mode, DBA plans)."),
		Window:       reg.Gauge("bao_experience_window", "Experiences currently in the sliding window."),
		PlansDeduped: reg.Counter("bao_plans_deduped_total", "Arm plans that duplicated another arm's plan and skipped featurization+inference."),

		PlanCacheHits:      reg.Counter("bao_plancache_hits_total", "Selections served from the text-keyed plan cache (parsing, planning and dedup skipped)."),
		PlanCacheMisses:    reg.Counter("bao_plancache_misses_total", "Selections that planned all arms because no valid cache entry existed."),
		PlanCacheEvictions: reg.Counter("bao_plancache_evictions_total", "Plan-cache entries evicted to respect the entry or byte bound."),
		PlanCacheEntries:   reg.Gauge("bao_plancache_entries", "Entries currently resident in the plan cache."),
		PlanCacheBytes:     reg.Gauge("bao_plancache_bytes", "Approximate resident bytes of cached plan tensors and predictions."),
		InferBatchSize:     reg.Histogram("bao_infer_batch_size", "Trees per TCNN forward pass issued by the cross-request inference batcher.", CountBuckets()),

		SelectStage:   reg.HistogramVec("bao_select_stage_seconds", "Wall time per stage of one selection; the stages tile it.", "stage", lat),
		SelectSeconds: reg.Histogram("bao_selection_seconds", "End-to-end Select (optimization overhead) wall time per query.", lat),
		ExecSeconds:   reg.Histogram("bao_execution_seconds", "Observed metric value (simulated seconds) per executed query.", lat),

		Calibration:   reg.HistogramVec("bao_prediction_ratio", "Observed/predicted ratio by chosen arm (calibration; >8 triggers early retrain).", "arm", RatioBuckets()),
		CalibDrift:    reg.Gauge("bao_calibration_drift_log_ratio", "Median log(observed/predicted) over the last calibrated decisions; 0 = calibrated, >0 = model optimistic."),
		GrossMispred:  reg.Counter("bao_gross_mispredictions_total", "Executions observed >8x over prediction and slow in absolute terms."),
		EarlyRetrains: reg.Counter("bao_early_retrains_total", "Retrains triggered by gross misprediction rather than schedule."),

		RegretVsDefault: reg.Gauge("bao_regret_vs_default_seconds", "Cumulative signed regret of Bao's choices vs the default arm (negative = Bao is winning)."),
		RegretWinDef:    reg.Gauge("bao_regret_window_vs_default_seconds", "Signed regret vs the default arm over the ledger's sliding window."),

		QueryTimeouts: reg.Counter("bao_query_timeouts_total", "Queries cancelled at the per-query deadline, each recorded as a censored (lower-bound) experience."),

		HotSwaps:       reg.Counter("bao_retrains_total", "Accepted model fits (Thompson sampling draws) swapped in."),
		RetrainSeconds: reg.Counter("bao_retrain_wall_seconds_total", "Accumulated retrain wall time."),
		TrainEpochs:    reg.Counter("bao_train_epochs_total", "Accumulated training epochs across retrains."),
		TrainLoss:      reg.Gauge("bao_train_loss", "Final training loss of the most recent model fit."),
		TrainSamples:   reg.Gauge("bao_train_samples", "Training-set size of the most recent retrain."),

		ServeInFlight:    reg.Gauge("bao_server_inflight", "Requests currently admitted into the serving layer."),
		ServeThrottled:   reg.Counter("bao_server_throttled_total", "Requests rejected with 429 by admission control."),
		ServeSeconds:     reg.Histogram("bao_server_request_seconds", "Server request wall time (admitted requests).", lat),
		TrainerLag:       reg.Gauge("bao_server_trainer_lag_seconds", "Signal-to-swap latency of the most recent async retrain."),
		RetrainCoalesced: reg.Counter("bao_server_retrains_coalesced_total", "Retrain signals coalesced into an already-pending one."),
		LogRecords:       reg.Counter("bao_server_explog_records_total", "Records appended to the experience log."),
		LogBytes:         reg.Counter("bao_server_explog_bytes_total", "Bytes appended to the experience log."),
		LogReplayed:      reg.Counter("bao_server_explog_replayed_total", "Records replayed from the experience log at startup."),
		LogSkipped:       reg.Counter("bao_server_explog_skipped_total", "Corrupt or truncated experience-log records skipped during replay."),
		ServeAbandoned:   reg.Counter("bao_server_abandoned_total", "Selections and requests abandoned before an outcome was recorded (client gone, HTTP timeout, or failed execution); nothing entered the window."),

		LogSeals:        reg.Counter("bao_explog_seals_total", "Active-tail rotations into sealed experience-log segments."),
		LogSegments:     reg.Gauge("bao_explog_segments", "Sealed experience-log segments on disk awaiting compaction."),
		LogSnapshots:    reg.Counter("bao_explog_snapshots_total", "Experience-log snapshot frames written and verified by the compactor."),
		LogSnapshotErrs: reg.Counter("bao_explog_snapshot_errors_total", "Snapshot writes that failed or failed verification (covered segments retained), plus corrupt snapshots recovery fell back past."),
		LogSnapshotSeq:  reg.Gauge("bao_explog_snapshot_seq", "Record sequence covered by the newest durable experience-log snapshot."),
		LogCompacted:    reg.Counter("bao_explog_segments_compacted_total", "Sealed segments deleted after their covering snapshot became durable."),
		LogDropped:      reg.Counter("bao_explog_dropped_total", "Experience-log records dropped while durability was degraded (read-only serving)."),
		LogDegradedG:    reg.Gauge("bao_explog_degraded", "1 while the experience log is in read-only durability degradation, else 0."),
		LogReopenProbes: reg.Counter("bao_explog_reopen_probes_total", "Reopen probes attempted while the experience log was degraded (exponential backoff on the append-attempt clock)."),

		RetrainRejected:     reg.Counter("bao_retrain_rejected_total", "Candidate models rejected by the validation gate (the incumbent kept serving)."),
		BreakerState:        reg.Gauge("bao_breaker_state", "Default-plan circuit breaker state: 0 closed, 1 open, 2 half-open."),
		BreakerTrips:        reg.Counter("bao_breaker_trips_total", "Circuit breaker trips (transitions to open)."),
		BreakerDefault:      reg.Counter("bao_breaker_default_served_total", "Decisions the guard served with the default arm (breaker open, planner panic, or degenerate predictions)."),
		ModelGeneration:     reg.Gauge("bao_model_generation", "Generation number of the newest model checkpoint saved or restored."),
		CheckpointsSaved:    reg.Counter("bao_checkpoints_saved_total", "Model checkpoint generations written."),
		CheckpointRollbacks: reg.Counter("bao_checkpoint_rollbacks_total", "Corrupt or unloadable checkpoint generations rolled back past at startup."),
		CheckpointErrors:    reg.Counter("bao_checkpoint_save_errors_total", "Failed model checkpoint saves."),
		NonFiniteTargets:    reg.Counter("bao_nonfinite_targets_total", "Experiences admitted with non-finite latency targets; excluded from every training sample."),
		NonFinitePreds:      reg.Counter("bao_nonfinite_predictions_total", "Non-finite model predictions clamped during arm selection."),
		TrainerPanics:       reg.Counter("bao_trainer_panics_total", "Panics recovered in the detached model fit (the incumbent kept serving)."),
		PlannerPanics:       reg.Counter("bao_planner_panics_total", "Panics recovered in per-arm planning (the query degraded to the default plan)."),

		TenantRequests:    reg.CounterVec("bao_shard_tenant_requests_total", "Requests dispatched to a resident tenant, by tenant.", "tenant"),
		TenantActivations: reg.Counter("bao_shard_tenant_activations_total", "Tenant activations (lazy model+explog+checkpoint namespace loads)."),
		TenantEvictions:   reg.Counter("bao_shard_tenant_evictions_total", "Tenants evicted by the residency LRU after flushing their explog and checkpoints."),
		TenantRehydrated:  reg.Counter("bao_shard_tenant_rehydrations_total", "Activations that replayed a non-empty experience log (a tenant rebuilt from its durable namespace)."),
		TenantsResident:   reg.Gauge("bao_shard_tenants_resident", "Tenants currently resident (model in memory)."),
		TenantBytes:       reg.Gauge("bao_shard_resident_bytes", "Approximate bytes of resident tenant models."),
		TenantActivateSec: reg.Histogram("bao_shard_tenant_activation_seconds", "Wall time to activate one tenant (open namespace, replay explog, restore checkpoint).", lat),
		RouterRequests:    reg.CounterVec("bao_router_requests_total", "Requests proxied to a shard, by shard.", "shard"),
		RouterErrors:      reg.CounterVec("bao_router_proxy_errors_total", "Proxy transport failures, by shard (only dial failures demote and fail over; client cancels and slow-shard timeouts do not).", "shard"),
		RouterSeconds:     reg.Histogram("bao_router_request_seconds", "Router end-to-end request wall time (tenant resolution + proxy hop).", lat),
		RouterHealthy:     reg.Gauge("bao_router_shards_healthy", "Shards currently routable (healthy and not draining)."),
		RouterRehashes:    reg.Counter("bao_router_ring_rehashes_total", "Consistent-hash ring rebuilds after shard membership or health changes."),
		RouterFailovers:   reg.Counter("bao_router_failovers_total", "Requests retried on the next ring owner after a proxy transport failure."),

		ExecCPUOps:     reg.Counter("bao_exec_cpu_ops_total", "Executor CPU work units charged."),
		ExecPageHits:   reg.Counter("bao_exec_page_hits_total", "Buffer-pool page hits charged by the executor."),
		ExecPageMisses: reg.Counter("bao_exec_page_misses_total", "Physical page reads charged by the executor."),
		ExecRandReads:  reg.Counter("bao_exec_rand_reads_total", "Random physical reads charged by the executor."),
		ExecRowsOut:    reg.Counter("bao_exec_rows_out_total", "Rows produced by executed plan roots."),
		PoolHits:       reg.Gauge("bao_bufferpool_hits", "Cumulative buffer-pool hits (engine lifetime)."),
		PoolMisses:     reg.Gauge("bao_bufferpool_misses", "Cumulative buffer-pool misses (engine lifetime)."),
		PoolHitRate:    reg.Gauge("bao_bufferpool_hit_rate", "Buffer-pool hit fraction over the engine lifetime."),
	}
	// Every stage's series exists from the start, at zero: a scrape shows
	// the stage before it first runs, and no selection pays to create it.
	for _, s := range []string{"parse", "plancache", "plan_arms", "featurize", "infer", "select_arm"} {
		o.SelectStage.With(s)
	}
	o.ledger = NewRegretLedger(256)
	o.drift = newDriftWindow(128)
	if ring != nil {
		o.ring.Store(ring)
	}
	return o
}

// Disabled returns an observer whose every handle is nil: all metric
// calls are no-ops and StartTrace returns nil. Used to measure (and
// bound) instrumentation overhead.
func Disabled() *Observer { return &Observer{} }

var (
	defaultOnce sync.Once
	defaultObs  *Observer
)

// Default returns the process-wide observer. Every Bao instance without
// an explicit Config.Observer records here, so the /metrics endpoint of a
// command covers all optimizers in the process.
func Default() *Observer {
	defaultOnce.Do(func() { defaultObs = NewObserver(NewRegistry(), nil) })
	return defaultObs
}

// EnableTracing attaches a ring buffer of the last n traces. Idempotent;
// safe to call while queries run.
func (o *Observer) EnableTracing(n int) {
	if o == nil || o.Reg == nil {
		return
	}
	if o.ring.Load() == nil {
		o.ring.CompareAndSwap(nil, NewTraceRing(n))
	}
}

// TracingEnabled reports whether a trace ring is attached.
func (o *Observer) TracingEnabled() bool { return o != nil && o.ring.Load() != nil }

// StartTrace begins a decision trace for one query, or returns nil when
// tracing is off (all Trace methods are nil-safe).
func (o *Observer) StartTrace(sql string) *Trace {
	if o == nil || o.ring.Load() == nil {
		return nil
	}
	return newTrace(sql)
}

// FinishTrace publishes a completed trace to the ring.
func (o *Observer) FinishTrace(t *Trace) {
	if o == nil || t == nil {
		return
	}
	o.ring.Load().Add(t)
}

// Traces returns the retained traces, newest first (nil when tracing is
// off).
func (o *Observer) Traces() []*Trace {
	if o == nil {
		return nil
	}
	return o.ring.Load().Traces()
}

// StartLinkedTrace begins a trace for asynchronous learning-loop work
// (kind "retrain" or "checkpoint") linked back to the decision that
// triggered it. Returns nil when tracing is off.
func (o *Observer) StartLinkedTrace(kind string, cause Cause) *Trace {
	if o == nil || o.ring.Load() == nil {
		return nil
	}
	t := newTrace("")
	t.Kind = kind
	t.CauseID = cause.TraceID
	t.RequestID = cause.RequestID
	return t
}

// RecordRegret admits one decision into the regret ledger and refreshes
// the regret gauges. Nil-safe; a disabled observer drops the entry.
func (o *Observer) RecordRegret(e RegretEntry) {
	if o == nil || o.ledger == nil {
		return
	}
	cum, win := o.ledger.Record(e)
	o.RegretVsDefault.Set(cum)
	o.RegretWinDef.Set(win)
}

// RegretSnapshot copies the regret ledger (empty snapshot when the
// observer is disabled), the programmatic form of /debug/regret.
func (o *Observer) RegretSnapshot() RegretSnapshot {
	if o == nil {
		return RegretSnapshot{PerArm: []ArmRegretStats{}, Window: []RegretEntry{}}
	}
	return o.ledger.Snapshot()
}

// ObserveCalibration records one observed/predicted ratio for the chosen
// arm and updates the windowed drift gauge. Call only with ratio > 0 (a
// prediction existed).
func (o *Observer) ObserveCalibration(arm string, ratio float64) {
	if o == nil || ratio <= 0 {
		return
	}
	o.Calibration.With(arm).Observe(ratio)
	if o.drift != nil {
		o.CalibDrift.Set(o.drift.add(math.Log(ratio)))
	}
}

// CalibrationDrift returns the current windowed drift statistic (median
// log observed/predicted; 0 when unknown) — the signal a confidence gate
// reads before letting the model deviate from the default plan.
func (o *Observer) CalibrationDrift() float64 {
	if o == nil {
		return 0
	}
	return o.CalibDrift.Value()
}

// EnableEvents attaches an in-memory event journal retaining the last n
// events. Idempotent; safe to call while the loop runs.
func (o *Observer) EnableEvents(n int) {
	if o == nil || o.Reg == nil {
		return
	}
	if o.journal.Load() == nil {
		o.journal.CompareAndSwap(nil, NewEventJournal(n))
	}
}

// Journal returns the attached event journal (nil when events are off),
// for wiring a file sink via LogTo.
func (o *Observer) Journal() *EventJournal {
	if o == nil {
		return nil
	}
	return o.journal.Load()
}

// Emit appends one lifecycle event to the journal when one is attached.
// Each kind's count is the metric its emitter moves beside it (see the
// Event* constants). Nil-safe and cheap when events are off.
func (o *Observer) Emit(ev Event) {
	if o == nil {
		return
	}
	if j := o.journal.Load(); j != nil {
		j.Append(ev)
	}
}

// Events returns the retained lifecycle events, newest first (nil when
// events are off).
func (o *Observer) Events() []Event {
	if o == nil {
		return nil
	}
	return o.journal.Load().Events()
}

// Snapshot copies the current value of every metric in the observer's
// registry.
func (o *Observer) Snapshot() Snapshot {
	if o == nil {
		var r *Registry
		return r.Snapshot()
	}
	return o.Reg.Snapshot()
}
