// Package bao is the public API of this reproduction of "Bao: Making
// Learned Query Optimization Practical" (Marcus et al., SIGMOD 2021).
//
// Bao is a learned steering layer over a traditional cost-based query
// optimizer: for each query it asks the optimizer for one plan per *hint
// set* (a subset of enabled operator classes), predicts each plan's
// latency with a tree convolutional neural network, picks a plan via
// Thompson sampling, and learns from the observed execution.
//
// This package re-exports the stable surface of the internal packages so
// applications can depend on a single import:
//
//	eng := bao.NewEngine(bao.GradePostgreSQL, 8192)
//	// ... create tables, insert rows, build indexes, eng.Analyze() ...
//	opt := bao.New(eng, bao.DefaultConfig())
//	res, sel, err := opt.Run("SELECT COUNT(*) FROM t1, t2 WHERE ...")
//
// See the examples/ directory for complete programs, DESIGN.md for the
// architecture and substitutions, and EXPERIMENTS.md for the reproduction
// of every table and figure in the paper's evaluation.
package bao

import (
	"context"
	"time"

	"bao/internal/catalog"
	"bao/internal/cloud"
	"bao/internal/core"
	"bao/internal/engine"
	"bao/internal/executor"
	"bao/internal/guard"
	"bao/internal/obs"
	"bao/internal/planner"
	baorouter "bao/internal/router"
	baoserver "bao/internal/server"
	"bao/internal/storage"
)

// Engine is the embedded database engine (catalog, storage, statistics,
// buffer pool, cost-based optimizer with enable_* hints, and executor).
type Engine = engine.Engine

// Estimation grades for the underlying optimizer.
const (
	GradePostgreSQL = engine.GradePostgreSQL
	GradeComSys     = engine.GradeComSys
)

// NewEngine creates an engine with the given estimation grade and buffer
// pool capacity in pages.
func NewEngine(grade engine.Grade, poolPages int) *Engine {
	return engine.New(grade, poolPages)
}

// Optimizer is Bao: the bandit layer selecting hint sets per query.
type Optimizer = core.Bao

// Result is an executed query's output: columns, rows, and work counters.
type Result = engine.Result

// OutCol names one output column of a result.
type OutCol = planner.OutCol

// Config controls an Optimizer.
type Config = core.Config

// Arm is one hint set in the bandit's arm family.
type Arm = core.Arm

// Selection reports a per-query arm choice.
type Selection = core.Selection

// Experience is one observed (plan, outcome) pair in the training window.
type Experience = core.Experience

// Metric is the optimization goal (latency, CPU time, or disk I/O).
type Metric = core.Metric

// Optimization goals.
const (
	MetricLatency = core.MetricLatency
	MetricCPU     = core.MetricCPU
	MetricIO      = core.MetricIO
)

// New creates a Bao optimizer over an engine.
func New(eng *Engine, cfg Config) *Optimizer { return core.New(eng, cfg) }

// DefaultConfig returns the paper's configuration: 49 arms, sliding window
// k=2000, retrain every n=100 queries, cache-aware featurization.
func DefaultConfig() Config { return core.DefaultConfig() }

// FastConfig returns a laptop-scale configuration (smaller window, fewer
// training epochs) with the same structure.
func FastConfig() Config { return core.FastConfig() }

// DefaultArms returns the full 49-arm family (join subsets × scan subsets).
func DefaultArms() []Arm { return core.DefaultArms() }

// TopArms returns the small high-value arm family of §6.3 (default plus
// the five hint sets carrying 93% of the improvement).
func TopArms(n int) []Arm { return core.TopArms(n) }

// Hints is the boolean optimizer flag set (enable_hashjoin, ...).
type Hints = planner.Hints

// AllHintsOn returns the unhinted optimizer configuration.
func AllHintsOn() Hints { return planner.AllOn() }

// Schema/data construction types, re-exported for application setup.
type (
	// Table is a table schema.
	Table = catalog.Table
	// Column is a typed table column.
	Column = catalog.Column
	// Index describes a single-column secondary index.
	Index = catalog.Index
	// Row is a tuple.
	Row = storage.Row
	// Value is a single column value.
	Value = storage.Value
	// Counters are the executor's machine-independent work counters.
	Counters = executor.Counters
	// VMType is a simulated cloud hardware profile.
	VMType = cloud.VMType
)

// Column types.
const (
	Int = catalog.Int
	Str = catalog.Str
)

// MustTable builds a table schema, panicking on duplicate columns.
func MustTable(name string, cols ...Column) *Table { return catalog.MustTable(name, cols...) }

// IntVal makes an integer value.
func IntVal(i int64) Value { return storage.IntVal(i) }

// StrVal makes a string value.
func StrVal(s string) Value { return storage.StrVal(s) }

// ExecSeconds converts work counters into simulated seconds (the latency
// metric all experiments report).
func ExecSeconds(c Counters) float64 { return cloud.ExecSeconds(c) }

// ErrDeadlineExceeded matches (via errors.Is) executions cancelled at
// their context deadline. The concrete error is a *DeadlineExceededError
// carrying the partial work counters accumulated before cancellation.
var ErrDeadlineExceeded = executor.ErrDeadlineExceeded

// DeadlineExceededError is the typed cancellation error carrying the
// partial work counters. Engine.ExecuteCtx returns it for any execution
// whose context ended; Optimizer.RunCtx returns it only for a query that
// ran past Config.QueryTimeout and was recorded as a censored experience
// (a caller whose own context ends gets that context's error instead).
type DeadlineExceededError = executor.DeadlineExceededError

// DeadlineBudgetSecs maps a wall-clock deadline onto the simulated clock —
// the latency a censored experience is recorded at.
func DeadlineBudgetSecs(d time.Duration) float64 { return cloud.DeadlineBudgetSecs(d) }

// PagesForVM sizes a buffer pool for a simulated VM profile.
func PagesForVM(vm VMType) int { return cloud.PagesForVM(vm) }

// Observability re-exports. Every Optimizer records into an Observer —
// the process-wide default unless Config.Observer overrides it — which
// carries atomic counters, gauges, latency histograms, and (once tracing
// is enabled) a ring buffer of per-query decision traces.
type (
	// Observer is the observability sink: metrics registry handles plus
	// the decision-trace ring.
	Observer = obs.Observer
	// StatsSnapshot is a point-in-time copy of every metric.
	StatsSnapshot = obs.Snapshot
	// QueryTrace is one query's decision trace (spans + arm metadata).
	QueryTrace = obs.Trace
	// ObsServer is a running /metrics + /debug/traces HTTP endpoint.
	ObsServer = obs.Server
)

// DefaultObserver returns the process-wide observer that optimizers (and
// engines' executors) record into by default.
func DefaultObserver() *Observer { return obs.Default() }

// DisabledObserver returns a no-op observer; set it as Config.Observer to
// turn instrumentation off entirely (used to bound its overhead).
func DisabledObserver() *Observer { return obs.Disabled() }

// Stats snapshots the process-wide default metrics registry — the
// programmatic equivalent of scraping /metrics. Optimizers with a custom
// Config.Observer snapshot via their own Optimizer.Stats method instead.
func Stats() StatsSnapshot { return obs.Default().Snapshot() }

// ServeObs starts an HTTP server on addr exposing Prometheus metrics at
// /metrics and the decision-trace ring at /debug/traces, and enables
// tracing on the default observer. Pass addr ":0" to pick a free port;
// the returned server reports the actual address.
func ServeObs(addr string) (*ObsServer, error) { return obs.Serve(addr, obs.Default()) }

// Serving-layer re-exports: the concurrent Bao server (HTTP/JSON API,
// async retraining with model hot-swap, durable experience log).
type (
	// BaoServer is a running serving layer over one Optimizer: concurrent
	// selections, the optimizer's single execution lane, a background
	// trainer, and optional durability (see internal/server).
	BaoServer = baoserver.Server
	// ServerConfig controls a BaoServer (admission limit, request timeout,
	// the experience-log path and model checkpoint directory). The
	// per-query deadline is the Optimizer's Config.QueryTimeout.
	ServerConfig = baoserver.Config
	// ExperienceLog is the durable append-only record of observed
	// experiences and critical-query exploration sets.
	ExperienceLog = baoserver.ExperienceLog
)

// Serve wires a serving layer around opt (replaying the experience log
// and restoring the newest model checkpoint when configured), binds addr (":0" picks a free
// port), and serves in the background. The server owns opt from here on;
// stop it with Shutdown.
func Serve(opt *Optimizer, addr string, cfg ServerConfig) (*BaoServer, error) {
	s, err := baoserver.New(opt, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Start(addr); err != nil {
		s.Shutdown(context.Background()) //nolint:errcheck // listener never opened
		return nil, err
	}
	return s, nil
}

// Fleet re-exports: the sharded multi-tenant serving layer (a router
// consistent-hashing tenants onto shards; each shard hosting one full
// serving stack per resident tenant in its own durable namespace). See
// DESIGN.md §10 and the README's Fleet section.
type (
	// Shard is a multi-tenant baoserver: per-tenant optimizers, trainers,
	// experience logs, and checkpoints behind one HTTP front door, with
	// lazy activation and LRU residency bounded by count and bytes.
	Shard = baoserver.Shard
	// ShardConfig controls a Shard (name, tenant namespace root and
	// factory, residency bounds).
	ShardConfig = baoserver.ShardConfig
	// TenantOptions configures a shard's tenant registry.
	TenantOptions = baoserver.TenantOptions
	// Router is the fleet front door: consistent-hash tenant routing with
	// inline failover and rebuild-by-replay reassignment.
	Router = baorouter.Router
	// RouterConfig controls a Router (fleet membership, default tenant,
	// health polling).
	RouterConfig = baorouter.RouterConfig
	// RouterShard names one shard and its base URL in RouterConfig.
	RouterShard = baorouter.ShardInfo
)

// ServeShard builds a shard from cfg, binds addr (":0" picks a free
// port), and serves in the background; tenants activate on first touch.
func ServeShard(cfg ShardConfig, addr string) (*Shard, error) {
	s, err := baoserver.NewShard(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Start(addr); err != nil {
		return nil, err
	}
	return s, nil
}

// ServeRouter builds a fleet router from cfg, binds addr (":0" picks a
// free port), and serves in the background.
func ServeRouter(cfg RouterConfig, addr string) (*Router, error) {
	r, err := baorouter.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := r.Start(addr); err != nil {
		return nil, err
	}
	return r, nil
}

// Guardrail re-exports: the self-healing decision loop (internal/guard).
// Enable via Config.Breaker / Config.Validate; when the breaker is open
// the optimizer serves the default arm (never far worse than the native
// optimizer) while still recording experience. See DESIGN.md §9 for the
// degradation ladder.
type (
	// BreakerConfig controls the default-plan circuit breaker: trip
	// thresholds, cool-down length, and half-open probe count. All in
	// decision counts, never wall time.
	BreakerConfig = guard.BreakerConfig
	// ValidateConfig controls the validation gate applied to retrained
	// candidate models before hot-swap (finiteness + held-out regression).
	ValidateConfig = guard.ValidateConfig
	// CircuitBreaker is the runtime breaker; read it from
	// Optimizer.Breaker (nil unless Config.Breaker.Enabled — every method
	// is nil-safe).
	CircuitBreaker = guard.Breaker
	// BreakerState is the breaker's position: closed, open, or half-open.
	BreakerState = guard.State
	// BreakerTransition is one recorded state change, stamped with the
	// decision count at which it happened.
	BreakerTransition = guard.Transition
	// GuardFault injects deterministic faults (fit panics, NaN models,
	// planner panics) for chaos testing; set as Config.Fault.
	GuardFault = guard.Fault
	// CheckpointStore is a directory of versioned, checksummed model
	// checkpoints with rollback past corrupt generations.
	CheckpointStore = guard.CheckpointStore
)

// Breaker states.
const (
	BreakerClosed   = guard.Closed
	BreakerOpen     = guard.Open
	BreakerHalfOpen = guard.HalfOpen
)

// OpenCheckpointStore opens (creating if absent) a versioned model
// checkpoint directory retaining the last keep generations (0 = default).
// Servers open one automatically via ServerConfig.CheckpointDir.
func OpenCheckpointStore(dir string, keep int) (*CheckpointStore, error) {
	return guard.OpenCheckpointStore(dir, keep)
}

// OpenExperienceLog opens (creating if absent) a durable experience log,
// replaying nothing by itself — pass the path as ServerConfig.LogPath to
// have a server replay and append to it, call the returned log's Attach
// to do the same for a library Optimizer, or Replay it for offline
// inspection and custom tooling.
func OpenExperienceLog(path string) (*ExperienceLog, error) {
	return baoserver.OpenExperienceLog(path, DefaultObserver())
}

// ExplogOptions tunes a directly opened experience log: segment rotation
// bound, snapshot retention, and deterministic disk-fault scripts. The
// zero value matches OpenExperienceLog.
type ExplogOptions = baoserver.LogOptions

// OpenExperienceLogWith opens a durable experience log with explicit
// options — notably SegmentBytes, which bounds recovery replay to the
// unsnapshotted tail (0 = 4 MiB; a negative bound is an error).
func OpenExperienceLogWith(path string, o ExplogOptions) (*ExperienceLog, error) {
	if o.Observer == nil {
		o.Observer = DefaultObserver()
	}
	return baoserver.OpenLog(path, o)
}
