package baoserver

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bao/internal/cloud"
	"bao/internal/core"
	"bao/internal/executor"
	"bao/internal/guard"
	"bao/internal/obs"
)

// Config controls a Server.
type Config struct {
	// MaxInFlight bounds concurrently admitted requests; excess requests
	// are rejected with 429 immediately (admission control, so overload
	// degrades by shedding rather than queueing without bound). Zero
	// means 64.
	MaxInFlight int
	// RequestTimeout bounds each request's handling time. Zero means 30s.
	// When it fires the client gets a 503 and the request goroutine is
	// abandoned: it stops work at the next cancellation check and records
	// nothing (no experience, no explog append, no pending entry). The
	// per-query execution deadline, whose expiry is a 504 and a censored
	// experience instead, is the optimizer's core.Config.QueryTimeout.
	RequestTimeout time.Duration
	// LogPath, when set, opens a durable experience log there: every
	// admitted experience and critical exploration set is appended, and
	// on startup intact records are replayed into the optimizer.
	LogPath string
	// SegmentBytes rotates the experience log's active tail into a
	// sealed segment at this size; the background compactor then folds
	// sealed segments into snapshot frames, bounding recovery replay by
	// tail size instead of total history. Zero means DefaultSegmentBytes
	// (4 MiB); a negative bound is rejected when the log is opened.
	SegmentBytes int64
	// ExplogFault installs a deterministic disk-fault script behind the
	// experience log's file operations (tests and chaos drills only).
	ExplogFault *DiskFault
	// CheckpointDir, when set, persists every accepted model as a
	// versioned, CRC-checksummed checkpoint generation there (temp file +
	// fsync + atomic rename) and on startup restores the newest valid
	// generation, rolling back past corrupt or unloadable ones;
	// checkpointKeep generations are retained.
	CheckpointDir string
	// EventLogPath, when set, streams the structured event journal
	// (model swaps, breaker transitions, checkpoint saves/rollbacks,
	// censored/abandoned outcomes) to a rotating JSONL file there. The
	// in-memory journal behind /debug/events is on regardless. The file
	// rotates past eventLogMaxBytes, keeping eventLogKeep rotated files.
	EventLogPath string
}

const (
	// pendingLimit bounds selections awaiting their /v1/observe callback;
	// the oldest is dropped past it (clients that never report back must
	// not leak memory). Each holds only its observation ticket.
	pendingLimit = 1024
	// checkpointKeep is how many model checkpoint generations are kept.
	checkpointKeep   = 5
	eventLogMaxBytes = 4 << 20
	eventLogKeep     = 3
)

// Server is the concurrent Bao serving layer: an HTTP/JSON API over one
// core.Bao. Selections (the model fast path) run concurrently and
// lock-free against a snapshot of the current model; executions on the
// embedded engine take the optimizer's single execution lane (see
// core.Bao); training runs on a single background goroutine and hot-swaps
// fitted models in.
type Server struct {
	bao  *core.Bao
	cfg  Config
	o    *obs.Observer
	log  *ExperienceLog
	ckpt *guard.CheckpointStore // versioned model checkpoints; nil unless configured

	admit chan struct{} // admission-control semaphore

	selMu   sync.Mutex
	pending map[uint64]core.Ticket // selections awaiting /v1/observe
	nextID  uint64                 // the newest parked ID
	evicted uint64                 // every ID up to here has left pending

	// retrainCh is never closed: an observation may still hold the retrain
	// hook after Shutdown or Kill detached it, and its late signal is
	// dropped rather than sent on a closed channel. The trainer exits when
	// stop closes.
	retrainCh   chan retrainSignal
	stop        chan struct{}
	trainerDone chan struct{}
	shutOnce    sync.Once
	eventSink   bool // an EventLogPath file sink was attached (closed at shutdown)

	// ready flips once startup durability work — explog replay and
	// checkpoint rollback — has completed; /v1/health reports it. gen is
	// this server's newest checkpoint generation saved or restored
	// (unlike the observer's ModelGeneration gauge it stays per-server
	// when many tenant servers share one observer).
	ready atomic.Bool
	gen   atomic.Uint64

	httpSrv *http.Server
	ln      net.Listener
}

// New wires a server around b: replays the experience log and restores
// the newest valid model checkpoint (when configured), registers the
// durability and retrain hooks, and starts the background trainer. The
// server owns b from here on — callers must not drive b concurrently
// outside the server's API.
func New(b *core.Bao, cfg Config) (*Server, error) {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	s := &Server{
		bao:         b,
		cfg:         cfg,
		o:           b.Observer(),
		admit:       make(chan struct{}, cfg.MaxInFlight),
		pending:     make(map[uint64]core.Ticket),
		retrainCh:   make(chan retrainSignal, 1),
		stop:        make(chan struct{}),
		trainerDone: make(chan struct{}),
	}
	// The serving layer always keeps the /debug endpoints live: decision
	// traces (with async retrain/checkpoint traces linked to them) and
	// the structured event journal.
	s.o.EnableTracing(256)
	s.o.EnableEvents(512)
	if cfg.EventLogPath != "" {
		if err := s.o.Journal().LogTo(cfg.EventLogPath, eventLogMaxBytes, eventLogKeep); err != nil {
			return nil, err
		}
		s.eventSink = true
	}
	if cfg.LogPath != "" {
		l, err := OpenLog(cfg.LogPath, LogOptions{
			Observer:     s.o,
			SegmentBytes: cfg.SegmentBytes,
			WindowCap:    b.WindowCap(),
			Fault:        cfg.ExplogFault,
		})
		if err != nil {
			return nil, err
		}
		l.Attach(b)
		s.log = l
	}
	if cfg.CheckpointDir != "" {
		st, err := guard.OpenCheckpointStore(cfg.CheckpointDir, checkpointKeep)
		if err != nil {
			s.closeLog()
			return nil, fmt.Errorf("baoserver: %w", err)
		}
		s.ckpt = st
		// Restore the newest generation that both passes its checksum and
		// loads cleanly (LoadModel validates shapes and weight finiteness
		// before touching the live model), rolling back past any that
		// don't — a crash mid-save or bit rot costs one generation, not
		// the model.
		gen, rolledBack, err := st.Restore(b.LoadModel)
		if err != nil {
			s.closeLog()
			return nil, fmt.Errorf("baoserver: %w", err)
		}
		if rolledBack > 0 {
			s.o.CheckpointRollbacks.Add(float64(rolledBack))
			s.o.Emit(obs.Event{
				Kind:       obs.EventRollback,
				Detail:     fmt.Sprintf("rolled back past %d corrupt or unloadable generation(s) at startup", rolledBack),
				Generation: gen,
			})
		}
		if gen > 0 {
			s.o.ModelGeneration.Set(float64(gen))
			s.gen.Store(gen)
		}
	}
	b.SetRetrainHook(s.signalRetrain)
	go s.trainer()
	// Startup durability work (replay + rollback) is done; the readiness
	// probe may now say yes.
	s.ready.Store(true)
	return s, nil
}

// Checkpoints returns the checkpoint store, or nil when not configured.
func (s *Server) Checkpoints() *guard.CheckpointStore { return s.ckpt }

// saveCheckpoint persists the current model as a new checkpoint
// generation, publishing a "checkpoint" trace linked to the decision
// that triggered the retrain being persisted. Failures are counted and
// journaled, not fatal: the in-memory model keeps serving and the next
// accepted retrain tries again.
func (s *Server) saveCheckpoint(cause obs.Cause) {
	if s.ckpt == nil || !s.bao.Trained() {
		return
	}
	tr := s.o.StartLinkedTrace("checkpoint", cause)
	start := time.Now()
	gen, err := s.ckpt.Save(s.bao.SaveModel)
	if err != nil {
		s.o.CheckpointErrors.Inc()
		s.o.Emit(obs.Event{Kind: obs.EventCheckpointError, Detail: err.Error(),
			TraceID: cause.TraceID, RequestID: cause.RequestID})
		tr.AddSpan("checkpoint_write", start, time.Since(start), "error: "+err.Error())
		s.o.FinishTrace(tr)
		return
	}
	s.o.CheckpointsSaved.Inc()
	s.o.ModelGeneration.Set(float64(gen))
	s.gen.Store(gen)
	s.o.Emit(obs.Event{Kind: obs.EventCheckpoint, Generation: gen,
		TraceID: cause.TraceID, RequestID: cause.RequestID})
	tr.AddSpan("checkpoint_write", start, time.Since(start), fmt.Sprintf("generation=%d", gen))
	s.o.FinishTrace(tr)
}

// Bao returns the wrapped optimizer (status inspection; do not drive its
// mutating API outside the server).
func (s *Server) Bao() *core.Bao { return s.bao }

// Log returns the durable experience log, or nil when not configured.
func (s *Server) Log() *ExperienceLog { return s.log }

// Handler returns the server's HTTP handler:
//
//	POST /v1/select    {"sql": ...} → arm choice; execution is the caller's
//	POST /v1/observe   {"selection_id": ..., "secs": ...} → feedback
//	POST /v1/query     {"sql": ...} → full select-execute-observe loop
//	GET  /v1/model     → current value model (binary)
//	POST /v1/model     ← value model to hot-swap in
//	POST /v1/critical  {"sql": ...} → mark + explore a critical query
//	GET  /v1/status    → JSON summary
//	GET  /metrics, /debug/traces, /debug/events
//	                   → observability (unthrottled)
//
// Every request runs under a request ID: the client's X-Bao-Request-Id
// header when present, a minted one otherwise. The ID is echoed on the
// response, threaded through the request context into
// select → plan → execute → observe, and stamped on the decision trace,
// so one query is resolvable across /debug/traces, /debug/events, and
// histogram exemplars.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/select", s.admitted(s.handleSelect))
	mux.HandleFunc("/v1/observe", s.admitted(s.handleObserve))
	mux.HandleFunc("/v1/query", s.admitted(s.handleQuery))
	mux.HandleFunc("/v1/model", s.admitted(s.handleModel))
	mux.HandleFunc("/v1/critical", s.admitted(s.handleCritical))
	mux.HandleFunc("/v1/status", s.handleStatus)
	mux.HandleFunc("/v1/health", healthHandler(s.probe))
	mux.Handle("/", obs.Handler(s.o)) // /metrics and /debug/*
	// Request-ID middleware wraps outermost so the ID survives the
	// TimeoutHandler's context replacement and reaches every handler.
	return withRequestID(http.TimeoutHandler(mux, s.cfg.RequestTimeout, "request timed out\n"))
}

// requestIDHeader carries the client-supplied (or server-minted) request
// ID on both request and response.
const requestIDHeader = "X-Bao-Request-Id"

// withRequestID accepts or mints a request ID, echoes it on the
// response, and threads it through the request context so the decision
// trace and every event caused by this request carry it.
func withRequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if id == "" {
			id = obs.MintRequestID()
		}
		w.Header().Set(requestIDHeader, id)
		h.ServeHTTP(w, r.WithContext(obs.WithRequestID(r.Context(), id)))
	})
}

// Start binds addr (":0" picks a free port) and serves in a goroutine.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.Handler()}
	go s.httpSrv.Serve(ln) //nolint:errcheck // closed via Shutdown
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully stops the server: the listener closes and in-flight
// requests drain (bounded by ctx), the trainer finishes its current fit
// and exits (checkpointing the model it swapped in), and the experience
// log is flushed to stable storage. The wrapped optimizer reverts to
// inline (library) retraining semantics. Idempotent; only the first call
// does the work.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.shutOnce.Do(func() {
		err = s.teardown(ctx, func(h *http.Server) error { return h.Shutdown(ctx) })
	})
	return err
}

// teardown is the one stop sequence behind Shutdown and Kill, which
// differ only in how the listener closes and whether ctx bounds the wait
// for the trainer: close the listener, detach the hooks, abandon the
// pending tickets, let the trainer run its pending signal and exit, then
// close the log and the journal.
// Returns the first error.
func (s *Server) teardown(ctx context.Context, closeHTTP func(*http.Server) error) error {
	var errs []error
	if s.httpSrv != nil {
		errs = append(errs, closeHTTP(s.httpSrv))
	}
	s.bao.SetRetrainHook(nil)
	s.bao.SetExperienceHook(nil)
	s.bao.SetCriticalHook(nil)
	s.abandonPending()
	close(s.stop)
	select {
	case <-s.trainerDone:
	case <-ctx.Done():
		errs = append(errs, ctx.Err())
	}
	errs = append(errs, s.closeLog())
	if s.eventSink {
		errs = append(errs, s.o.Journal().Close())
	}
	return cmp.Or(errs...)
}

// abandonPending empties the pending table at shutdown, abandoning each
// ticket, oldest first, so no parked selection leaves uncounted.
func (s *Server) abandonPending() {
	s.selMu.Lock()
	ids := make([]uint64, 0, len(s.pending))
	for id := range s.pending {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	tickets := make([]core.Ticket, len(ids))
	for i, id := range ids {
		tickets[i] = s.pending[id]
	}
	clear(s.pending)
	s.selMu.Unlock()
	for _, t := range tickets {
		s.bao.Abandon(t, "shutdown")
	}
}

// probe builds the /v1/health body: readiness (startup durability work —
// replay and rollback — completed; liveness is implied by answering at
// all) plus the experience log's durability state.
func (s *Server) probe() healthResponse {
	resp := healthResponse{Durability: s.durability()}
	if !s.ready.Load() {
		resp.Detail = "replaying experience log / restoring checkpoints"
		return resp
	}
	resp.Ready = true
	return resp
}

// durability summarizes the experience log's write path: "" when no log
// is configured, "degraded" while the log is read-only, "ok" otherwise.
func (s *Server) durability() string {
	if s.log == nil {
		return ""
	}
	if s.log.Degraded() {
		return "degraded"
	}
	return "ok"
}

// Generation returns this server's newest model checkpoint generation
// saved or restored (0 when checkpointing is off or nothing persisted).
func (s *Server) Generation() uint64 { return s.gen.Load() }

// Kill abruptly stops the server without flushing — the chaos-test crash
// path. The listener (when one exists) closes without draining, hooks
// detach, the trainer runs its pending signal and exits, and the
// experience log handle closes. Whatever the last accepted checkpoint
// captured is all a rebuild gets, which is exactly the guarantee the fleet
// chaos tests pin.
// Waiting for the trainer matters for fencing: once Kill returns, nothing
// on this server writes to its durable namespace again, so a new owner
// may open it.
func (s *Server) Kill() {
	s.shutOnce.Do(func() {
		// Errors are dropped: this is the crash path, and the log's scan
		// tolerates a torn tail. The background context never ends, so the
		// trainer wait is unbounded.
		s.teardown(context.Background(), (*http.Server).Close) //nolint:errcheck // abrupt by design
	})
}

func (s *Server) closeLog() error {
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}

// admitted wraps a handler with admission control: a bounded in-flight
// semaphore (429 on overflow), the in-flight gauge, and the request
// latency histogram.
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.admit <- struct{}{}:
		default:
			s.o.ServeThrottled.Inc()
			http.Error(w, "too many in-flight requests", http.StatusTooManyRequests)
			return
		}
		s.o.ServeInFlight.Set(float64(len(s.admit)))
		start := time.Now()
		reqID := obs.RequestIDFrom(r.Context())
		defer func() {
			<-s.admit
			s.o.ServeInFlight.Set(float64(len(s.admit)))
			s.o.ServeSeconds.ObserveEx(time.Since(start).Seconds(), 0, reqID)
		}()
		h(w, r)
	}
}

type selectRequest struct {
	SQL string `json:"sql"`
}

type selectResponse struct {
	SelectionID   uint64  `json:"selection_id"`
	ArmID         int     `json:"arm_id"`
	Arm           string  `json:"arm"`
	UsedModel     bool    `json:"used_model"`
	PredictedSecs float64 `json:"predicted_secs,omitempty"`
	UniquePlans   int     `json:"unique_plans"`
}

// handleSelect is the model fast path: plan every arm, predict, choose.
// The selection's observation ticket is parked awaiting the client's
// /v1/observe with the observed runtime; this is the paper's advisor
// integration, where the database executes the chosen plan itself.
func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req selectRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	sel, err := s.bao.SelectCtx(r.Context(), req.SQL)
	if err != nil {
		if r.Context().Err() != nil {
			s.bao.Abandon(core.Ticket{}, "select abandoned: "+r.Context().Err().Error())
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Never park a selection for a client that is gone: the entry would
	// hold a pending slot for a /v1/observe callback that can never come
	// and leak until eviction.
	if cerr := r.Context().Err(); cerr != nil {
		s.bao.Abandon(sel.Ticket(), "selection dropped before park: "+cerr.Error())
		return
	}
	id := s.park(sel.Ticket())
	resp := selectResponse{
		SelectionID: id,
		ArmID:       sel.ArmID,
		Arm:         s.bao.Cfg.Arms[sel.ArmID].Name,
		UsedModel:   sel.UsedModel,
		UniquePlans: sel.UniquePlans,
	}
	if sel.Preds != nil {
		resp.PredictedSecs = sel.Preds[sel.ArmID]
	}
	writeJSON(w, resp)
}

// park stores a selection's ticket awaiting feedback, evicting the oldest
// when the pending table is full. IDs ascend, so the oldest pending
// selection is the lowest ID: the low-water mark advances past IDs
// already observed and evicts until the table is back at its bound,
// passing each ID once. The table was within its bound before this
// ticket, so at most one ticket is evicted; it is abandoned outside
// selMu.
func (s *Server) park(t core.Ticket) uint64 {
	s.selMu.Lock()
	s.nextID++
	id := s.nextID
	s.pending[id] = t
	var old core.Ticket
	evicted := false
	for len(s.pending) > pendingLimit {
		s.evicted++
		old, evicted = s.pending[s.evicted]
		delete(s.pending, s.evicted)
	}
	s.selMu.Unlock()
	if evicted {
		s.bao.Abandon(old, "evicted")
	}
	return id
}

// take removes and returns a parked ticket; ok is false when id is not
// pending (never issued, already observed, or evicted).
func (s *Server) take(id uint64) (t core.Ticket, ok bool) {
	s.selMu.Lock()
	defer s.selMu.Unlock()
	t, ok = s.pending[id]
	delete(s.pending, id)
	return t, ok
}

type observeRequest struct {
	SelectionID uint64  `json:"selection_id"`
	Secs        float64 `json:"secs"`
}

type observeResponse struct {
	Experience int  `json:"experience"`
	Trained    bool `json:"trained"`
}

// handleObserve closes the loop for a parked selection with the runtime
// the client measured. Gross mispredictions here can trigger an early
// retrain signal, exactly as on the in-process path.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req observeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	// An abandoned observe must not consume the pending selection or admit
	// the experience: the client never saw a response, so it will (and
	// must be able to) retry against the same selection_id.
	if cerr := r.Context().Err(); cerr != nil {
		s.bao.Abandon(core.Ticket{}, "observe abandoned: "+cerr.Error())
		return
	}
	t, ok := s.take(req.SelectionID)
	if !ok {
		http.Error(w, "unknown or expired selection_id", http.StatusNotFound)
		return
	}
	s.bao.ObserveLatency(t, req.Secs)
	writeJSON(w, observeResponse{Experience: s.bao.ExperienceSize(), Trained: s.bao.Trained()})
}

type queryResponse struct {
	ArmID         int     `json:"arm_id"`
	Arm           string  `json:"arm"`
	UsedModel     bool    `json:"used_model"`
	Rows          int     `json:"rows"`
	SimulatedSecs float64 `json:"simulated_secs"`
}

type queryTimeoutResponse struct {
	Error       string  `json:"error"`
	ArmID       int     `json:"arm_id"`
	Arm         string  `json:"arm"`
	BudgetSecs  float64 `json:"budget_simulated_secs"`
	PartialSecs float64 `json:"partial_simulated_secs"`
	Censored    bool    `json:"censored"`
}

// handleQuery runs one query through core.Bao.RunCtx — select, execute on
// the optimizer's execution lane, then observe, censor or abandon — under
// the request context, and maps the outcome onto HTTP:
//
//   - 200 with the result;
//   - 400 when no selection was made (the SQL did not select);
//   - 504 when execution ran past core.Config.QueryTimeout: Bao recorded a
//     censored experience at the deadline's simulated-clock budget, so the
//     timed-out arm still teaches the model, and the body carries the
//     partial work performed;
//   - 500 when execution failed outright (the selection was released:
//     trace finished, nothing parked or recorded);
//   - nothing once the request is abandoned (TimeoutHandler 503 or client
//     disconnect): RunCtx recorded nothing anywhere.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req selectRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	res, sel, err := s.bao.RunCtx(r.Context(), req.SQL)
	var de *executor.DeadlineExceededError
	switch {
	case r.Context().Err() != nil:
		// Abandoned: nobody is left to answer.
	case err == nil:
		// A nil selection is advisor mode, which runs the default arm.
		resp := queryResponse{Arm: s.bao.Cfg.Arms[0].Name, Rows: len(res.Rows), SimulatedSecs: cloud.ExecSeconds(res.Counters)}
		if sel != nil {
			resp.ArmID, resp.Arm, resp.UsedModel = sel.ArmID, s.bao.Cfg.Arms[sel.ArmID].Name, sel.UsedModel
		}
		writeJSON(w, resp)
	case sel == nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.As(err, &de):
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGatewayTimeout)
		json.NewEncoder(w).Encode(queryTimeoutResponse{ //nolint:errcheck // best effort over HTTP
			Error:       "query exceeded its deadline; recorded as censored experience",
			ArmID:       sel.ArmID,
			Arm:         s.bao.Cfg.Arms[sel.ArmID].Name,
			BudgetSecs:  cloud.DeadlineBudgetSecs(s.bao.Cfg.QueryTimeout),
			PartialSecs: cloud.ExecSeconds(de.Counters),
			Censored:    true,
		})
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleModel serves GET (download the current trained model) and POST
// (hot-swap an uploaded model in; selections pick it up immediately).
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	// Check before the swap, not during: LoadModel reads the body fully
	// before replacing anything, so a disconnect mid-upload fails the read
	// and never installs a half-parsed model.
	if cerr := r.Context().Err(); cerr != nil {
		s.bao.Abandon(core.Ticket{}, "model request abandoned: "+cerr.Error())
		return
	}
	switch r.Method {
	case http.MethodGet:
		if !s.bao.Trained() {
			http.Error(w, "model not trained yet", http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := s.bao.SaveModel(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	case http.MethodPost:
		if err := s.bao.LoadModel(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// An uploaded model is an accepted model: checkpoint it so a
		// restart resumes from it, not from the last retrain.
		s.saveCheckpoint(obs.Cause{RequestID: obs.RequestIDFrom(r.Context())})
		writeJSON(w, map[string]any{"loaded": true, "train_count": s.bao.TrainCount()})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

type criticalResponse struct {
	Critical    []string `json:"critical"`
	ExploreSecs float64  `json:"explore_simulated_secs"`
}

// handleCritical marks the query as performance-critical and runs
// triggered exploration (every arm, on the execution lane) so the next
// retrain is guaranteed to rank its fastest arm first.
func (s *Server) handleCritical(w http.ResponseWriter, r *http.Request) {
	var req selectRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	// Abandoned before any state change: don't even mark the query.
	if cerr := r.Context().Err(); cerr != nil {
		s.bao.Abandon(core.Ticket{}, "critical abandoned: "+cerr.Error())
		return
	}
	s.bao.MarkCritical(req.SQL)
	total, err := s.bao.ExploreCriticalCtx(r.Context())
	if err != nil {
		if r.Context().Err() != nil {
			// Exploration for the in-progress query stored nothing; the mark
			// persists, so the next exploration pass covers it.
			s.bao.Abandon(core.Ticket{}, "exploration abandoned: "+r.Context().Err().Error())
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, criticalResponse{
		Critical:    s.bao.CriticalKeys(),
		ExploreSecs: cloud.ExecSeconds(total),
	})
}

type statusResponse struct {
	Trained     bool     `json:"trained"`
	TrainCount  int      `json:"train_count"`
	Experience  int      `json:"experience"`
	Critical    []string `json:"critical,omitempty"`
	Pending     int      `json:"pending_selections"`
	InFlight    int      `json:"inflight"`
	LogReplayed int      `json:"log_replayed,omitempty"`
	LogSkipped  int      `json:"log_skipped,omitempty"`
	// Segmented-log durability state (present when an experience log is
	// configured): write-path health, the newest durable snapshot's
	// covered sequence, the frames a crash right now would replay (the
	// recovery bound), sealed segments awaiting compaction, and records
	// dropped while degraded.
	Durability         string `json:"durability,omitempty"`
	ExplogSnapshotSeq  uint64 `json:"explog_snapshot_seq,omitempty"`
	ExplogTailFrames   uint64 `json:"explog_tail_frames,omitempty"`
	ExplogSegments     int    `json:"explog_segments,omitempty"`
	ExplogDropped      uint64 `json:"explog_dropped,omitempty"`
	ExplogReopenProbes uint64 `json:"explog_reopen_probes,omitempty"`
	// Guard state: the breaker's position and trip count (present when
	// the breaker is configured), the newest model checkpoint generation,
	// and the rejection/rollback counters.
	BreakerState        string `json:"breaker_state,omitempty"`
	BreakerTrips        uint64 `json:"breaker_trips,omitempty"`
	ModelGeneration     uint64 `json:"model_generation,omitempty"`
	RetrainRejected     int    `json:"retrain_rejected,omitempty"`
	CheckpointRollbacks int    `json:"checkpoint_rollbacks,omitempty"`
	// Plan-cache state (present when the text-keyed plan cache is
	// enabled): resident entries and approximate tensor bytes, the
	// hit/miss totals, and the model version cached predictions are keyed
	// on (moves in lockstep with model_generation under checkpointing).
	PlanCacheEntries int    `json:"plan_cache_entries,omitempty"`
	PlanCacheBytes   int64  `json:"plan_cache_bytes,omitempty"`
	PlanCacheHits    uint64 `json:"plan_cache_hits,omitempty"`
	PlanCacheMisses  uint64 `json:"plan_cache_misses,omitempty"`
	ModelVersion     uint64 `json:"model_version,omitempty"`
}

// handleStatus reports the serving state (unthrottled, so health checks
// and tests see through admission-control pressure).
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Context().Err() != nil {
		return // abandoned; nothing to record for a read-only endpoint
	}
	s.selMu.Lock()
	pending := len(s.pending)
	s.selMu.Unlock()
	resp := statusResponse{
		Trained:    s.bao.Trained(),
		TrainCount: s.bao.TrainCount(),
		Experience: s.bao.ExperienceSize(),
		Critical:   s.bao.CriticalKeys(),
		Pending:    pending,
		InFlight:   len(s.admit),
	}
	if s.log != nil {
		resp.LogReplayed, resp.LogSkipped = s.log.Replayed()
		ls := s.log.Stats()
		resp.Durability = "ok"
		if ls.Degraded {
			resp.Durability = "degraded"
		}
		resp.ExplogSnapshotSeq = ls.SnapshotSeq
		resp.ExplogTailFrames = ls.TailFrames
		resp.ExplogSegments = ls.Segments
		resp.ExplogDropped = ls.Dropped
		resp.ExplogReopenProbes = ls.ReopenProbes
	}
	if br := s.bao.Breaker(); br != nil {
		resp.BreakerState = br.State().String()
		resp.BreakerTrips = br.Trips()
	}
	if s.ckpt != nil {
		resp.ModelGeneration = s.gen.Load()
	}
	resp.RetrainRejected = int(s.o.RetrainRejected.Value())
	resp.CheckpointRollbacks = int(s.o.CheckpointRollbacks.Value())
	if s.bao.Cfg.PlanCache {
		resp.PlanCacheEntries, resp.PlanCacheBytes = s.bao.PlanCacheStats()
		resp.PlanCacheHits = uint64(s.o.PlanCacheHits.Value())
		resp.PlanCacheMisses = uint64(s.o.PlanCacheMisses.Value())
		resp.ModelVersion = s.bao.ModelVersion()
	}
	writeJSON(w, resp)
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best effort over HTTP
}
