package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed stage of the Bao decision loop (parse, per-arm
// planning, featurization, inference, selection, execution, observe,
// retrain). Offsets are relative to the trace start so spans render as a
// waterfall without clock arithmetic.
type Span struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"` // offset from trace start, microseconds
	DurUS   int64  `json:"dur_us"`   // duration, microseconds
	Note    string `json:"note,omitempty"`
}

// Trace is the decision record of a single query: which arm was chosen
// and why-shaped metadata (predictions, warm-up state, window size), plus
// one span per loop stage. Traces are built by a single goroutine; the
// ring buffer copy-on-read makes serving them concurrently safe.
type Trace struct {
	ID uint64 `json:"id"`
	// Kind distinguishes synchronous query decisions ("query") from the
	// async paths traced since the learning loop became observable:
	// "retrain" (sample→fit→validate→swap) and "checkpoint".
	Kind string `json:"kind,omitempty"`
	// RequestID is the HTTP-layer request ID this decision ran under
	// (minted by the server when the client sent none; empty outside the
	// serving stack).
	RequestID string `json:"request_id,omitempty"`
	// CauseID links an async trace back to the trace ID of the decision
	// whose observation triggered it (0 = no known trigger).
	CauseID       uint64    `json:"cause_id,omitempty"`
	SQL           string    `json:"sql"`
	Start         time.Time `json:"start"`
	ArmID         int       `json:"arm_id"`
	ArmName       string    `json:"arm_name"`
	UsedModel     bool      `json:"used_model"`
	WarmUp        bool      `json:"warm_up"`
	WindowSize    int       `json:"window_size"`
	UniquePlans   int       `json:"unique_plans"` // distinct plans across arms after dedup
	PredictedSecs float64   `json:"predicted_secs"`
	ObservedSecs  float64   `json:"observed_secs"`
	Ratio         float64   `json:"observed_over_predicted,omitempty"`
	// DeadlineSecs is the simulated-clock execution budget this query ran
	// under (0 = none); Censored marks an observation clamped to that
	// budget because the execution was cancelled at its deadline.
	DeadlineSecs float64 `json:"deadline_secs,omitempty"`
	Censored     bool    `json:"censored,omitempty"`
	// Breaker notes a decision the guard degraded to the default arm and
	// why ("breaker-open", "planner-panic", "degenerate-predictions").
	Breaker string `json:"breaker,omitempty"`
	// Cache is the plan-cache verdict for this decision: "hit" (plans,
	// tensors, and predictions all reused), "hit-repredict" (tensors
	// reused, predictions recomputed because the model generation moved),
	// "hit-refeaturize" (plans reused, tensors and predictions recomputed
	// because buffer-pool residency drifted), or "miss". Empty when the
	// cache is disabled or bypassed (breaker open).
	Cache string `json:"cache,omitempty"`
	Spans []Span `json:"spans"`

	start time.Time // monotonic anchor for span offsets
}

var traceID atomic.Uint64

// newTrace starts a trace anchored at now.
func newTrace(sql string) *Trace {
	now := time.Now()
	return &Trace{
		ID:    traceID.Add(1),
		Kind:  "query",
		SQL:   sql,
		Start: now,
		Spans: make([]Span, 0, 10),
		start: now,
	}
}

// SetRequestID stamps the trace with the request ID it ran under.
// Nil-safe.
func (t *Trace) SetRequestID(id string) {
	if t == nil || id == "" {
		return
	}
	t.RequestID = id
}

// Cause returns the identity of this trace for linking async work back
// to it (zero Cause on nil, so untraced decisions produce unlinked async
// traces rather than branches at every call site).
func (t *Trace) Cause() Cause {
	if t == nil {
		return Cause{}
	}
	return Cause{TraceID: t.ID, RequestID: t.RequestID}
}

// AddSpan appends a stage that began at start and ran for dur. Nil-safe,
// so instrumented code never branches on whether tracing is enabled.
func (t *Trace) AddSpan(name string, start time.Time, dur time.Duration, note string) {
	if t == nil {
		return
	}
	t.Spans = append(t.Spans, Span{
		Name:    name,
		StartUS: start.Sub(t.start).Microseconds(),
		DurUS:   dur.Microseconds(),
		Note:    note,
	})
}

// TraceRing keeps the last N finished traces.
type TraceRing struct {
	mu sync.Mutex
	r  ring[*Trace]
}

// NewTraceRing creates a ring holding up to n traces (n < 1 is clamped
// to 1).
func NewTraceRing(n int) *TraceRing { return &TraceRing{r: newRing[*Trace](n)} }

// Add stores a finished trace, evicting the oldest when full.
func (r *TraceRing) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	r.r.push(t)
	r.mu.Unlock()
}

// Traces returns the stored traces, newest first.
func (r *TraceRing) Traces() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.r.newestFirst()
}
