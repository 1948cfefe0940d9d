package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, one per layer boundary the benchmark can see from outside.
// Wire spans are opened by middleware around the handlers the benchmark
// mounts; stage spans wrap calls into each module's public functions.
const (
	spanRequest    = "loadgen.request"
	spanRouter     = "router.handler"
	spanServer     = "server.handler"
	spanSelect     = "core.select"
	spanAnalyze    = "engine.analyze"
	spanParse      = "sqlparser.parse"
	spanPlanArms   = "planner.plan_arms"
	spanFeaturize  = "core.featurize"
	spanPredict    = "nn.predict"
	spanExecute    = "executor.execute"
	spanObserve    = "core.observe"
	spanAppend     = "explog.append"
	spanFit        = "nn.fit"
	spanCheckpoint = "guard.checkpoint_save"
	spanReplay     = "explog.replay"
)

// span is one timed call. Spans of one request share request_id;
// parent_id is the span that caused this one (0 for a root).
//
// Stage-tier children (engine.analyze, planner.plan_arms, ... under
// core.select) are replays: the program has no spans of its own yet, so
// the benchmark calls the same public functions again right after the
// parent returns. Their intervals therefore follow the parent's rather
// than nest inside it, and a parent's self time is its duration minus
// its children's durations.
type span struct {
	RequestID string `json:"request_id"`
	SpanID    int64  `json:"span_id"`
	ParentID  int64  `json:"parent_id"`
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. While off, the
// wire middleware passes requests straight through, which is how the
// traced run measures its own overhead on the same mounted handlers.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records one finished span and returns its id.
func (r *recorder) add(reqID, name string, parent int64, start, end time.Time) int64 {
	id := r.next.Add(1)
	s := span{RequestID: reqID, SpanID: id, ParentID: parent, Name: name,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return id
}

// wrap is the wire-tier middleware: one span per request around h, keyed
// by the X-Bao-Request-Id the load generator sets and the router
// forwards. The parent is resolved from the request id when the trace is
// written, because the caller's span is still open on another goroutine.
func (r *recorder) wrap(name string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		r.add(req.Header.Get("X-Bao-Request-Id"), name, 0, start, time.Now())
	})
}

// wireParent is the span that encloses each wire span on the same
// request, outermost first.
var wireParent = map[string][]string{
	spanRouter: {spanRequest},
	spanServer: {spanRouter, spanRequest},
}

// linkWire fills in parent ids of wire spans from their request ids.
func (r *recorder) linkWire() {
	type key struct{ req, name string }
	ids := map[key]int64{}
	for _, s := range r.spans {
		if s.RequestID != "" {
			ids[key{s.RequestID, s.Name}] = s.SpanID
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		if s.ParentID != 0 {
			continue
		}
		for _, p := range wireParent[s.Name] {
			if id, ok := ids[key{s.RequestID, p}]; ok {
				s.ParentID = id
				break
			}
		}
	}
}

// durations returns, per request id, the duration in seconds of the span
// called name.
func (r *recorder) durations(name string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range r.spans {
		if s.Name == name {
			out[s.RequestID] = float64(s.EndNS-s.StartNS) / 1e9
		}
	}
	return out
}

// write links the wire spans and writes every span to dir/trace.<workload>.json.
func (r *recorder) write(dir, workload string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.linkWire()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace."+workload+".json"), data, 0o644)
}
