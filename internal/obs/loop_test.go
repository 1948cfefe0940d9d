package obs

// Tests for the learning-loop observability layer: calibration by arm,
// the structured event journal (with file rotation), exemplar-carrying
// histograms, and the /debug/events endpoint.

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventJournalRingAndSeq(t *testing.T) {
	j := NewEventJournal(2)
	j.Append(Event{Kind: "a"})
	j.Append(Event{Kind: "b"})
	j.Append(Event{Kind: "c"}) // evicts a
	got := j.Events()
	if len(got) != 2 || got[0].Kind != "c" || got[1].Kind != "b" {
		t.Fatalf("events = %+v, want c,b newest first", got)
	}
	if got[0].Seq != 3 || got[1].Seq != 2 {
		t.Fatalf("seq = %d,%d, want 3,2", got[0].Seq, got[1].Seq)
	}
	if got[0].At.IsZero() {
		t.Fatal("Append must stamp wall time")
	}
}

func TestEventJournalFileSinkAndRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	j := NewEventJournal(8)
	// Tiny maxBytes so a handful of events forces rotations.
	if err := j.LogTo(path, 200, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		j.Append(Event{Kind: EventSwapAccepted, Detail: fmt.Sprintf("samples=%d", i)})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// The live file plus at least one rotated file must exist, every line
	// valid JSON with monotonically increasing seq within a file.
	live, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Fatalf("expected rotated file: %v", err)
	}
	var lastSeq uint64
	for _, line := range strings.Split(strings.TrimSpace(string(live)), "\n") {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("seq not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
	}
	if lastSeq != 12 {
		t.Fatalf("live file ends at seq %d, want 12", lastSeq)
	}
}

func TestTraceRingConcurrent(t *testing.T) {
	// Concurrent Add and Traces must be race-free (run under -race) and
	// never hand out nil traces or tear the ring.
	ring := NewTraceRing(16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ring.Add(&Trace{ID: uint64(w*1000 + i)})
				for _, tr := range ring.Traces() {
					if tr == nil {
						t.Error("ring handed out a nil trace")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(ring.Traces()); got != 16 {
		t.Fatalf("ring holds %d traces, want 16", got)
	}
}

// promLoopLine extends the tier-1 exposition check to multi-label series
// and the exemplar comment lines the loop metrics emit.
var promLoopLine = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|# EXEMPLAR [a-zA-Z_:][a-zA-Z0-9_:]* \{.*\} .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? (-?[0-9.e+-]+|\+Inf|NaN))$`)

func TestHistogramVecAndExemplarFormat(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("bao_ratio_by_arm", "Ratio by arm.", "arm", []float64{1, 8})
	v.With("hash+seq").Observe(0.5)
	v.With("hash+seq").Observe(20)
	v.With("loop").Observe(2)
	h := r.Histogram("bao_exec_seconds", "Exec.", []float64{1})
	h.ObserveEx(0.25, 42, "req-abc")

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !promLoopLine.MatchString(line) {
			t.Fatalf("line not valid exposition format: %q\nfull output:\n%s", line, out)
		}
	}
	for _, want := range []string{
		"# TYPE bao_ratio_by_arm histogram",
		`bao_ratio_by_arm_bucket{arm="hash+seq",le="1"} 1`,
		`bao_ratio_by_arm_bucket{arm="hash+seq",le="+Inf"} 2`,
		`bao_ratio_by_arm_sum{arm="hash+seq"} 20.5`,
		`bao_ratio_by_arm_count{arm="hash+seq"} 2`,
		`bao_ratio_by_arm_count{arm="loop"} 1`,
		`# EXEMPLAR bao_exec_seconds {trace_id="42",request_id="req-abc"} 0.25`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if ex := h.Exemplar(); ex == nil || ex.TraceID != 42 || ex.RequestID != "req-abc" {
		t.Fatalf("exemplar = %+v", h.Exemplar())
	}
	// Anonymous observations must not overwrite the identified exemplar.
	h.ObserveEx(9, 0, "")
	if ex := h.Exemplar(); ex == nil || ex.Value != 0.25 {
		t.Fatalf("anonymous ObserveEx overwrote exemplar: %+v", ex)
	}
}

func TestObserverCalibration(t *testing.T) {
	o := NewObserver(NewRegistry(), nil)
	o.ObserveCalibration("a", 1)
	o.ObserveCalibration("a", 2.718281828459045)
	if got := o.Calibration.With("a").Count(); got != 2 {
		t.Fatalf("by-arm count = %d, want 2", got)
	}
	o.ObserveCalibration("a", 0) // no prediction: must be dropped
	if got := o.Calibration.With("a").Count(); got != 2 {
		t.Fatalf("ratio 0 was admitted: count %d", got)
	}
}

func TestObserverEvents(t *testing.T) {
	o := NewObserver(NewRegistry(), nil)
	o.Emit(Event{Kind: EventBreaker, Detail: "closed->open: trip"})
	if o.Events() != nil {
		t.Fatal("events must be nil before EnableEvents")
	}
	o.EnableEvents(4)
	o.EnableEvents(999) // idempotent
	o.Emit(Event{Kind: EventSwapAccepted, Detail: "samples=10"})
	got := o.Events()
	if len(got) != 1 || got[0].Kind != EventSwapAccepted {
		t.Fatalf("events = %+v", got)
	}
}

func TestLinkedTraces(t *testing.T) {
	o := NewObserver(NewRegistry(), nil)
	if o.StartLinkedTrace("retrain", Cause{}) != nil {
		t.Fatal("linked trace must be nil before EnableTracing")
	}
	o.EnableTracing(4)
	q := o.StartTrace("SELECT 1")
	q.SetRequestID("req-1")
	o.FinishTrace(q)
	rt := o.StartLinkedTrace("retrain", q.Cause())
	rt.AddSpan("fit", time.Now(), time.Millisecond, "")
	o.FinishTrace(rt)
	traces := o.Traces()
	if len(traces) != 2 {
		t.Fatalf("traces = %d, want 2", len(traces))
	}
	// Newest first: the retrain trace links back to the query trace.
	if traces[0].Kind != "retrain" || traces[0].CauseID != q.ID || traces[0].RequestID != "req-1" {
		t.Fatalf("retrain trace = %+v (query ID %d)", traces[0], q.ID)
	}
	if traces[1].Kind != "query" || traces[1].RequestID != "req-1" {
		t.Fatalf("query trace = %+v", traces[1])
	}
}

func TestRequestIDContext(t *testing.T) {
	id := MintRequestID()
	if len(id) != 16 {
		t.Fatalf("minted id %q, want 16 hex chars", id)
	}
	if id2 := MintRequestID(); id2 == id {
		t.Fatalf("two minted ids collided: %q", id)
	}
	ctx := WithRequestID(t.Context(), id)
	if got := RequestIDFrom(ctx); got != id {
		t.Fatalf("RequestIDFrom = %q, want %q", got, id)
	}
	if got := RequestIDFrom(t.Context()); got != "" {
		t.Fatalf("empty context yielded %q", got)
	}
}

func TestDebugEventsEndpoint(t *testing.T) {
	o := NewObserver(NewRegistry(), NewTraceRing(8))
	o.EnableEvents(8)
	o.Emit(Event{Kind: EventSwapAccepted, Detail: "samples=5"})
	o.Emit(Event{Kind: EventCheckpoint, Generation: 3})

	srv := httptest.NewServer(Handler(o))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/debug/events?n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	var events []Event
	if err := json.NewDecoder(res.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	// Newest first, limited to 1.
	if len(events) != 1 || events[0].Kind != EventCheckpoint || events[0].Generation != 3 {
		t.Fatalf("events = %+v", events)
	}
}

func TestNilSafetyLoop(t *testing.T) {
	// The disabled observer must absorb every learning-loop call without
	// panicking and hand back empty values.
	o := Disabled()
	o.ObserveCalibration("a", 2)
	o.EnableEvents(8)
	o.Emit(Event{Kind: EventCensored})
	if o.Events() != nil || o.Journal() != nil {
		t.Fatal("disabled observer must not journal events")
	}
	if tr := o.StartLinkedTrace("retrain", Cause{TraceID: 1}); tr != nil {
		t.Fatal("disabled observer must not create linked traces")
	}
	var j *EventJournal
	if err := j.LogTo("/nonexistent/x", 0, 0); err != nil {
		t.Fatal("nil journal LogTo must be a no-op")
	}
	j.Append(Event{})
	if j.Events() != nil {
		t.Fatal("nil journal events must be nil")
	}
	var h *Histogram
	h.ObserveEx(1, 2, "x")
	if h.Exemplar() != nil {
		t.Fatal("nil histogram exemplar must be nil")
	}
	var hv *HistogramVec
	hv.With("x").Observe(1)
}
