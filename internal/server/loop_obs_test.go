package baoserver

// Tests for the serving layer's learning-loop observability: request-ID
// propagation from the HTTP edge through the decision loop, linked
// retrain/checkpoint traces under load, the live /debug/regret and
// /debug/events endpoints, and the metrics contract against DESIGN.md §8.

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"bao/internal/core"
	"bao/internal/guard"
	"bao/internal/obs"
)

func TestRequestIDPropagation(t *testing.T) {
	s := newTestServer(t, Config{}, nil)
	base := "http://" + s.Addr()

	// A client-supplied ID is echoed back and stamped on the decision trace.
	req, err := http.NewRequest(http.MethodPost, base+"/v1/query",
		strings.NewReader(`{"sql": "`+testSQL+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Bao-Request-Id", "req-propagate")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Bao-Request-Id"); got != "req-propagate" {
		t.Fatalf("echoed id = %q, want req-propagate", got)
	}
	var found bool
	for _, tr := range s.o.Traces() {
		if tr.Kind == "query" && tr.RequestID == "req-propagate" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no query trace carries the request id; traces: %+v", s.o.Traces())
	}

	// Without a client ID the server mints one and echoes it.
	resp2, err := http.Post(base+"/v1/query", "application/json",
		strings.NewReader(`{"sql": "`+testSQL+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Bao-Request-Id"); len(got) != 16 {
		t.Fatalf("minted id = %q, want 16 hex chars", got)
	}
}

// TestRetrainLinkedTracesUnderLoad drives the query loop over HTTP until
// the async trainer swaps a model, then resolves the retrain's spans and
// the checkpoint write from the triggering query's trace — the
// acceptance path for cross-component trace propagation.
func TestRetrainLinkedTracesUnderLoad(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{CheckpointDir: dir}, func(cfg *core.Config) {
		cfg.RetrainEvery = 16
	})
	base := "http://" + s.Addr()

	for i := 0; i < 20; i++ {
		var out struct{ Arm string }
		if code := postJSON(t, base+"/v1/query", map[string]string{"sql": testSQL}, &out); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	waitTrainCount(t, s.bao, 1)
	// The count moves at the swap; the retrain trace is published when the
	// retrain returns, and the checkpoint trace after that.
	deadline := time.Now().Add(15 * time.Second)
	for !slices.ContainsFunc(s.o.Traces(), func(tr *obs.Trace) bool { return tr.Kind == "checkpoint" }) {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint trace published")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The journal first: a swap is journalled before its retrain trace is
	// published, so every swap read here has its trace published by the
	// time the retrain returns. More than one retrain may have run.
	var events []obs.Event
	if code := getJSON(t, base+"/debug/events", &events); code != http.StatusOK {
		t.Fatalf("/debug/events status %d", code)
	}
	var traces []*obs.Trace
	retrains := map[uint64]*obs.Trace{} // by cause
	for {
		traces = s.o.Traces()
		clear(retrains)
		for _, tr := range traces {
			if tr.Kind == "retrain" {
				retrains[tr.CauseID] = tr
			}
		}
		unpublished := slices.ContainsFunc(events, func(ev obs.Event) bool {
			return ev.Kind == obs.EventSwapAccepted && retrains[ev.TraceID] == nil
		})
		if !unpublished {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("a journalled swap's retrain trace was never published")
		}
		time.Sleep(5 * time.Millisecond)
	}
	byID := map[uint64]*obs.Trace{}
	for _, tr := range traces {
		byID[tr.ID] = tr
	}
	if len(retrains) == 0 {
		t.Fatalf("no retrain trace published; have %d traces", len(traces))
	}
	for cause, retrain := range retrains {
		if cause == 0 {
			t.Fatalf("retrain trace not linked to a cause: %+v", retrain)
		}
		// The cause must resolve to a published query decision trace.
		q := byID[cause]
		if q == nil || q.Kind != "query" {
			t.Fatalf("retrain cause %d does not resolve to a query trace", cause)
		}
		if retrain.RequestID == "" || q.RequestID != retrain.RequestID {
			t.Fatalf("request id not propagated: query %q vs retrain %q", q.RequestID, retrain.RequestID)
		}
		for _, want := range []string{"sample", "fit", "validate", "swap"} {
			if !slices.ContainsFunc(retrain.Spans, func(sp obs.Span) bool { return sp.Name == want }) {
				t.Fatalf("retrain trace missing span %q: %+v", want, retrain.Spans)
			}
		}
	}
	for _, tr := range traces {
		if tr.Kind == "checkpoint" && retrains[tr.CauseID] == nil {
			t.Fatalf("checkpoint cause %d is no retrain's cause", tr.CauseID)
		}
	}

	// The regret ledger and event journal serve live data over HTTP.
	var snap obs.RegretSnapshot
	if code := getJSON(t, base+"/debug/regret", &snap); code != http.StatusOK {
		t.Fatalf("/debug/regret status %d", code)
	}
	if snap.Decisions < 20 || len(snap.Window) == 0 {
		t.Fatalf("regret snapshot not live: %+v decisions", snap.Decisions)
	}
	var sawSwap, sawCkpt bool
	for _, ev := range events {
		switch ev.Kind {
		case obs.EventSwapAccepted:
			sawSwap = true
			if retrains[ev.TraceID] == nil {
				t.Fatalf("swap event trace %d is no retrain's cause", ev.TraceID)
			}
		case obs.EventCheckpoint:
			sawCkpt = true
		}
	}
	if !sawSwap || !sawCkpt {
		t.Fatalf("journal missing swap/checkpoint events: %+v", events)
	}
}

// TestEventLogFileSink checks the rotating JSONL sink end to end: a
// server configured with EventLogPath streams journal events to disk.
func TestEventLogFileSink(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/events.jsonl"
	s := newTestServer(t, Config{EventLogPath: path}, func(cfg *core.Config) {
		cfg.RetrainEvery = 16
	})
	base := "http://" + s.Addr()
	for i := 0; i < 20; i++ {
		if code := postJSON(t, base+"/v1/query", map[string]string{"sql": testSQL}, nil); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	waitTrainCount(t, s.bao, 1)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), `"kind":"`+obs.EventSwapAccepted+`"`) {
		t.Fatalf("event log missing swap-accepted:\n%s", buf)
	}
}

// metricName extracts `bao_*` metric names from prose/markdown.
var metricName = regexp.MustCompile(`bao_[a-z0-9_]+`)

// TestMetricsContract is the contract between DESIGN.md §8 and the live
// /metrics endpoint, run both ways: boot a real server, drive a short
// workload through /v1/query, scrape, and require every metric the design
// document names to be present in the exposition (registered metrics emit
// # TYPE lines even at zero) and every bao_* metric in the exposition to
// be named in §8. A metric renamed or dropped without updating the docs,
// documented but never registered, or registered but never documented
// fails here. `go test -race ./...` runs it like any other test.
func TestMetricsContract(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(design)
	start := strings.Index(text, "## 8.")
	end := strings.Index(text, "## 9.")
	if start < 0 || end < 0 || end <= start {
		t.Fatal("DESIGN.md §8/§9 markers not found")
	}
	documented := map[string]bool{}
	for _, m := range metricName.FindAllString(text[start:end], -1) {
		documented[m] = true
	}
	if len(documented) < 30 {
		t.Fatalf("only %d metric names extracted from §8 — did the section move?", len(documented))
	}

	s := newTestServer(t, Config{}, nil)
	base := "http://" + s.Addr()
	for i := 0; i < 5; i++ {
		if code := postJSON(t, base+"/v1/query", map[string]string{"sql": testSQL}, nil); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	for _, m := range typeLine.FindAllStringSubmatch(string(body), -1) {
		live[m[1]] = true
	}
	var missing, undocumented []string
	for name := range documented {
		if !live[name] {
			missing = append(missing, name)
		}
	}
	for name := range live {
		if !documented[name] {
			undocumented = append(undocumented, name)
		}
	}
	if len(missing) > 0 {
		t.Errorf("metrics documented in DESIGN.md §8 but absent from /metrics: %v", missing)
	}
	if len(undocumented) > 0 {
		t.Errorf("metrics on /metrics but not named in DESIGN.md §8: %v", undocumented)
	}
}

// typeLine captures the metric name of each # TYPE line in an exposition.
var typeLine = regexp.MustCompile(`(?m)^# TYPE (bao_[a-z0-9_]+) `)

// TestEveryEventKindHasAMetric drives each lifecycle event kind once and
// checks that the counter or gauge named beside the kind (obs.Event*
// constants, DESIGN.md §8) moved with it — by exactly the number of
// events journalled, for a counter. The journal links events to
// requests; counting them is the metrics' job.
func TestEveryEventKindHasAMetric(t *testing.T) {
	// trained returns an optimizer on o with a few experiences in its
	// window, trained once when train is set.
	trained := func(t *testing.T, o *obs.Observer, train bool, mutate func(*core.Config)) *core.Bao {
		b := newTestBao(t, func(c *core.Config) {
			c.Observer = o
			if mutate != nil {
				mutate(c)
			}
		})
		seedWindow(t, b)
		if train {
			b.Retrain()
		}
		return b
	}
	server := func(t *testing.T, o *obs.Observer, dir string) *Server {
		s := newTestServer(t, Config{CheckpointDir: dir}, func(c *core.Config) { c.Observer = o })
		seedWindow(t, s.Bao())
		s.Bao().Retrain()
		return s
	}
	openLog := func(t *testing.T, o *obs.Observer, fault *DiskFault, n int) *ExperienceLog {
		l, err := OpenLog(filepath.Join(t.TempDir(), "bao.explog"), LogOptions{
			Observer: o, Fault: fault, SegmentBytes: 1 << 20, WindowCap: 64, ManualCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		appendSeg(t, l, 0, n)
		return l
	}
	for _, c := range []struct {
		kind, metric string
		// setup brings the system to just before the event; fire emits it.
		setup func(t *testing.T, o *obs.Observer) (fire func())
	}{
		{obs.EventSwapAccepted, "bao_retrains_total", func(t *testing.T, o *obs.Observer) func() {
			return trained(t, o, false, nil).Retrain
		}},
		{obs.EventSwapRejected, "bao_retrain_rejected_total", func(t *testing.T, o *obs.Observer) func() {
			return trained(t, o, false, func(c *core.Config) {
				c.Validate.Enabled = true
				c.Fault = &guard.Fault{NaNOnFit: 1}
			}).Retrain
		}},
		{obs.EventTrainerPanic, "bao_trainer_panics_total", func(t *testing.T, o *obs.Observer) func() {
			return trained(t, o, false, func(c *core.Config) { c.Fault = &guard.Fault{PanicOnFit: 1} }).Retrain
		}},
		{obs.EventBreaker, "bao_breaker_state", func(t *testing.T, o *obs.Observer) func() {
			b := trained(t, o, false, func(c *core.Config) { c.Breaker = guard.BreakerConfig{Enabled: true} })
			return func() { b.Breaker().Trip("test") }
		}},
		{obs.EventCensored, "bao_query_timeouts_total", func(t *testing.T, o *obs.Observer) func() {
			b := trained(t, o, false, nil)
			return func() { b.ObserveTimeout(selectOnce(t, b), 0.25) }
		}},
		{obs.EventAbandoned, "bao_server_abandoned_total", func(t *testing.T, o *obs.Observer) func() {
			b := trained(t, o, false, nil)
			return func() { b.Abandon(selectOnce(t, b).Ticket(), "client went away") }
		}},
		{obs.EventCheckpoint, "bao_checkpoints_saved_total", func(t *testing.T, o *obs.Observer) func() {
			s := server(t, o, t.TempDir())
			return func() { s.saveCheckpoint(obs.Cause{}) }
		}},
		{obs.EventCheckpointError, "bao_checkpoint_save_errors_total", func(t *testing.T, o *obs.Observer) func() {
			dir := t.TempDir()
			s := server(t, o, dir)
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			return func() { s.saveCheckpoint(obs.Cause{}) }
		}},
		{obs.EventRollback, "bao_checkpoint_rollbacks_total", func(t *testing.T, o *obs.Observer) func() {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, checkpointFileName(1)), []byte("not a checkpoint"), 0o644); err != nil {
				t.Fatal(err)
			}
			return func() { newTestServer(t, Config{CheckpointDir: dir}, func(c *core.Config) { c.Observer = o }) }
		}},
		{obs.EventExplogDegraded, "bao_explog_degraded", func(t *testing.T, o *obs.Observer) func() {
			l := openLog(t, o, &DiskFault{FailFsync: 1}, 2)
			return func() { l.Sync() }
		}},
		{obs.EventExplogRestored, "bao_explog_degraded", func(t *testing.T, o *obs.Observer) func() {
			l := openLog(t, o, &DiskFault{FailFsync: 1}, 2)
			l.Sync()
			return func() { appendSeg(t, l, 2, 1) }
		}},
		{obs.EventExplogSnapshot, "bao_explog_snapshots_total", func(t *testing.T, o *obs.Observer) func() {
			l := openLog(t, o, nil, 20)
			forceSeal(t, l)
			return func() { l.Compact() }
		}},
		{obs.EventExplogSnapshotError, "bao_explog_snapshot_errors_total", func(t *testing.T, o *obs.Observer) func() {
			l := openLog(t, o, &DiskFault{FailSnapshotWrite: 1}, 20)
			forceSeal(t, l)
			return func() { l.Compact() }
		}},
	} {
		t.Run(c.kind, func(t *testing.T) {
			o := obs.NewObserver(obs.NewRegistry(), nil)
			o.EnableEvents(256)
			fire := c.setup(t, o)
			read := func() float64 {
				s := o.Snapshot()
				if v, ok := s.Counters[c.metric]; ok {
					return v
				}
				if v, ok := s.Gauges[c.metric]; ok {
					return v
				}
				t.Fatalf("%s is neither a counter nor a gauge", c.metric)
				return 0
			}
			count := func() (n int) {
				for _, ev := range o.Events() {
					if ev.Kind == c.kind {
						n++
					}
				}
				return n
			}
			v0, n0 := read(), count()
			fire()
			v1, n := read(), count()-n0
			if n < 1 {
				t.Fatalf("no %s event emitted", c.kind)
			}
			if v1 == v0 {
				t.Fatalf("%s did not move with the %s event (%v)", c.metric, c.kind, v0)
			}
			if _, counter := o.Snapshot().Counters[c.metric]; counter && v1-v0 != float64(n) {
				t.Fatalf("%s moved by %v for %d %s events", c.metric, v1-v0, n, c.kind)
			}
		})
	}
}

// seedWindow puts three observed experiences into b's window: enough to
// train on, too few for the retrain schedule to fire on its own.
func seedWindow(t *testing.T, b *core.Bao) {
	t.Helper()
	sel := selectOnce(t, b)
	for i := 0; i < 3; i++ {
		b.ObserveValue(sel, 0.01)
	}
}

func selectOnce(t *testing.T, b *core.Bao) *core.Selection {
	t.Helper()
	sel, err := b.Select(testSQL)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}
