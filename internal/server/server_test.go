package baoserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bao/internal/core"
	"bao/internal/engine"
	"bao/internal/executor"
	"bao/internal/guard"
	"bao/internal/obs"
	"bao/internal/workload"
)

// newTestBao builds a small IMDb instance with a cheap 3-arm, fast-train
// configuration and a private observer (so metric assertions are not
// polluted across tests).
func newTestBao(t *testing.T, mutate func(*core.Config)) *core.Bao {
	t.Helper()
	e := engine.New(engine.GradePostgreSQL, 2500)
	inst := workload.IMDb(workload.Config{Scale: 0.1, Queries: 1, Seed: 42})
	if err := inst.Setup(e); err != nil {
		t.Fatal(err)
	}
	cfg := core.FastConfig()
	cfg.Arms = core.TopArms(3)
	cfg.ArmWarmup = 0
	cfg.RetrainEvery = 16
	cfg.Train.MaxEpochs = 3
	cfg.Train.Workers = 2
	cfg.Observer = obs.NewObserver(obs.NewRegistry(), nil)
	if mutate != nil {
		mutate(&cfg)
	}
	return core.New(e, cfg)
}

// newTestServer wires a started server around a fresh optimizer and
// registers a graceful shutdown for cleanup.
func newTestServer(t *testing.T, scfg Config, mutate func(*core.Config)) *Server {
	t.Helper()
	b := newTestBao(t, mutate)
	s, err := New(b, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

const testSQL = "SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id AND t.production_year > 1990"

// postJSON posts a JSON body and decodes the JSON response into out (when
// non-nil), returning the status code.
func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	enc, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v (body %q)", url, err, data)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v (body %q)", url, err, data)
		}
	}
	return resp.StatusCode
}

// waitTrained polls until the async trainer has completed n retrains.
func waitTrainCount(t *testing.T, b *core.Bao, n int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for b.TrainCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("trainer never reached %d retrains (at %d)", n, b.TrainCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQueryLoopTrainsAndSwaps drives the full select-execute-observe loop
// over HTTP until the retrain schedule fires, and asserts the background
// trainer hot-swaps a model that subsequent selections actually use.
func TestQueryLoopTrainsAndSwaps(t *testing.T) {
	s := newTestServer(t, Config{}, nil)
	base := "http://" + s.Addr()
	for i := 0; i < 16; i++ {
		var qr queryResponse
		if code := postJSON(t, base+"/v1/query", selectRequest{SQL: testSQL}, &qr); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
		if qr.Rows == 0 && qr.SimulatedSecs == 0 {
			t.Fatalf("query %d returned an empty execution: %+v", i, qr)
		}
	}
	waitTrainCount(t, s.Bao(), 1)
	var qr queryResponse
	if code := postJSON(t, base+"/v1/query", selectRequest{SQL: testSQL}, &qr); code != http.StatusOK {
		t.Fatalf("post-train query: status %d", code)
	}
	if !qr.UsedModel {
		t.Fatalf("selection after hot swap did not use the model: %+v", qr)
	}
	var st statusResponse
	if code := getJSON(t, base+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if !st.Trained || st.TrainCount != 1 || st.Experience != 17 {
		t.Fatalf("status = %+v", st)
	}
	// The swap and the serving metrics must be visible on /metrics.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"bao_retrains_total 1", "bao_queries_total 17", "bao_server_request_seconds_count"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestSelectObserveRoundTrip exercises the advisor integration: the
// client executes the plan itself and reports the latency back against
// the parked selection.
func TestSelectObserveRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{}, nil)
	base := "http://" + s.Addr()
	var sr selectResponse
	if code := postJSON(t, base+"/v1/select", selectRequest{SQL: testSQL}, &sr); code != http.StatusOK {
		t.Fatalf("select: status %d", code)
	}
	if sr.SelectionID == 0 || sr.Arm == "" {
		t.Fatalf("select response: %+v", sr)
	}
	var or observeResponse
	if code := postJSON(t, base+"/v1/observe", observeRequest{SelectionID: sr.SelectionID, Secs: 0.02}, &or); code != http.StatusOK {
		t.Fatalf("observe: status %d", code)
	}
	if or.Experience != 1 {
		t.Fatalf("observe response: %+v", or)
	}
	// A selection closes at most once.
	if code := postJSON(t, base+"/v1/observe", observeRequest{SelectionID: sr.SelectionID, Secs: 0.02}, nil); code != http.StatusNotFound {
		t.Fatalf("replayed observe: status %d, want 404", code)
	}
	// Bad SQL is the client's fault.
	if code := postJSON(t, base+"/v1/select", selectRequest{SQL: "SELEC nope"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad sql: status %d, want 400", code)
	}
}

// TestSelectsDontBlockOnRetrain is the acceptance scenario: with the fit
// artificially slowed, concurrent selections must complete while the
// retrain is in flight (the fast path shares the previous model and never
// waits), and the fitted model must be picked up afterwards.
func TestSelectsDontBlockOnRetrain(t *testing.T) {
	const delay = 1500 * time.Millisecond
	s := newTestServer(t, Config{}, func(cfg *core.Config) {
		cfg.Fault = &guard.Fault{SlowFit: delay}
	})
	base := "http://" + s.Addr()
	for i := 0; i < 16; i++ {
		if code := postJSON(t, base+"/v1/query", selectRequest{SQL: testSQL}, nil); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	// The 16th observation signaled the trainer, whose fit is now sleeping
	// through SlowFit. Selections during that window must not block.
	if tc := s.Bao().TrainCount(); tc != 0 {
		t.Fatalf("trainer finished before the delay elapsed (trainCount=%d)", tc)
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sr selectResponse
			if code := postJSON(t, base+"/v1/select", selectRequest{SQL: testSQL}, &sr); code != http.StatusOK {
				errs <- fmt.Errorf("concurrent select: status %d", code)
				return
			}
			if sr.UsedModel {
				errs <- fmt.Errorf("selection used a model that cannot have been fit yet")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if burst := time.Since(start); burst >= delay {
		t.Fatalf("concurrent selects took %v — they waited out the %v retrain", burst, delay)
	}
	if tc := s.Bao().TrainCount(); tc != 0 {
		t.Fatalf("retrain completed mid-burst (trainCount=%d); timing assertions void", tc)
	}
	// Once the trainer finishes, the swapped-in model serves immediately.
	waitTrainCount(t, s.Bao(), 1)
	var sr selectResponse
	if code := postJSON(t, base+"/v1/select", selectRequest{SQL: testSQL}, &sr); code != http.StatusOK {
		t.Fatalf("post-swap select: status %d", code)
	}
	if !sr.UsedModel {
		t.Fatal("post-swap selection did not use the hot-swapped model")
	}
}

// TestConcurrentTrafficRace drives selections, full queries, feedback,
// status, and metrics scrapes from many goroutines at once; run under
// -race this is the serving layer's data-race certification.
func TestConcurrentTrafficRace(t *testing.T) {
	s := newTestServer(t, Config{}, func(c *core.Config) { c.RetrainEvery = 20 })
	base := "http://" + s.Addr()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if code := postJSON(t, base+"/v1/query", selectRequest{SQL: testSQL}, nil); code != http.StatusOK {
					errs <- fmt.Errorf("query: status %d", code)
				}
			}
		}()
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				var sr selectResponse
				if code := postJSON(t, base+"/v1/select", selectRequest{SQL: testSQL}, &sr); code != http.StatusOK {
					errs <- fmt.Errorf("select: status %d", code)
					continue
				}
				if code := postJSON(t, base+"/v1/observe", observeRequest{SelectionID: sr.SelectionID, Secs: 0.015}, nil); code != http.StatusOK {
					errs <- fmt.Errorf("observe: status %d", code)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			var st statusResponse
			getJSON(t, base+"/v1/status", &st)
			http.Get(base + "/metrics") //nolint:errcheck // scrape pressure only
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.Bao().ExperienceSize(); got != 48 {
		t.Fatalf("experience window = %d after 48 observed requests", got)
	}
}

// TestRestartReplaysLog is the durability acceptance: kill a server,
// start a fresh one on the same log, and the window and critical-query
// registry come back.
func TestRestartReplaysLog(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "bao.explog")
	s1 := newTestServer(t, Config{LogPath: logPath}, nil)
	base := "http://" + s1.Addr()
	for i := 0; i < 12; i++ {
		if code := postJSON(t, base+"/v1/query", selectRequest{SQL: testSQL}, nil); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	var cr criticalResponse
	if code := postJSON(t, base+"/v1/critical", selectRequest{SQL: testSQL}, &cr); code != http.StatusOK {
		t.Fatalf("critical: status %d", code)
	}
	if len(cr.Critical) != 1 {
		t.Fatalf("critical response: %+v", cr)
	}
	wantExp := s1.Bao().ExperienceSize()
	wantCrit := s1.Bao().CriticalKeys()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Config{LogPath: logPath}, nil)
	if got := s2.Bao().ExperienceSize(); got != wantExp {
		t.Fatalf("replayed experience = %d, want %d", got, wantExp)
	}
	if got := s2.Bao().CriticalKeys(); len(got) != len(wantCrit) || got[0] != wantCrit[0] {
		t.Fatalf("replayed critical keys = %v, want %v", got, wantCrit)
	}
	var st statusResponse
	if code := getJSON(t, "http://"+s2.Addr()+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.LogReplayed != 13 || st.LogSkipped != 0 {
		t.Fatalf("log replay stats = %d/%d, want 13/0", st.LogReplayed, st.LogSkipped)
	}
}

// TestModelEndpointRoundTrip downloads a trained model from one server
// and uploads it into a fresh untrained one, which must start steering
// with it immediately.
func TestModelEndpointRoundTrip(t *testing.T) {
	s1 := newTestServer(t, Config{}, nil)
	base1 := "http://" + s1.Addr()
	// An untrained model is not downloadable.
	if resp, err := http.Get(base1 + "/v1/model"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("untrained model download: status %d, want 409", resp.StatusCode)
		}
	}
	for i := 0; i < 16; i++ {
		if code := postJSON(t, base1+"/v1/query", selectRequest{SQL: testSQL}, nil); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	waitTrainCount(t, s1.Bao(), 1)
	resp, err := http.Get(base1 + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(blob) == 0 {
		t.Fatalf("model download: status %d, %d bytes", resp.StatusCode, len(blob))
	}

	s2 := newTestServer(t, Config{}, nil)
	if s2.Bao().Trained() {
		t.Fatal("fresh server already trained")
	}
	resp2, err := http.Post("http://"+s2.Addr()+"/v1/model", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("model upload: status %d", resp2.StatusCode)
	}
	if !s2.Bao().Trained() {
		t.Fatal("uploaded model did not mark the optimizer trained")
	}
	var sr selectResponse
	if code := postJSON(t, "http://"+s2.Addr()+"/v1/select", selectRequest{SQL: testSQL}, &sr); code != http.StatusOK {
		t.Fatalf("select: status %d", code)
	}
	if !sr.UsedModel {
		t.Fatal("selection ignored the uploaded model")
	}
}

// TestModelPersistAcrossRestart: with CheckpointDir configured, every
// accepted retrain is a checkpoint, so after a graceful shutdown a fresh
// server on the same directory starts trained, on the generation the
// first one last reported.
func TestModelPersistAcrossRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "checkpoints")
	s1 := newTestServer(t, Config{CheckpointDir: dir}, nil)
	base := "http://" + s1.Addr()
	for i := 0; i < 16; i++ {
		if code := postJSON(t, base+"/v1/query", selectRequest{SQL: testSQL}, nil); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	waitTrainCount(t, s1.Bao(), 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Shutdown waits for the trainer, so the checkpoint of the last
	// accepted retrain is on disk when it returns.
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	gen := s1.Generation()
	if gen == 0 {
		t.Fatal("no checkpoint generation was saved before shutdown")
	}
	s2 := newTestServer(t, Config{CheckpointDir: dir}, nil)
	if !s2.Bao().Trained() {
		t.Fatal("restarted server did not restore the checkpointed model")
	}
	if v := s2.Bao().ModelVersion(); v < 1 {
		t.Fatalf("restarted ModelVersion = %d, want >= 1 (the restore is a publication)", v)
	}
	var st statusResponse
	if code := getJSON(t, "http://"+s2.Addr()+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.ModelGeneration != gen {
		t.Fatalf("restarted model_generation = %d, want the pre-shutdown %d", st.ModelGeneration, gen)
	}
}

// TestAdmissionControl fills the in-flight semaphore and asserts overflow
// requests shed with 429 (and the throttle counter moves) while the
// unthrottled status endpoint still answers.
func TestAdmissionControl(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 2}, nil)
	base := "http://" + s.Addr()
	s.admit <- struct{}{}
	s.admit <- struct{}{}
	defer func() { <-s.admit; <-s.admit }()
	if code := postJSON(t, base+"/v1/select", selectRequest{SQL: testSQL}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("overloaded select: status %d, want 429", code)
	}
	if got := s.Bao().Observer().Snapshot().Counter("bao_server_throttled_total"); got != 1 {
		t.Fatalf("bao_server_throttled_total = %v, want 1", got)
	}
	if code := getJSON(t, base+"/v1/status", &statusResponse{}); code != http.StatusOK {
		t.Fatalf("status under load: %d", code)
	}
}

// TestPendingEviction bounds the parked-selection table: the oldest
// selection is dropped once pendingLimit is exceeded, and its late
// observe gets 404 rather than corrupting state.
func TestPendingEviction(t *testing.T) {
	s := newTestServer(t, Config{}, nil)
	base := "http://" + s.Addr()
	sel, err := s.Bao().Select(testSQL)
	if err != nil {
		t.Fatal(err)
	}
	first := s.park(sel.Ticket())
	last := first
	for i := 0; i < pendingLimit; i++ {
		last = s.park(sel.Ticket())
	}
	if got := len(s.pending); got != pendingLimit {
		t.Fatalf("pending table holds %d selections, want the bound %d", got, pendingLimit)
	}
	if code := postJSON(t, base+"/v1/observe", observeRequest{SelectionID: first, Secs: 0.01}, nil); code != http.StatusNotFound {
		t.Fatalf("evicted selection observe: status %d, want 404", code)
	}
	if code := postJSON(t, base+"/v1/observe", observeRequest{SelectionID: last, Secs: 0.01}, nil); code != http.StatusOK {
		t.Fatalf("live selection observe: status %d, want 200", code)
	}
}

// TestPendingEvictionAbandonsTicket pins that every selection leaves
// exactly once. Selections are observed over /v1/observe and /v1/query,
// censored at the query deadline, cancelled by the client, evicted from
// the full pending table (each abandoned, its trace published with an
// "evicted" abandon span) and left pending until Shutdown abandons them.
// Before and after Shutdown, Σ bao_arm_selected_total =
// bao_queries_total + bao_server_abandoned_total{of="selection"} +
// pending_selections. Requests that never had a selection move only the
// of="request" series.
func TestPendingEvictionAbandonsTicket(t *testing.T) {
	s := newTestServer(t, Config{}, func(c *core.Config) {
		c.PlanCache = true
		c.PlanCacheSize = 64
		c.QueryTimeout = 500 * time.Millisecond
	})
	b := s.Bao()
	base := "http://" + s.Addr()
	abandoned := func(of string) float64 { return b.Stats().Labeled["bao_server_abandoned_total"][of] }
	identity := func(when string, pending int) {
		t.Helper()
		selected, queries, left := labeledSum(b, "bao_arm_selected_total"), b.Stats().Counter("bao_queries_total"), abandoned("selection")
		if selected != queries+left+float64(pending) {
			t.Fatalf("%s: %v selections, but %v observed + %v abandoned + %d pending", when, selected, queries, left, pending)
		}
	}

	// Observed over /v1/observe and over /v1/query.
	for i := 0; i < 3; i++ {
		var resp selectResponse
		if code := postJSON(t, base+"/v1/select", selectRequest{SQL: testSQL}, &resp); code != http.StatusOK {
			t.Fatalf("select %d: status %d", i, code)
		}
		if code := postJSON(t, base+"/v1/observe", observeRequest{SelectionID: resp.SelectionID, Secs: 0.01}, nil); code != http.StatusOK {
			t.Fatalf("observe %d: status %d", i, code)
		}
	}
	for i := 0; i < 2; i++ {
		if code := postJSON(t, base+"/v1/query", selectRequest{SQL: testSQL}, nil); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	// Censored at the query deadline: a stalled execution is cut off.
	b.Eng.Exec.Fault = &executor.Fault{AfterPages: 11, Stall: true}
	if code, body := postRaw(t, base+"/v1/query", selectRequest{SQL: testSQL}); code != http.StatusGatewayTimeout {
		t.Fatalf("stalled query: status %d (body %q), want 504", code, body)
	}
	if n := b.Stats().Counter("bao_query_timeouts_total"); n != 1 {
		t.Fatalf("bao_query_timeouts_total = %v, want 1", n)
	}
	// Cancelled by the client once its selection is made and its
	// execution stalls.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/query", strings.NewReader(`{"sql": "`+testSQL+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	before := labeledSum(b, "bao_arm_selected_total")
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, "the cancelled query's selection", func() bool { return labeledSum(b, "bao_arm_selected_total") > before })
	cancel()
	<-done
	waitFor(t, "the cancelled query's abandon", func() bool { return abandoned("selection") == 1 })
	b.Eng.Exec.Fault = nil
	identity("after observed, censored and cancelled selections", 0)

	// Requests that never had a selection: each handler finds its client
	// gone before doing anything.
	gone, stop := context.WithCancel(context.Background())
	stop()
	for _, h := range []struct {
		serve      http.HandlerFunc
		path, body string
	}{
		{s.handleSelect, "/v1/select", `{"sql": "` + testSQL + `"}`},
		{s.handleObserve, "/v1/observe", `{"selection_id": 1, "secs": 0.01}`},
		{s.handleModel, "/v1/model", ""},
		{s.handleCritical, "/v1/critical", `{"sql": "` + testSQL + `"}`},
	} {
		r := httptest.NewRequest(http.MethodPost, h.path, strings.NewReader(h.body)).WithContext(gone)
		h.serve(httptest.NewRecorder(), r)
	}
	if got, want := abandoned("request"), 4.0; got != want || abandoned("selection") != 1 {
		t.Fatalf("bao_server_abandoned_total: request %v, selection %v; want %v and 1", got, abandoned("selection"), want)
	}

	// Evicted past the bound, then left pending.
	const over = 6
	for i := 0; i < pendingLimit+over; i++ {
		if code := postJSON(t, base+"/v1/select", selectRequest{SQL: testSQL}, nil); code != http.StatusOK {
			t.Fatalf("select %d: status %d", i, code)
		}
	}
	abandonSpans := func(note string) int {
		n := 0
		for _, tr := range b.Observer().Traces() {
			for _, sp := range tr.Spans {
				if sp.Name == "abandon" && sp.Note == note {
					n++
				}
			}
		}
		return n
	}
	if n := abandonSpans("evicted"); n != over {
		t.Fatalf("%d published traces abandoned as evicted, want %d", n, over)
	}
	if n := abandoned("selection"); n != 1+over {
		t.Fatalf("bao_server_abandoned_total{of=selection} = %v, want %d", n, 1+over)
	}
	var st statusResponse
	if code := getJSON(t, base+"/v1/status", &st); code != http.StatusOK || st.Pending != pendingLimit {
		t.Fatalf("status %d, pending_selections = %d, want %d", code, st.Pending, pendingLimit)
	}
	identity("before shutdown", st.Pending)

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := abandoned("selection"); n != 1+over+pendingLimit {
		t.Fatalf("after shutdown bao_server_abandoned_total{of=selection} = %v, want %d", n, 1+over+pendingLimit)
	}
	if len(s.pending) != 0 {
		t.Fatalf("%d tickets pending after shutdown", len(s.pending))
	}
	identity("after shutdown", 0)
	if got := abandoned("request"); got != 4 {
		t.Fatalf("shutdown moved the request series to %v", got)
	}
}

// TestPendingOrderBounded runs select/observe pairs through the parked
// table — park is what /v1/select does, take what /v1/observe does — and
// checks observed selections leave it, while eviction still drops the
// oldest unobserved selection first.
func TestPendingOrderBounded(t *testing.T) {
	s := newTestServer(t, Config{}, nil)
	sel, err := s.Bao().Select(testSQL)
	if err != nil {
		t.Fatal(err)
	}
	pending := func(id uint64) bool {
		_, ok := s.take(id)
		return ok
	}
	for i := 0; i < 3*pendingLimit; i++ {
		if !pending(s.park(sel.Ticket())) {
			t.Fatal("a parked selection was not pending")
		}
	}
	if len(s.pending) != 0 {
		t.Fatalf("%d selections pending after every one was observed", len(s.pending))
	}
	unobserved := make([]uint64, pendingLimit+1)
	for i := range unobserved {
		unobserved[i] = s.park(sel.Ticket())
	}
	if len(s.pending) != pendingLimit || pending(unobserved[0]) || !pending(unobserved[1]) {
		t.Fatal("eviction did not drop exactly the oldest unobserved selection")
	}
}
