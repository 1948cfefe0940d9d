package baoserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"testing"
	"time"

	"bao/internal/cloud"
	"bao/internal/core"
	"bao/internal/executor"
)

// postRaw posts JSON and returns the status code and raw body, regardless
// of status (postJSON only decodes 200s).
func postRaw(t *testing.T, url string, body any) (int, []byte) {
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
	return resp.StatusCode, data
}

// labeledSum sums a labeled counter family over its series.
func labeledSum(b *core.Bao, name string) (n float64) {
	for _, v := range b.Stats().Labeled[name] {
		n += v
	}
	return n
}

// censoredQuery runs one fault-stalled query against a fresh server with a
// per-query deadline and returns the 504 payload plus the recorded
// experience.
func censoredQuery(t *testing.T, workers int) (queryTimeoutResponse, core.Experience) {
	t.Helper()
	const stallAt = 11
	s := newTestServer(t, Config{}, func(cfg *core.Config) {
		cfg.Train.Workers = workers
		cfg.QueryTimeout = 25 * time.Millisecond
	})
	s.Bao().Eng.Exec.Fault = &executor.Fault{AfterPages: stallAt, Stall: true}
	code, body := postRaw(t, "http://"+s.Addr()+"/v1/query", selectRequest{SQL: testSQL})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %q)", code, body)
	}
	var resp queryTimeoutResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode 504 body %q: %v", body, err)
	}
	exps := s.Bao().Experiences()
	if len(exps) != 1 {
		t.Fatalf("window = %d experiences, want 1 censored", len(exps))
	}
	s.selMu.Lock()
	pending := len(s.pending)
	s.selMu.Unlock()
	if pending != 0 {
		t.Fatalf("timed-out query left %d pending selections", pending)
	}
	return resp, exps[0]
}

// TestQueryTimeoutCensoredAndDeterministic is the acceptance-criterion
// test: a deadline-exceeded query returns 504 within one
// cancellation-check interval of the injected stall, records a censored
// experience at exactly the configured budget, and the abort point —
// partial simulated seconds included — is byte-identical across worker
// counts (and, under -race, across runs).
func TestQueryTimeoutCensoredAndDeterministic(t *testing.T) {
	wantBudget := cloud.DeadlineBudgetSecs(25 * time.Millisecond)
	base, baseExp := censoredQuery(t, 1)
	if !base.Censored || base.BudgetSecs != wantBudget {
		t.Fatalf("504 payload %+v, want censored at budget %v", base, wantBudget)
	}
	// The deadline is enforced on the wall clock while PartialSecs is the
	// abandoned work's *simulated* cost, so it has no a-priori relation to
	// the budget — only to the fault's page ordinal.
	if base.PartialSecs <= 0 {
		t.Fatalf("partial simulated cost = %v, want > 0", base.PartialSecs)
	}
	if !baseExp.Censored || baseExp.Secs != wantBudget {
		t.Fatalf("experience %+v, want Censored at Secs=%v", baseExp, wantBudget)
	}
	for _, w := range []int{2, 4} {
		resp, exp := censoredQuery(t, w)
		if resp.PartialSecs != base.PartialSecs || resp.ArmID != base.ArmID {
			t.Fatalf("workers=%d: abort point (%v, arm %d) != baseline (%v, arm %d)",
				w, resp.PartialSecs, resp.ArmID, base.PartialSecs, base.ArmID)
		}
		if exp.Secs != baseExp.Secs || exp.ArmID != baseExp.ArmID || !exp.Censored {
			t.Fatalf("workers=%d: experience %+v != baseline %+v", w, exp, baseExp)
		}
	}
}

func TestQueryTimeoutMetricsAndTrace(t *testing.T) {
	s := newTestServer(t, Config{}, func(cfg *core.Config) { cfg.QueryTimeout = 25 * time.Millisecond })
	s.Bao().Observer().EnableTracing(8)
	s.Bao().Eng.Exec.Fault = &executor.Fault{AfterPages: 7, Stall: true}
	code, _ := postRaw(t, "http://"+s.Addr()+"/v1/query", selectRequest{SQL: testSQL})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", code)
	}
	snap := s.Bao().Stats()
	if n := snap.Counter("bao_query_timeouts_total"); n != 1 {
		t.Fatalf("bao_query_timeouts_total = %v, want 1", n)
	}
	traces := s.Bao().Observer().Traces()
	if len(traces) == 0 {
		t.Fatal("no trace published for the timed-out query")
	}
	tr := traces[0]
	wantBudget := cloud.DeadlineBudgetSecs(25 * time.Millisecond)
	if !tr.Censored || tr.DeadlineSecs != wantBudget || tr.ObservedSecs != wantBudget {
		t.Fatalf("trace deadline fields = censored=%v deadline=%v observed=%v, want %v",
			tr.Censored, tr.DeadlineSecs, tr.ObservedSecs, wantBudget)
	}
}

// TestAbandonedRequestRecordsNothing is the abandoned-request regression
// test: when the HTTP-level RequestTimeout 503s a query mid-execution, the
// handler goroutine must stop at the next cancellation check and leave the
// experience window, the explog, and the pending-selection table exactly
// as it found them — only the abandonment counter moves.
func TestAbandonedRequestRecordsNothing(t *testing.T) {
	logPath := t.TempDir() + "/abandon.explog"
	s := newTestServer(t, Config{
		RequestTimeout: 60 * time.Millisecond,
		LogPath:        logPath,
	}, nil)
	// Stall forever: only the request context's death can release it.
	s.Bao().Eng.Exec.Fault = &executor.Fault{AfterPages: 5, Stall: true}
	code, body := postRaw(t, "http://"+s.Addr()+"/v1/query", selectRequest{SQL: testSQL})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 from TimeoutHandler (body %q)", code, body)
	}
	// The 503 races the handler goroutine; wait for it to finish
	// abandoning, before or after its selection.
	waitFor(t, "the abandon", func() bool { return labeledSum(s.Bao(), "bao_server_abandoned_total") >= 1 })
	if n := s.Bao().ExperienceSize(); n != 0 {
		t.Fatalf("abandoned request grew the window to %d", n)
	}
	snap := s.Bao().Stats()
	if n := snap.Counter("bao_queries_total"); n != 0 {
		t.Fatalf("abandoned request counted as completed (bao_queries_total=%v)", n)
	}
	if n := snap.Counter("bao_query_timeouts_total"); n != 0 {
		t.Fatalf("abandoned request recorded a censored experience (%v)", n)
	}
	if n := snap.Counter("bao_server_explog_records_total"); n != 0 {
		t.Fatalf("abandoned request appended %v explog records", n)
	}
	s.selMu.Lock()
	pending := len(s.pending)
	s.selMu.Unlock()
	if pending != 0 {
		t.Fatalf("abandoned request parked %d selections", pending)
	}
	// The server must still be fully serviceable.
	s.Bao().Eng.Exec.Fault = nil
	var ok queryResponse
	if code := postJSON(t, "http://"+s.Addr()+"/v1/query", selectRequest{SQL: testSQL}, &ok); code != http.StatusOK {
		t.Fatalf("follow-up query status = %d, want 200", code)
	}
}

// TestExecuteFailureReleasesSelection is the /v1/query error-path
// regression test: an execution failure after a successful Select must
// surface a 500 and release everything — no pending entry, no experience,
// in-flight accounting drained — leaving the server healthy.
func TestExecuteFailureReleasesSelection(t *testing.T) {
	s := newTestServer(t, Config{}, nil)
	bang := errors.New("page checksum mismatch")
	s.Bao().Eng.Exec.Fault = &executor.Fault{AfterPages: 5, Err: bang}
	code, body := postRaw(t, "http://"+s.Addr()+"/v1/query", selectRequest{SQL: testSQL})
	if code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %q)", code, body)
	}
	if n := s.Bao().ExperienceSize(); n != 0 {
		t.Fatalf("failed execution recorded %d experiences", n)
	}
	s.selMu.Lock()
	pending := len(s.pending)
	s.selMu.Unlock()
	if pending != 0 {
		t.Fatalf("failed execution left %d pending selections", pending)
	}
	var st statusResponse
	if code := getJSON(t, "http://"+s.Addr()+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status endpoint = %d", code)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight count stuck at %d after the 500", st.InFlight)
	}
	s.Bao().Eng.Exec.Fault = nil
	var ok queryResponse
	if code := postJSON(t, "http://"+s.Addr()+"/v1/query", selectRequest{SQL: testSQL}, &ok); code != http.StatusOK {
		t.Fatalf("follow-up query status = %d, want 200", code)
	}
	if n := s.Bao().ExperienceSize(); n != 1 {
		t.Fatalf("follow-up query recorded %d experiences, want 1", n)
	}
}

// TestObserveAfterDisconnectKeepsSelection: a parked selection must
// survive an abandoned observe so the client can retry it.
func TestObserveAfterDisconnectKeepsSelection(t *testing.T) {
	s := newTestServer(t, Config{}, nil)
	var selResp selectResponse
	if code := postJSON(t, "http://"+s.Addr()+"/v1/select", selectRequest{SQL: testSQL}, &selResp); code != http.StatusOK {
		t.Fatalf("select status = %d", code)
	}
	s.selMu.Lock()
	pending := len(s.pending)
	s.selMu.Unlock()
	if pending != 1 {
		t.Fatalf("pending = %d after select, want 1", pending)
	}
	// A normal observe consumes it.
	var obsResp observeResponse
	if code := postJSON(t, "http://"+s.Addr()+"/v1/observe",
		observeRequest{SelectionID: selResp.SelectionID, Secs: 0.02}, &obsResp); code != http.StatusOK {
		t.Fatalf("observe status = %d", code)
	}
	if obsResp.Experience != 1 {
		t.Fatalf("experience = %d after observe, want 1", obsResp.Experience)
	}
}
