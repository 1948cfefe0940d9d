package baoserver

// Tests for the observation ticket the pending table parks between
// /v1/select and /v1/observe: observing through it books exactly what
// observing in process books, a parked selection keeps little, and
// select, observe and eviction race cleanly on one server.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"bao/internal/core"
	"bao/internal/guard"
	"bao/internal/obs"
	"bao/internal/workload"
)

// distinctTexts returns n distinct SQL texts of the stable IMDb mix at the
// test engine's scale.
func distinctTexts(t *testing.T, n int) []string {
	t.Helper()
	var out []string
	seen := map[string]bool{}
	for _, q := range workload.IMDbStable(workload.Config{Scale: 0.1, Queries: 4 * n, Seed: 7}).Queries {
		if !seen[q.SQL] {
			seen[q.SQL] = true
			out = append(out, q.SQL)
		}
	}
	if len(out) < n {
		t.Fatalf("%d distinct texts, want %d", len(out), n)
	}
	return out[:n]
}

// loopState is what one side of the differential recorded, with the
// process-global trace IDs replaced by their order of appearance among
// the side's decision traces, and wall-clock times (event stamps, fit
// durations) dropped.
type loopState struct {
	Experiences []core.Experience
	Calibration map[string]obs.HistogramSnapshot
	Breaker     guard.State
	TrainCount  int
	Events      []obs.Event
	Spans       [][]string // per decision trace, oldest first
	Booked      []booked   // per decision trace, oldest first
}

// booked is what observing wrote on a decision trace: the decision's one
// record of its predicted against its observed cost.
type booked struct {
	ArmID                 int
	UsedModel, WarmUp     bool
	Predicted, Observed   float64
	ObservedOverPredicted float64
	Censored              bool
}

func captureLoop(t *testing.T, s *Server) loopState {
	t.Helper()
	b, o := s.Bao(), s.o
	ord := map[uint64]uint64{0: 0}
	st := loopState{
		Experiences: b.Experiences(),
		Calibration: o.Snapshot().LabeledHist["bao_prediction_ratio"],
		Breaker:     b.Breaker().State(),
		TrainCount:  b.TrainCount(),
		Events:      o.Events(),
	}
	traces := o.Traces()
	slices.Reverse(traces)
	for _, tr := range traces {
		if tr.Kind != "query" {
			continue
		}
		ord[tr.ID] = uint64(len(ord))
		names := []string{}
		for _, sp := range tr.Spans {
			names = append(names, sp.Name)
		}
		st.Spans = append(st.Spans, names)
		st.Booked = append(st.Booked, booked{tr.ArmID, tr.UsedModel, tr.WarmUp, tr.PredictedSecs, tr.ObservedSecs, tr.Ratio, tr.Censored})
	}
	relabel := func(id uint64) uint64 {
		if o, ok := ord[id]; ok {
			return o
		}
		t.Fatalf("trace %d is not a published decision trace", id)
		return 0
	}
	for i := range st.Events {
		ev := &st.Events[i]
		ev.At, ev.TraceID = time.Time{}, relabel(ev.TraceID)
		if ev.Kind == obs.EventSwapAccepted {
			ev.Secs = 0 // the fit's wall time
		}
	}
	return st
}

// TestParkedObserveMatchesInProcess drives each case through two twin
// servers: one over HTTP, /v1/select then /v1/observe against the parked
// ticket, the other in process, Select then ObserveLatency on the
// selection's ticket. Everything an observation books must come out the
// same: the experience window, the calibration histogram, the breaker
// state, the event journal, and the decision traces' spans and their
// predicted and observed cost.
func TestParkedObserveMatchesInProcess(t *testing.T) {
	texts := distinctTexts(t, 24)
	type step struct {
		sql  string
		secs float64 // observed; < 0 means 1000× the prediction plus 1 s
	}
	cases := []struct {
		name   string
		warm   int // queries run through Run before the server starts
		mutate func(*core.Config)
		steps  []step
		check  func(t *testing.T, s *Server)
	}{{
		name: "model-steered",
		// A model fitted long enough to price the arms apart.
		warm: 24,
		mutate: func(c *core.Config) {
			c.Arms = core.TopArms(6)
			c.Train.MaxEpochs = 30
		},
		// Every observation stays under the 30 ms floor of the
		// gross-misprediction and breaker checks: an early retrain here
		// would swap models between the twins' selections at different
		// moments.
		steps: []step{
			{texts[0], 0.004}, {texts[1], 0.02}, {texts[2], 0.001},
			{texts[3], 0.025}, {texts[4], 0.003}, {texts[5], 0.01},
		},
		check: func(t *testing.T, s *Server) {
			steered := false
			for _, tr := range s.o.Traces() {
				if tr.Kind == "query" && (!tr.UsedModel || tr.WarmUp) {
					t.Fatalf("trace %d: used_model %v warm_up %v, want a model-steered pick", tr.ID, tr.UsedModel, tr.WarmUp)
				}
				steered = steered || tr.Kind == "query" && tr.ArmID != 0
			}
			if !steered {
				t.Fatal("the model never steered away from the default arm")
			}
		},
	}, {
		name:   "warm-up",
		warm:   20,
		mutate: func(c *core.Config) { c.ArmWarmup = 5 },
		steps:  []step{{texts[6], 0.01}, {texts[7], 0.002}},
		check: func(t *testing.T, s *Server) {
			for _, tr := range s.o.Traces() {
				if tr.Kind == "query" && !tr.WarmUp {
					t.Fatalf("trace %d is not a warm-up pick", tr.ID)
				}
			}
		},
	}, {
		name:  "cold start",
		steps: []step{{texts[8], 0.01}, {texts[9], 0.02}},
		check: func(t *testing.T, s *Server) {
			if s.Bao().Trained() || s.o.Snapshot().Counter("bao_queries_total") != 2 {
				t.Fatal("want two decisions booked with no model")
			}
		},
	}, {
		name: "degenerate predictions",
		// The first fit predicts NaN everywhere and nothing validates it:
		// the first selection after it trips the breaker.
		warm:   16,
		mutate: func(c *core.Config) { c.Fault = &guard.Fault{NaNOnFit: 1} },
		steps:  []step{{texts[10], 0.01}, {texts[11], 0.02}},
		check: func(t *testing.T, s *Server) {
			if st := s.Bao().Breaker().State(); st != guard.Open {
				t.Fatalf("breaker %v, want open", st)
			}
			if !slices.ContainsFunc(s.o.Traces(), func(tr *obs.Trace) bool { return tr.Breaker == "degenerate-predictions" }) {
				t.Fatal("no selection saw degenerate predictions")
			}
		},
	}, {
		name:  "gross misprediction",
		warm:  20,
		steps: []step{{texts[12], 0.01}, {texts[13], -1}},
		check: func(t *testing.T, s *Server) {
			if n := s.o.Snapshot().Counter("bao_early_retrains_total"); n != 1 {
				t.Fatalf("%v early retrains, want 1", n)
			}
			if s.Bao().TrainCount() != 2 {
				t.Fatalf("train count %d, want the warm-up fit and the early one", s.Bao().TrainCount())
			}
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			twin := func() *Server {
				b := newTestBao(t, func(c *core.Config) {
					c.Breaker.Enabled = true
					if tc.mutate != nil {
						tc.mutate(c)
					}
				})
				for _, sql := range texts[len(texts)-tc.warm:] {
					if _, _, err := b.Run(sql); err != nil {
						t.Fatal(err)
					}
				}
				s, err := New(b, Config{LogPath: filepath.Join(t.TempDir(), "bao.explog")})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(s.Kill) // a no-op once the test has shut it down
				return s
			}
			overHTTP, inProcess := twin(), twin()
			if err := overHTTP.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			base := "http://" + overHTTP.Addr()
			for i, st := range tc.steps {
				reqID := fmt.Sprintf("diff-%d", i)
				ctx := obs.WithRequestID(context.Background(), reqID)
				sel, err := inProcess.Bao().SelectCtx(ctx, st.sql)
				if err != nil {
					t.Fatal(err)
				}
				var resp selectResponse
				if code := postJSONWithID(t, base+"/v1/select", reqID, selectRequest{SQL: st.sql}, &resp); code != http.StatusOK {
					t.Fatalf("select: status %d", code)
				}
				if resp.ArmID != sel.ArmID || resp.UsedModel != sel.UsedModel {
					t.Fatalf("step %d: HTTP chose arm %d (model %v), in process %d (%v)", i, resp.ArmID, resp.UsedModel, sel.ArmID, sel.UsedModel)
				}
				secs := st.secs
				if secs < 0 {
					secs = 1000*resp.PredictedSecs + 1
				}
				inProcess.Bao().ObserveLatency(sel.Ticket(), secs)
				if code := postJSON(t, base+"/v1/observe", observeRequest{SelectionID: resp.SelectionID, Secs: secs}, nil); code != http.StatusOK {
					t.Fatalf("observe: status %d", code)
				}
			}
			// Shutdown lets each trainer finish what the steps signalled.
			for _, s := range []*Server{overHTTP, inProcess} {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				if err := s.Shutdown(ctx); err != nil {
					t.Fatal(err)
				}
				cancel()
			}
			tc.check(t, overHTTP)
			got, want := captureLoop(t, overHTTP), captureLoop(t, inProcess)
			if len(got.Spans) != len(tc.steps) {
				t.Fatalf("%d decision traces, want one per step (%d)", len(got.Spans), len(tc.steps))
			}
			v := reflect.ValueOf(got)
			for i := 0; i < v.NumField(); i++ {
				name := v.Type().Field(i).Name
				if g, w := v.Field(i).Interface(), reflect.ValueOf(want).Field(i).Interface(); !reflect.DeepEqual(g, w) {
					t.Errorf("%s differs:\n over HTTP  %+v\n in process %+v", name, g, w)
				}
			}
		})
	}
}

// postJSONWithID is postJSON under a client-chosen request ID.
func postJSONWithID(t *testing.T, url, reqID string, body, out any) int {
	t.Helper()
	enc, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Bao-Request-Id", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestParkedSelectionBytes bounds what the pending table keeps per parked
// selection: 1,000 distinct texts selected over HTTP with all 49 arms, a
// trained model and the plan cache off. A parked whole Selection kept its
// analyzed query, 49 plans and every distinct tree, about 33 KiB; the
// ticket keeps the chosen tree, the trace and the text.
func TestParkedSelectionBytes(t *testing.T) {
	const warm, n = 32, 1000
	texts := distinctTexts(t, warm+n)
	b := newTestBao(t, func(c *core.Config) { c.Arms = core.DefaultConfig().Arms })
	for _, sql := range texts[:warm] {
		if _, _, err := b.Run(sql); err != nil {
			t.Fatal(err)
		}
	}
	if !b.Trained() || len(b.Cfg.Arms) != 49 {
		t.Fatalf("trained %v with %d arms, want a model over 49", b.Trained(), len(b.Cfg.Arms))
	}
	b.Cfg.RetrainEvery = 1 << 30 // nothing observed below may refit
	s, err := New(b, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Kill)
	base := "http://" + s.Addr()
	selectOne := func(sql string) uint64 {
		var resp selectResponse
		if code := postJSON(t, base+"/v1/select", selectRequest{SQL: sql}, &resp); code != http.StatusOK {
			t.Fatalf("select: status %d", code)
		}
		return resp.SelectionID
	}
	// Warm the connection, the handlers and the trace ring; leave nothing
	// parked.
	for _, sql := range texts[:warm] {
		id := selectOne(sql)
		if code := postJSON(t, base+"/v1/observe", observeRequest{SelectionID: id, Secs: 0.01}, nil); code != http.StatusOK {
			t.Fatalf("observe: status %d", code)
		}
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	for _, sql := range texts[warm:] {
		selectOne(sql)
	}
	per := (heap() - before) / n
	s.selMu.Lock()
	parked := len(s.pending)
	s.selMu.Unlock()
	if parked != n {
		t.Fatalf("%d selections parked, want %d", parked, n)
	}
	t.Logf("%d B retained per parked selection", per)
	if per > 4<<10 {
		t.Fatalf("%d B retained per parked selection, want <= 4 KiB", per)
	}
}

// TestTicketConcurrentSelectObserveEvict races HTTP select/observe pairs
// against parkers that push the pending table past its bound, so
// observations meet evictions. Each observe either books its experience
// (200) or finds its ticket evicted (404), the window grows by exactly
// the 200s, and the table never holds more than its bound.
func TestTicketConcurrentSelectObserveEvict(t *testing.T) {
	s := newTestServer(t, Config{}, func(c *core.Config) { c.RetrainEvery = 1 << 30 })
	base := "http://" + s.Addr()
	texts := distinctTexts(t, 8)
	seed, err := s.Bao().Select(texts[0])
	if err != nil {
		t.Fatal(err)
	}
	// The parkers' filler is this one selection parked many times over.
	// A parked ticket owns its trace, and evicting one finishes it, so
	// the copies carry none.
	seed.Trace = nil
	const clients, pairs, parkers = 3, 25, 2
	var wg sync.WaitGroup
	var mu sync.Mutex
	booked := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < pairs; i++ {
				var resp selectResponse
				if code := postJSON(t, base+"/v1/select", selectRequest{SQL: texts[(c+i)%len(texts)]}, &resp); code != http.StatusOK {
					t.Errorf("select: status %d", code)
					return
				}
				switch code := postJSON(t, base+"/v1/observe", observeRequest{SelectionID: resp.SelectionID, Secs: 0.01}, nil); code {
				case http.StatusOK:
					mu.Lock()
					booked++
					mu.Unlock()
				case http.StatusNotFound:
				default:
					t.Errorf("observe: status %d", code)
					return
				}
			}
		}(c)
	}
	for p := 0; p < parkers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < pendingLimit; i++ {
				s.park(seed.Ticket())
				s.selMu.Lock()
				over := len(s.pending) > pendingLimit
				s.selMu.Unlock()
				if over {
					t.Error("pending table past its bound")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := s.Bao().ExperienceSize(); got != booked {
		t.Fatalf("window holds %d experiences, want the %d observes that found their ticket", got, booked)
	}
	if booked == 0 {
		t.Fatal("every observation found its ticket evicted")
	}
}
