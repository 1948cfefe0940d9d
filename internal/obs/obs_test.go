package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(2.5)
	c.Add(-1)         // ignored: counters only go up
	c.Add(math.NaN()) // ignored: it would stick in the total
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("g", "help")
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	if r.Counter("c_total", "help") != c {
		t.Fatal("get-or-create must return the existing counter")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 55.65 {
		t.Fatalf("sum = %v, want 55.65", h.Sum())
	}
	// Cumulative: le=0.1 → 2 (0.05 and the boundary 0.1), le=1 → 3,
	// le=10 → 4, +Inf → 5.
	want := []int64{2, 3, 4, 5}
	got := h.snapshotBuckets()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("v_total", "help", "arm")
	v.With("a").Inc()
	v.With("a").Inc()
	v.With("b").Add(3)
	vals := v.Values()
	if vals["a"] != 2 || vals["b"] != 3 {
		t.Fatalf("vec values = %v", vals)
	}
}

func TestNilSafety(t *testing.T) {
	// A disabled observer has nil handles everywhere; nothing may panic.
	o := Disabled()
	o.Queries.Inc()
	o.Window.Set(1)
	o.SelectSeconds.Observe(0.5)
	o.ArmSelected.With("x").Inc()
	tr := o.StartTrace("SELECT 1")
	if tr != nil {
		t.Fatal("disabled observer must not create traces")
	}
	tr.AddSpan("parse", time.Now(), time.Millisecond, "")
	o.FinishTrace(tr)
	if got := o.Traces(); got != nil {
		t.Fatalf("disabled traces = %v, want nil", got)
	}
	s := o.Snapshot()
	if len(s.Counters) != 0 {
		t.Fatalf("disabled snapshot non-empty: %v", s.Counters)
	}
	var r *Registry
	if r.Counter("x", "") != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
}

var promLine = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"\})? (-?[0-9.e+-]+|\+Inf|NaN))$`)

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("bao_queries_total", "Total queries.").Add(7)
	r.Gauge("bao_window", "Window size.").Set(42)
	h := r.Histogram("bao_select_seconds", "Select latency.", []float64{0.001, 0.1})
	h.Observe(0.0005)
	h.Observe(5)
	v := r.CounterVec("bao_arm_selected_total", "Per arm.", "arm")
	v.With("hash+seq").Inc()

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !promLine.MatchString(line) {
			t.Fatalf("line not valid prometheus text format: %q\nfull output:\n%s", line, out)
		}
	}
	for _, want := range []string{
		"bao_queries_total 7",
		"bao_window 42",
		`bao_select_seconds_bucket{le="0.001"} 1`,
		`bao_select_seconds_bucket{le="+Inf"} 2`,
		"bao_select_seconds_sum 5.0005",
		"bao_select_seconds_count 2",
		`bao_arm_selected_total{arm="hash+seq"} 1`,
		"# TYPE bao_select_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentMetrics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h", "", LatencyBuckets())
	v := r.CounterVec("v_total", "", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j) * 1e-5)
				v.With(string(rune('a' + i%3))).Inc()
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %v, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	var sum float64
	for _, x := range v.Values() {
		sum += x
	}
	if sum != 8000 {
		t.Fatalf("vec total = %v, want 8000", sum)
	}
}

func TestTraceRingOrderAndEviction(t *testing.T) {
	ring := NewTraceRing(3)
	for i := 1; i <= 5; i++ {
		ring.Add(&Trace{ID: uint64(i)})
	}
	got := ring.Traces()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, want := range []uint64{5, 4, 3} {
		if got[i].ID != want {
			t.Fatalf("traces[%d].ID = %d, want %d (newest first)", i, got[i].ID, want)
		}
	}
}

func TestObserverTracing(t *testing.T) {
	o := NewObserver(NewRegistry(), nil)
	if o.TracingEnabled() {
		t.Fatal("tracing must start disabled")
	}
	if o.StartTrace("q") != nil {
		t.Fatal("StartTrace must return nil before EnableTracing")
	}
	o.EnableTracing(4)
	tr := o.StartTrace("SELECT 1")
	if tr == nil {
		t.Fatal("StartTrace returned nil with tracing enabled")
	}
	start := time.Now()
	tr.AddSpan("parse", start, 3*time.Millisecond, "")
	tr.AddSpan("plan_arms", start.Add(3*time.Millisecond), 5*time.Millisecond, "arms=49")
	o.FinishTrace(tr)
	got := o.Traces()
	if len(got) != 1 || len(got[0].Spans) != 2 {
		t.Fatalf("traces = %+v", got)
	}
	if got[0].Spans[1].StartUS < got[0].Spans[0].DurUS {
		t.Fatalf("span offsets not monotonic: %+v", got[0].Spans)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	o := NewObserver(NewRegistry(), NewTraceRing(8))
	o.Queries.Inc()
	o.SelectSeconds.Observe(0.002)
	tr := o.StartTrace("SELECT COUNT(*) FROM t")
	tr.ArmName = "hash+seq"
	tr.AddSpan("parse", time.Now(), time.Millisecond, "")
	o.FinishTrace(tr)

	srv := httptest.NewServer(Handler(o))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "bao_queries_total 1") {
		t.Fatalf("/metrics missing query counter:\n%s", body)
	}

	res2, err := srv.Client().Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	var traces []Trace
	if err := json.NewDecoder(res2.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0].ArmName != "hash+seq" || len(traces[0].Spans) != 1 {
		t.Fatalf("traces = %+v", traces)
	}
}

func TestServeAndClose(t *testing.T) {
	o := NewObserver(NewRegistry(), nil)
	s, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	if !o.TracingEnabled() {
		t.Fatal("Serve must enable tracing")
	}
	if s.Addr == "" || strings.HasSuffix(s.Addr, ":0") {
		t.Fatalf("Addr = %q, want a bound port", s.Addr)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
