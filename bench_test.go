package bao_test

// One benchmark per table/figure of the paper's evaluation (DESIGN.md §4
// maps IDs to artifacts). Each benchmark regenerates its artifact through
// the experiment harness at a reduced scale, so `go test -bench=.` sweeps
// the whole evaluation; run cmd/baobench for full-scale output.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"bao"
	"bao/internal/harness"
	"bao/internal/nn"
	"bao/internal/obs"
	"bao/internal/workload"
)

// benchOpts keeps benchmark iterations affordable; cmd/baobench uses the
// full default scale.
func benchOpts() harness.Options {
	return harness.Options{Scale: 0.12, Queries: 100, Seed: 42, Out: io.Discard}
}

// benchRow is one benchmark's machine-readable result, written to
// BENCH_results.json after the run so perf trajectories can be tracked
// across commits.
type benchRow struct {
	Name          string  `json:"name"`
	NsPerOp       float64 `json:"ns_per_op"`
	QueriesPerSec float64 `json:"queries_per_sec,omitempty"`
	// Cores records the benchmark's actual execution parallelism: the
	// workers/clients parameter for parameterized sub-benchmarks, and
	// GOMAXPROCS otherwise. The sequential-vs-parallel pairs (Train,
	// Predict, ServerQuery) can only show wall-clock speedups when the
	// machine's GOMAXPROCS also exceeds 1.
	Cores int `json:"cores"`
	// CacheHitRate is the plan-cache hit fraction over the run for
	// server-loop benchmarks (always serialized, so a cache-off row shows
	// an explicit 0 and the cache-on/off qps pairs are auditable from this
	// file alone).
	CacheHitRate float64 `json:"cache_hit_rate"`
	// AllocsPerOp and BytesPerOp are the heap allocations of one
	// iteration, for the benchmarks that meter them (allocMeter).
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
}

// allocMeter measures the heap allocations of a benchmark's timed loop —
// what b.ReportAllocs prints, in a form a benchRow can record. Start it
// right after b.ResetTimer.
type allocMeter struct{ mallocs, bytes uint64 }

func startAllocMeter() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter{m.Mallocs, m.TotalAlloc}
}

var benchResults struct {
	mu   sync.Mutex
	rows []benchRow
}

// recordBench captures a finished benchmark's timing. queriesPerIter is
// the nominal workload stream length one iteration processes (0 when the
// benchmark is not a query loop). Benchmarks without an explicit
// parallelism parameter record GOMAXPROCS as their core count.
func recordBench(b *testing.B, queriesPerIter int) {
	recordBenchWorkers(b, queriesPerIter, runtime.GOMAXPROCS(0))
}

// recordBenchWorkers is recordBench for parallelism-parameterized
// sub-benchmarks: workers is the sub-benchmark's own worker/client
// count, not the machine-wide GOMAXPROCS, so a workers=1 row is
// distinguishable from a workers=4 row in BENCH_results.json.
func recordBenchWorkers(b *testing.B, queriesPerIter, workers int) {
	recordBenchCache(b, queriesPerIter, workers, 0)
}

// recordBenchCache additionally stamps the plan-cache hit fraction
// observed over the run, pairing every qps number with the cache
// behavior that produced it.
func recordBenchCache(b *testing.B, queriesPerIter, workers int, hitRate float64) {
	b.Helper()
	recordBenchAllocs(b, queriesPerIter, workers, hitRate, nil)
}

// recordBenchAllocs additionally records the allocations since the meter
// was started (nil = not metered). Call it after b.StopTimer.
func recordBenchAllocs(b *testing.B, queriesPerIter, workers int, hitRate float64, meter *allocMeter) {
	b.Helper()
	elapsed := b.Elapsed()
	if b.N == 0 || elapsed <= 0 {
		return
	}
	row := benchRow{Name: b.Name(), NsPerOp: float64(elapsed.Nanoseconds()) / float64(b.N),
		Cores: workers, CacheHitRate: hitRate}
	if queriesPerIter > 0 {
		row.QueriesPerSec = float64(queriesPerIter*b.N) / elapsed.Seconds()
	}
	if meter != nil {
		end := startAllocMeter()
		row.AllocsPerOp = float64(end.mallocs-meter.mallocs) / float64(b.N)
		row.BytesPerOp = float64(end.bytes-meter.bytes) / float64(b.N)
	}
	benchResults.mu.Lock()
	benchResults.rows = append(benchResults.rows, row)
	benchResults.mu.Unlock()
}

// cacheHitRate reads the plan-cache hit fraction from an observer's
// counters (0 when the cache never engaged).
func cacheHitRate(o *bao.Observer) float64 {
	hits, misses := o.PlanCacheHits.Value(), o.PlanCacheMisses.Value()
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// TestMain writes BENCH_results.json when any benchmarks ran, merging
// into the existing file so a partial run (-bench with a filter) updates
// its own rows without dropping everyone else's.
func TestMain(m *testing.M) {
	code := m.Run()
	benchResults.mu.Lock()
	all := benchResults.rows
	benchResults.mu.Unlock()
	// Start from the rows already on disk, then overlay this run's. The
	// harness may also invoke a benchmark several times while calibrating
	// b.N; keeping the last record of each name handles both.
	var prior []benchRow
	if buf, err := os.ReadFile("BENCH_results.json"); err == nil {
		json.Unmarshal(buf, &prior) //nolint:errcheck // a fresh file is fine
	}
	last := make(map[string]int, len(prior)+len(all))
	var rows []benchRow
	for _, r := range append(prior, all...) {
		if i, ok := last[r.Name]; ok {
			rows[i] = r
			continue
		}
		last[r.Name] = len(rows)
		rows = append(rows, r)
	}
	if len(all) > 0 {
		if buf, err := json.MarshalIndent(rows, "", "  "); err == nil {
			if err := os.WriteFile("BENCH_results.json", append(buf, '\n'), 0o644); err != nil {
				os.Stderr.WriteString("writing BENCH_results.json: " + err.Error() + "\n")
			}
		}
	}
	os.Exit(code)
}

func runExp(b *testing.B, fn func(*harness.Session) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := harness.NewSession(benchOpts())
		if err := fn(s); err != nil {
			b.Fatal(err)
		}
	}
	recordBench(b, benchOpts().Queries)
}

func BenchmarkTable1Datasets(b *testing.B) {
	runExp(b, func(s *harness.Session) error { return s.Table1() })
}

func BenchmarkFigure1LoopJoin(b *testing.B) {
	runExp(b, func(s *harness.Session) error { return s.Figure1() })
}

func BenchmarkFigure7CostLatency(b *testing.B) {
	runExp(b, func(s *harness.Session) error { return s.Figure7() })
}

func BenchmarkFigure8VMTypes(b *testing.B) {
	runExp(b, func(s *harness.Session) error { return s.Figure8() })
}

func BenchmarkFigure9TailLatency(b *testing.B) {
	runExp(b, func(s *harness.Session) error { return s.Figure9() })
}

func BenchmarkFigure10Convergence(b *testing.B) {
	runExp(b, func(s *harness.Session) error { return s.Figure10() })
}

func BenchmarkFigure11Regressions(b *testing.B) {
	runExp(b, func(s *harness.Session) error { return s.Figure11() })
}

func BenchmarkFigure12Arms(b *testing.B) {
	runExp(b, func(s *harness.Session) error { return s.Figure12() })
}

func BenchmarkFigure13Concurrency(b *testing.B) {
	runExp(b, func(s *harness.Session) error { return s.Figure13() })
}

func BenchmarkFigure14PriorLearned(b *testing.B) {
	runExp(b, func(s *harness.Session) error { return s.Figure14() })
}

func BenchmarkFigure15aModels(b *testing.B) {
	runExp(b, func(s *harness.Session) error { return s.Figure15a() })
}

func BenchmarkFigure15bQError(b *testing.B) {
	runExp(b, func(s *harness.Session) error { return s.Figure15b() })
}

func BenchmarkFigure15cTrainTime(b *testing.B) {
	runExp(b, func(s *harness.Session) error { return s.Figure15c() })
}

func BenchmarkFigure16Regret(b *testing.B) {
	runExp(b, func(s *harness.Session) error { return s.Figure16() })
}

func BenchmarkHintAnalysis(b *testing.B) {
	runExp(b, func(s *harness.Session) error { return s.HintAnalysis() })
}

func BenchmarkOptTime(b *testing.B) {
	runExp(b, func(s *harness.Session) error { return s.OptTime() })
}

func BenchmarkCharacterization(b *testing.B) {
	runExp(b, func(s *harness.Session) error { return s.Characterize() })
}

func BenchmarkAblation(b *testing.B) {
	runExp(b, func(s *harness.Session) error { return s.Ablation() })
}

// benchObsQueries is the stream length of one observability-overhead
// benchmark iteration.
const benchObsQueries = 30

// benchQueryLoop measures the Bao select-execute-observe loop with a
// given observer. Comparing the Instrumented and Disabled variants bounds
// the cost of the observability layer on the hot path.
func benchQueryLoop(b *testing.B, mkObs func() *bao.Observer) {
	b.Helper()
	inst := workload.IMDb(workload.Config{Scale: 0.06, Queries: benchObsQueries, Seed: 42})
	eng := bao.NewEngine(bao.GradePostgreSQL, 2000)
	if err := inst.Setup(eng); err != nil {
		b.Fatal(err)
	}
	cfg := bao.FastConfig()
	cfg.Arms = bao.TopArms(6)
	cfg.Observer = mkObs()
	opt := bao.New(eng, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range inst.Queries {
			if _, _, err := opt.Run(q.SQL); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	recordBench(b, len(inst.Queries))
}

func BenchmarkQueryLoopInstrumented(b *testing.B) {
	benchQueryLoop(b, func() *bao.Observer {
		// Fresh registry with tracing on: the most expensive configuration
		// the instrumentation supports.
		o := obs.NewObserver(obs.NewRegistry(), nil)
		o.EnableTracing(64)
		return o
	})
}

func BenchmarkQueryLoopObsDisabled(b *testing.B) {
	benchQueryLoop(b, bao.DisabledObserver)
}

// benchServerQueries is the stream length of one serving-layer benchmark
// iteration.
const benchServerQueries = 30

// benchServer measures the HTTP serving layer end to end: one iteration
// pushes benchServerQueries full select-execute-observe requests through
// /v1/query with the given client parallelism. Comparing Sequential and
// Concurrent shows what the read-mostly fast path buys: selections
// overlap freely, with only the execute step on the single engine lane.
func benchServer(b *testing.B, clients int) {
	b.Helper()
	inst := workload.IMDb(workload.Config{Scale: 0.06, Queries: benchServerQueries, Seed: 42})
	eng := bao.NewEngine(bao.GradePostgreSQL, 2000)
	if err := inst.Setup(eng); err != nil {
		b.Fatal(err)
	}
	cfg := bao.FastConfig()
	cfg.Arms = bao.TopArms(6)
	cfg.Observer = obs.NewObserver(obs.NewRegistry(), nil)
	opt := bao.New(eng, cfg)
	srv, err := bao.Serve(opt, "127.0.0.1:0", bao.ServerConfig{MaxInFlight: 256})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // benchmark teardown
	}()
	base := "http://" + srv.Addr()
	post := func(sql string) error {
		body, _ := json.Marshal(map[string]string{"sql": sql})
		resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if clients <= 1 {
			for _, q := range inst.Queries {
				if err := post(q.SQL); err != nil {
					b.Fatal(err)
				}
			}
			continue
		}
		var wg sync.WaitGroup
		work := make(chan string, len(inst.Queries))
		for _, q := range inst.Queries {
			work <- q.SQL
		}
		close(work)
		errCh := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for sql := range work {
					if err := post(sql); err != nil {
						errCh <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// The observability endpoints must serve live data while the loop is
	// under load: the trace ring holds observed decisions and the event
	// journal is reachable.
	var traces []*obs.Trace
	res, err := http.Get(base + "/debug/traces")
	if err != nil {
		b.Fatal(err)
	}
	err = json.NewDecoder(res.Body).Decode(&traces)
	res.Body.Close()
	if err != nil {
		b.Fatal(err)
	}
	if !slices.ContainsFunc(traces, func(tr *obs.Trace) bool { return tr.ObservedSecs > 0 }) {
		b.Fatal("/debug/traces served no observed decision after the query loop")
	}
	res, err = http.Get(base + "/debug/events")
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, res.Body) //nolint:errcheck
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		b.Fatalf("/debug/events status %d", res.StatusCode)
	}
	recordBenchCache(b, benchServerQueries, clients, cacheHitRate(cfg.Observer))
}

func BenchmarkServerQuerySequential(b *testing.B) { benchServer(b, 1) }

func BenchmarkServerQueryConcurrent(b *testing.B) { benchServer(b, 8) }

// benchSelectRepeated measures the selection fast path under a
// repeated-shape workload: a trained server answering POST /v1/select for
// a small rotating set of query shapes from concurrent clients — the
// regime the plan cache targets.
// No observes are sent during measurement, so the model (and therefore
// the cache) stays fixed; the cache=off/cache=on qps pair in
// BENCH_results.json is the speedup claim, with the hit rate alongside.
func benchSelectRepeated(b *testing.B, cache bool) {
	b.Helper()
	inst := workload.IMDb(workload.Config{Scale: 0.06, Queries: 60, Seed: 42})
	eng := bao.NewEngine(bao.GradePostgreSQL, 2000)
	if err := inst.Setup(eng); err != nil {
		b.Fatal(err)
	}
	cfg := bao.FastConfig() // full arm family: the per-select planning cost the cache elides
	cfg.RetrainEvery = 25
	cfg.Train.MaxEpochs = 10
	cfg.Observer = obs.NewObserver(obs.NewRegistry(), nil)
	if cache {
		cfg.PlanCache = true
		cfg.PlanCacheSize = 512
	}
	opt := bao.New(eng, cfg)
	// Train in place so measured selections run the model-guided path; the
	// final retrain flushes anything cached during training.
	for _, q := range inst.Queries {
		if _, _, err := opt.Run(q.SQL); err != nil {
			b.Fatal(err)
		}
	}
	if !opt.Trained() {
		b.Fatal("warm-up stream left the model untrained")
	}
	srv, err := bao.Serve(opt, "127.0.0.1:0", bao.ServerConfig{MaxInFlight: 256})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // benchmark teardown
	}()
	base := "http://" + srv.Addr()
	shapes := make([]string, 0, 8)
	seen := make(map[string]bool)
	for _, q := range inst.Queries {
		if !seen[q.SQL] {
			seen[q.SQL] = true
			shapes = append(shapes, q.SQL)
		}
		if len(shapes) == 8 {
			break
		}
	}
	post := func(sql string) error {
		body, _ := json.Marshal(map[string]string{"sql": sql})
		resp, err := http.Post(base+"/v1/select", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	const clients = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errCh := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for r := 0; r < benchServerQueries/clients; r++ {
					if err := post(shapes[(c+r)%len(shapes)]); err != nil {
						errCh <- err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	selects := (benchServerQueries / clients) * clients
	recordBenchCache(b, selects, clients, cacheHitRate(cfg.Observer))
}

// BenchmarkServerQueryConcurrentRepeated is the plan-cache acceptance
// benchmark: the same repeated-shape serving workload with the cache
// off, then on.
func BenchmarkServerQueryConcurrentRepeated(b *testing.B) {
	b.Run("cache=off", func(b *testing.B) { benchSelectRepeated(b, false) })
	b.Run("cache=on", func(b *testing.B) { benchSelectRepeated(b, true) })
}

// benchFleetTenants is the tenant population of the fleet benchmark —
// spread by consistent hashing across both shards.
const benchFleetTenants = 8

// benchFleetSelects is how many selections one fleet-benchmark iteration
// pushes (round-robin across all tenants).
const benchFleetSelects = 48

// microShapes is the fixed repeated-shape select set each fleet tenant
// serves during measurement (no observes → the model, and therefore the
// plan cache, stays fixed).
var microShapes = []string{
	"SELECT COUNT(*) FROM orders o, users u WHERE o.user_id = u.id AND u.id < 5",
	"SELECT SUM(o.price) FROM orders o WHERE o.day = 6 AND o.price > 180",
	"SELECT u.segment, COUNT(*) FROM orders o, users u WHERE o.user_id = u.id AND o.item_id < 20 GROUP BY u.segment ORDER BY u.segment",
	"SELECT COUNT(*) FROM orders o, users u WHERE o.user_id = u.id AND u.id < 9",
}

// benchFleet is a warmed 2-shard × 8-tenant serving fleet: every tenant
// activated, trained past its retrain floor, and holding a plan cache,
// with a private observer per tenant so hit rates separate.
type benchFleet struct {
	router  *bao.Router
	shards  []*bao.Shard
	tenants []string
	base    string            // router base URL
	direct  map[string]string // tenant -> owning shard base URL (bypass)

	mu        sync.Mutex
	observers map[string]*obs.Observer // per-tenant core observers
}

func newBenchFleet(b *testing.B, workers int) *benchFleet {
	b.Helper()
	f := &benchFleet{direct: map[string]string{}, observers: map[string]*obs.Observer{}}
	dir := b.TempDir()
	factory := func(tenant string) (*bao.Optimizer, error) {
		// Scale 6 makes one query cost what real serving traffic costs
		// (high hundreds of µs), so the hop measures against a realistic
		// denominator rather than toy row counts.
		inst := workload.Micro(workload.Config{Scale: 6, Queries: 1, Seed: 42})
		eng := bao.NewEngine(bao.GradePostgreSQL, 256)
		if err := inst.Setup(eng); err != nil {
			return nil, err
		}
		cfg := bao.FastConfig()
		cfg.Arms = bao.TopArms(3)
		cfg.ArmWarmup = 0
		// Scheduled retrains are off: the factory trains inline below, so
		// measurement runs against a frozen model — no drift between the
		// Direct and Routed sub-benchmarks from window growth or
		// invalidation cadence.
		cfg.RetrainEvery = 1 << 30
		cfg.Train.MaxEpochs = 2
		cfg.Train.Workers = workers
		cfg.PlanCache = true
		cfg.PlanCacheSize = 256
		o := obs.NewObserver(obs.NewRegistry(), nil)
		cfg.Observer = o
		f.mu.Lock()
		f.observers[tenant] = o
		f.mu.Unlock()
		opt := bao.New(eng, cfg)
		for i := 0; i < 20; i++ {
			if _, _, err := opt.Run(microShapes[i%len(microShapes)]); err != nil {
				return nil, err
			}
		}
		opt.Retrain()
		return opt, nil
	}
	var infos []bao.RouterShard
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("shard-%d", i)
		shard, err := bao.ServeShard(bao.ShardConfig{
			Name:     name,
			Tenants:  bao.TenantOptions{Dir: dir, NewBao: factory},
			Observer: obs.NewObserver(obs.NewRegistry(), nil),
		}, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		f.shards = append(f.shards, shard)
		infos = append(infos, bao.RouterShard{Name: name, URL: "http://" + shard.Addr()})
	}
	rt, err := bao.ServeRouter(bao.RouterConfig{Shards: infos,
		Observer: obs.NewObserver(obs.NewRegistry(), nil)}, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	f.router = rt
	f.base = "http://" + rt.Addr()
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		rt.Shutdown(ctx) //nolint:errcheck // benchmark teardown
		for _, s := range f.shards {
			s.Shutdown(ctx) //nolint:errcheck // benchmark teardown
		}
	})
	urlOf := map[string]string{}
	for _, si := range infos {
		urlOf[si.Name] = si.URL
	}
	for i := 0; i < benchFleetTenants; i++ {
		tn := fmt.Sprintf("acme-%d", i)
		f.tenants = append(f.tenants, tn)
		f.direct[tn] = urlOf[rt.Owner(tn)]
	}
	// Activate every tenant (the factory pre-trains it) and repopulate
	// the post-swap plan cache with the measured shapes.
	for _, tn := range f.tenants {
		for _, sql := range microShapes {
			if err := f.post(f.base, tn, "/v1/query", sql); err != nil {
				b.Fatalf("warm %s: %v", tn, err)
			}
		}
	}
	f.waitTrained(b)
	return f
}

// benchFleetClient pools connections to the router and both shards so
// the Direct/Routed comparison measures the hop, not redials.
var benchFleetClient = &http.Client{Transport: &http.Transport{
	MaxIdleConns: 256, MaxIdleConnsPerHost: 64, IdleConnTimeout: 90 * time.Second}}

func (f *benchFleet) post(base, tenant, path, sql string) error {
	body, _ := json.Marshal(map[string]string{"sql": sql})
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("X-Bao-Tenant", tenant)
	resp, err := benchFleetClient.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s for %s: status %d", path, base, tenant, resp.StatusCode)
	}
	return nil
}

// waitTrained polls every tenant's status through the router until its
// async trainer has swapped a model in, so measurement never races
// warm-up training.
func (f *benchFleet) waitTrained(b *testing.B) {
	b.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for _, tn := range f.tenants {
		for {
			if time.Now().After(deadline) {
				b.Fatalf("tenant %s never trained during warm-up", tn)
			}
			req, err := http.NewRequest(http.MethodGet, f.base+"/v1/status", nil)
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set("X-Bao-Tenant", tn)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			var st struct {
				Trained bool `json:"trained"`
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err == nil && st.Trained {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// run pushes benchFleetSelects repeated-shape full queries (the
// select-execute-observe loop) per iteration through 4 concurrent
// clients, each request targeting its tenant via the router
// (routed=true) or the owning shard directly (routed=false) — the
// difference between the two rows is the router hop's overhead.
func (f *benchFleet) run(b *testing.B, routed bool) float64 {
	b.Helper()
	type hm struct{ hits, misses float64 }
	pre := map[string]hm{}
	f.mu.Lock()
	for tn, o := range f.observers {
		pre[tn] = hm{o.PlanCacheHits.Value(), o.PlanCacheMisses.Value()}
	}
	f.mu.Unlock()
	const clients = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errCh := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for r := 0; r < benchFleetSelects/clients; r++ {
					tn := f.tenants[(c*benchFleetSelects/clients+r)%len(f.tenants)]
					base := f.base
					if !routed {
						base = f.direct[tn]
					}
					sql := microShapes[r%len(microShapes)]
					if err := f.post(base, tn, "/v1/query", sql); err != nil {
						errCh <- err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	// The fleet-wide plan-cache hit rate over the measured window rides
	// the main row.
	var hits, total float64
	f.mu.Lock()
	for _, tn := range f.tenants {
		o := f.observers[tn]
		h := o.PlanCacheHits.Value() - pre[tn].hits
		m := o.PlanCacheMisses.Value() - pre[tn].misses
		hits += h
		total += h + m
	}
	f.mu.Unlock()
	agg := 0.0
	if total > 0 {
		agg = hits / total
	}
	recordBenchCache(b, benchFleetSelects, clients, agg)
	return nsPerOp
}

// BenchmarkRouterMultiTenant is the fleet acceptance benchmark: a
// 2-shard × 8-tenant fleet serving repeated-shape selections, measured
// shard-direct and through the router. The Routed-vs-Direct ns/op pair
// in BENCH_results.json is the router-overhead claim (target <15%); each
// row carries the fleet-wide plan-cache hit rate.
func BenchmarkRouterMultiTenant(b *testing.B) {
	f := newBenchFleet(b, 2)
	var directNs, routedNs float64
	b.Run("Direct", func(b *testing.B) { directNs = f.run(b, false) })
	b.Run("Routed", func(b *testing.B) { routedNs = f.run(b, true) })
	if directNs > 0 && routedNs > 0 {
		b.Logf("router overhead: %.1f%% (direct %.0f ns/op, routed %.0f ns/op)",
			(routedNs-directNs)/directNs*100, directNs, routedNs)
	}
}

// benchRecoveryTree builds a small plan tree so benchmark experiences
// carry realistic serialized payloads (the log stores whole trees).
func benchRecoveryTree(v float64) *nn.Tree {
	t := nn.NewTree(3, 4)
	t.Left[0], t.Right[0] = 1, 2
	for i := 0; i < t.N; i++ {
		t.Row(i)[0] = v + float64(i)
	}
	return t
}

// benchRecoveryReplay writes a history of `frames` experiences once,
// then times cold-start recovery: reopen the log and replay it into a
// fresh optimizer. Snapshot-anchored compaction makes recovery read the
// newest snapshot plus the unsnapshotted tail only.
func benchRecoveryReplay(b *testing.B, frames int, segBytes int64) {
	path := filepath.Join(b.TempDir(), "bao.explog")
	opts := bao.ExplogOptions{
		Observer:     bao.DisabledObserver(),
		SegmentBytes: segBytes,
		WindowCap:    500,
	}
	l, err := bao.OpenExperienceLogWith(path, opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		e := bao.Experience{Tree: benchRecoveryTree(float64(i % 97)),
			Secs: 0.001 * float64(i%101+1), ArmID: i % 5, Key: "q"}
		if err := l.AppendExperience(e); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil { // Close drains compaction, so the
		b.Fatal(err) // segmented history ends fully snapshot-anchored
	}
	eng := bao.NewEngine(bao.GradePostgreSQL, 8192)
	cfg := bao.FastConfig()
	cfg.Observer = bao.DisabledObserver()
	cfg.WindowSize = 500
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l2, err := bao.OpenExperienceLogWith(path, opts)
		if err != nil {
			b.Fatal(err)
		}
		opt := bao.New(eng, cfg)
		l2.Replay(opt)
		if err := l2.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	recordBenchWorkers(b, 0, 1)
}

// BenchmarkRecoveryReplay is the bounded-recovery claim in numbers:
// replay cost tracks the tail bound, not total history — the 10k and
// 100k rows in BENCH_results.json stay near-flat. (Replaying a
// never-rotated single file, which scaled ~10× between the two, was
// measured in the PR that introduced segments; see DESIGN.md.)
func BenchmarkRecoveryReplay(b *testing.B) {
	for _, frames := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("Segmented/frames=%d", frames), func(b *testing.B) {
			benchRecoveryReplay(b, frames, 64<<10)
		})
	}
}
