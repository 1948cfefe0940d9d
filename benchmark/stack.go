package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"bao"
	"bao/internal/cloud"
	"bao/internal/obs"
	"bao/internal/workload"
)

// config is what every workload is built from. The program under test
// receives only SQL generated from seed; nothing is checked in.
type config struct {
	seed    int64
	seconds float64 // length of the measured phase
	tmp     string  // scratch directory for durable state, removed at exit
	sz      sizes
}

// sizes are the fixed input sizes. They do not depend on -seconds, so a
// metric means the same thing at any run length; the smoke test swaps in
// toy sizes to finish in seconds.
type sizes struct {
	setups int // timed set-ups per run; setup_s is their median
	sample int // requests the traced run replays at one client

	tenants     int // fleet_hit: tenants over 2 shards
	shapes      int // fleet_hit: resident SQL shapes per tenant
	tenantTrain int // fleet_hit: queries each tenant trains on in its factory
	fleetCycles int // fleet_hit: sweeps over every tenant's shapes in one round

	missPretrain int // miss_select: queries the model trains on before it is frozen
	missTexts    int // miss_select: distinct SQL texts swept cyclically; above missCache
	missCache    int // miss_select: plan-cache entry bound (0 = the program's default, 512)

	serveStream  int   // learn_serve: queries one fresh server takes in one round
	serveSegment int64 // learn_serve: explog segment bytes

	inlineQueries int // learn_inline: stream length of one pass
	inlineObs     int // learn_inline: queries of the observer-overhead comparison

	probeSeconds float64 // miss_select traced run: open-loop probe length
	probeRate    float64 // ... and its arrival rate, requests/s
}

var fullSizes = sizes{
	setups: 3, sample: 500,
	tenants: 4, shapes: 32, tenantTrain: 32, fleetCycles: 40,
	missPretrain: 150, missTexts: 768, missCache: 0,
	serveStream: 600, serveSegment: 256 << 10,
	inlineQueries: 300, inlineObs: 100,
	probeSeconds: 5, probeRate: 250,
}

// mounted is one of the benchmark's own http.Servers in front of a
// handler of the program under test.
type mounted struct {
	srv *http.Server
	url string
}

// mount serves h on a fresh loopback port. The benchmark owns the
// http.Server so that a traced run can put its span middleware between
// the socket and the program's handler; an untraced run mounts the same
// way with a nil recorder, which adds nothing.
func mount(h http.Handler, span string, rec *recorder) (mounted, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return mounted{}, err
	}
	srv := &http.Server{Handler: rec.wrap(span, h)}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	return mounted{srv: srv, url: "http://" + ln.Addr().String()}, nil
}

func (m mounted) close() {
	if m.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.srv.Shutdown(ctx) //nolint:errcheck // teardown; Close below is the fallback
		m.srv.Close()       //nolint:errcheck
	}
}

// privateObserver gives each optimizer, shard and router its own metric
// registry, so counters read after a run belong to that component alone.
func privateObserver() *obs.Observer { return obs.NewObserver(obs.NewRegistry(), nil) }

// Every seed shares one data set and one template order; the seed
// decides the literals. Workloads generated from different seeds then
// ask the same mix of questions about the same tables with different
// parameters, so a metric's spread across seeds measures the program
// and the machine, not how many five-way joins a seed happened to draw.
const (
	dataSeed = 42 // seed of every engine's tables
	mixSeed  = 0  // seed of the canonical template order
)

// generator is one of internal/workload's constructors.
type generator func(workload.Config) *workload.Instance

// stream returns n queries: the template at each position comes from
// the mixSeed stream, the SQL text from the seed's stream, each text
// used in the order the seed generated it. With distinct, no text
// repeats; a template whose parameter space runs dry is filled from the
// seed's other templates, in stream order.
func stream(gen generator, scale float64, n int, seed int64, distinct bool) ([]workload.Query, error) {
	canon := gen(workload.Config{Scale: scale, Queries: n, Seed: mixSeed}).Queries
	type item struct {
		q    workload.Query
		used bool
	}
	var items []*item
	pool := map[string][]*item{}
	seen := map[string]bool{}
	for _, q := range gen(workload.Config{Scale: scale, Queries: 8 * n, Seed: seed}).Queries {
		if distinct && seen[q.SQL] {
			continue
		}
		seen[q.SQL] = true
		it := &item{q: q}
		items = append(items, it)
		pool[q.Template] = append(pool[q.Template], it)
	}
	out := make([]workload.Query, 0, n)
	for _, c := range canon {
		if p := pool[c.Template]; len(p) > 0 {
			p[0].used = true
			out = append(out, p[0].q)
			pool[c.Template] = p[1:]
		}
	}
	for _, it := range items {
		if len(out) == n {
			break
		}
		if !it.used {
			out = append(out, it.q)
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("seed %d yields %d usable queries, need %d", seed, len(out), n)
	}
	return out, nil
}

// dataset returns an instance whose Setup loads the shared data set.
func dataset(gen generator, scale float64) *workload.Instance {
	return gen(workload.Config{Scale: scale, Queries: 1, Seed: dataSeed})
}

// newEngine loads inst into a fresh engine with a pool of pages pages.
func newEngine(inst *workload.Instance, pages int) (*bao.Engine, error) {
	eng := bao.NewEngine(bao.GradePostgreSQL, pages)
	if err := inst.Setup(eng); err != nil {
		return nil, err
	}
	return eng, nil
}

// nativeAnswer is what the unhinted optimizer does with one query.
type nativeAnswer struct {
	rows int
	secs float64 // simulated
}

// nativeSeconds is the simulated time of the native pass.
func nativeSeconds(answers []nativeAnswer) (secs float64) {
	for _, a := range answers {
		secs += a.secs
	}
	return secs
}

// nativePass runs qs in order on a fresh engine with no hints: the row
// counts every hinted plan must reproduce, and the simulated time Bao's
// steering is compared against.
func nativePass(data *workload.Instance, pages int, qs []workload.Query) ([]nativeAnswer, error) {
	eng, err := newEngine(data, pages)
	if err != nil {
		return nil, err
	}
	out := make([]nativeAnswer, len(qs))
	for i, q := range qs {
		res, err := eng.Query(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("native %q: %w", q.SQL, err)
		}
		out[i] = nativeAnswer{len(res.Rows), cloud.ExecSeconds(res.Counters)}
	}
	return out, nil
}
