package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"bao"
	"bao/internal/obs"
	baorouter "bao/internal/router"
	baoserver "bao/internal/server"
	"bao/internal/workload"
)

// fleetHit is the production front door on its cheapest request: one
// router and two shards host a few tenants whose every SQL shape is
// resident in the plan cache, so router, HTTP/JSON, admission, tenant
// registry, parser and the cache lookup do nearly all the work and
// planner, TCNN and executor do none. A planner or model change must
// read "no change" here.
type fleetHit struct {
	cfg       config
	dir       string
	shards    []*baoserver.Shard
	router    *baorouter.Router
	mounts    []mounted
	routerObs *obs.Observer
	mu        sync.Mutex
	tenantObs map[string]*obs.Observer // each tenant optimizer's own counters
	tenants   []string
	routed    []request // one cycle: shapes × tenants, tenants round-robin, via the router
	direct    []request // the same cycle aimed at each tenant's owning shard
}

func (f *fleetHit) setup(rec *recorder) error {
	sz := f.cfg.sz
	dir, err := os.MkdirTemp(f.cfg.tmp, "fleet")
	if err != nil {
		return err
	}
	f.dir = dir
	f.tenantObs = map[string]*obs.Observer{}
	// Each tenant has the same tables and its own queries: tenantTrain to
	// train on, then shapes distinct texts to serve.
	data := dataset(workload.Micro, 6)
	train, shapes := map[string][]workload.Query{}, map[string][]workload.Query{}
	for i := 0; i < sz.tenants; i++ {
		tn := fmt.Sprintf("tenant-%d", i)
		f.tenants = append(f.tenants, tn)
		qs, err := stream(workload.Micro, 6, sz.tenantTrain+sz.shapes, f.cfg.seed*int64(sz.tenants)+int64(i), true)
		if err != nil {
			return err
		}
		train[tn], shapes[tn] = qs[:sz.tenantTrain], qs[sz.tenantTrain:]
	}
	// The factory trains each tenant inline on its first stream queries
	// and freezes it: measurement runs against a fixed model, so the arm
	// every shape gets is a function of the seed alone.
	factory := func(tenant string) (*bao.Optimizer, error) {
		eng, err := newEngine(data, 256)
		if err != nil {
			return nil, err
		}
		c := bao.FastConfig()
		c.ArmWarmup = 0
		c.RetrainEvery = 1 << 30
		c.PlanCache = true
		c.Observer = privateObserver()
		f.mu.Lock()
		f.tenantObs[tenant] = c.Observer
		f.mu.Unlock()
		opt := bao.New(eng, c)
		for _, q := range train[tenant] {
			if _, _, err := opt.Run(q.SQL); err != nil {
				return nil, err
			}
		}
		opt.Retrain()
		return opt, nil
	}
	var infos []baorouter.ShardInfo
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("shard-%d", i)
		shard, err := baoserver.NewShard(baoserver.ShardConfig{
			Name:     name,
			Tenants:  baoserver.TenantOptions{Dir: dir, NewBao: factory},
			Observer: privateObserver(),
		})
		if err != nil {
			return err
		}
		f.shards = append(f.shards, shard)
		m, err := mount(shard.Handler(), spanServer, rec)
		if err != nil {
			return err
		}
		f.mounts = append(f.mounts, m)
		infos = append(infos, baorouter.ShardInfo{Name: name, URL: m.url})
	}
	f.routerObs = privateObserver()
	f.router, err = baorouter.New(baorouter.RouterConfig{Shards: infos, Observer: f.routerObs})
	if err != nil {
		return err
	}
	front, err := mount(f.router.Handler(), spanRouter, rec)
	if err != nil {
		return err
	}
	f.mounts = append(f.mounts, front)

	shardURL := map[string]string{}
	for _, si := range infos {
		shardURL[si.Name] = si.URL
	}
	for s := 0; s < sz.shapes; s++ {
		for _, tn := range f.tenants {
			f.routed = append(f.routed, newRequest(front.url+"/v1/select", tn, shapes[tn][s].SQL))
			f.direct = append(f.direct, newRequest(shardURL[f.router.Owner(tn)]+"/v1/select", tn, shapes[tn][s].SQL))
		}
	}
	// One cycle through the router activates every tenant (its factory
	// trains it) and makes every shape resident in the post-training cache.
	for i := range f.routed {
		if _, err := send(&f.routed[i], ""); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	// The arm each request must get, from the library API on the same
	// frozen optimizer the shard serves from.
	for i := range f.routed {
		sel, err := f.optimizer(f.routed[i].tenant).Select(f.routed[i].sql)
		if err != nil {
			return err
		}
		f.routed[i].wantArm, f.direct[i].wantArm = sel.ArmID, sel.ArmID
	}
	return nil
}

// optimizer returns a resident tenant's optimizer.
func (f *fleetHit) optimizer(tenant string) *bao.Optimizer {
	for _, s := range f.shards {
		if srv := s.Registry().Peek(tenant); srv != nil {
			return srv.Bao()
		}
	}
	panic("benchmark: tenant not resident: " + tenant) // set-up activated every tenant
}

func (f *fleetHit) close() {
	for _, m := range f.mounts {
		m.close()
	}
	if f.router != nil {
		f.router.Shutdown(context.Background()) //nolint:errcheck // never started; stops nothing but the poller flag
	}
	for _, s := range f.shards {
		s.Kill()
	}
	os.RemoveAll(f.dir) //nolint:errcheck // scratch
}

// cacheCounts sums plan-cache hits and misses over every tenant.
func (f *fleetHit) cacheCounts() (hits, misses, evictions float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, o := range f.tenantObs {
		hits += o.PlanCacheHits.Value()
		misses += o.PlanCacheMisses.Value()
		evictions += o.PlanCacheEvictions.Value()
	}
	return
}

func (f *fleetHit) throttled() (n float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, o := range f.tenantObs {
		n += o.ServeThrottled.Value()
	}
	return
}

func (f *fleetHit) run(rep *report) {
	cycle := len(f.routed)
	do := func(i int) error { _, err := send(&f.routed[i%cycle], ""); return err }
	h0, m0, _ := f.cacheCounts()
	rounds := repeatRounds(f.cfg.seconds, rep, func(int) (round, error) {
		return closedLoop(clients, 0, f.cfg.sz.fleetCycles*cycle, do), nil
	})
	h1, m1, _ := f.cacheCounts()
	reportRounds(rep, rounds)
	if share := ratio(h1-h0, h1-h0+m1-m0); share < 0.99 {
		rep.problem("plan-cache hit share %.4f, want >= 0.99: the workload left its regime", share)
	}
	if n := f.routerObs.RouterFailovers.Value(); n != 0 {
		rep.problem("%v router failovers, want 0", n)
	}
}

func (f *fleetHit) trace(rep *report, rec *recorder, outDir string) {
	n, cycle := f.cfg.sz.sample, len(f.routed)
	h0, m0, _ := f.cacheCounts()
	w := runWire(rec, n, func(i int, id string) error { _, err := send(&f.routed[i%cycle], id); return err })
	rep.count(2*n, w.failed, w.firstErr)
	rttSelf := rec.gaps(spanRequest, spanRouter)
	hop := rec.gaps(spanRouter, spanServer)
	rep.set("loadgen.rtt_self_p50_us", median(rttSelf)*1e6, len(rttSelf))
	rep.set("router.hop_p50_us", median(hop)*1e6, len(hop))
	rep.set("router.hop_share", ratio(median(hop), median(w.traced)), len(hop))

	// What the hop allocates: the same requests through the router and
	// straight to the owning shard, one client, process-wide counts. The
	// load generator's own allocations are in both and cancel.
	var failed int
	var firstErr error
	sendAll := func(reqs []request) cost {
		return measure(func() {
			for i := 0; i < n; i++ {
				if _, err := send(&reqs[i%cycle], ""); err != nil {
					failed++
					firstErr = err
				}
			}
		})
	}
	routed, direct := sendAll(f.routed), sendAll(f.direct)
	rep.count(2*n, failed, firstErr)
	routerAllocs := ratio(routed.mallocs-direct.mallocs, float64(n))
	rep.set("router.allocs_per_op", routerAllocs, 0)
	h1, m1, ev := f.cacheCounts()
	rep.set("core.plancache_hit_share", ratio(h1-h0, h1-h0+m1-m0), 0)
	rep.set("core.plancache_evictions", ev, 0)
	rep.set("router.failover_retries", f.routerObs.RouterFailovers.Value(), 0)
	rep.set("server.rejected_429", f.throttled(), 0)
	var cacheBytes int64
	for _, tn := range f.tenants {
		_, b := f.optimizer(tn).PlanCacheStats()
		cacheBytes += b
	}
	rep.set("core.plancache_mb", float64(cacheBytes)/(1<<20), 0)

	handlers := map[string]http.Handler{}
	shardOf := map[string]*baoserver.Shard{}
	for _, s := range f.shards {
		for _, tn := range f.tenants {
			if s.Registry().Peek(tn) != nil {
				handlers[tn], shardOf[tn] = s.Handler(), s
			}
		}
	}
	st, al, serverSelf := selectStages(rep, rec, 0, n, cycle, n, func(i int) selectTarget {
		rq := &f.direct[i%cycle]
		return selectTarget{rq, handlers[rq.tenant], f.optimizer(rq.tenant)}
	})
	var acquire []float64
	for i := 0; i < n; i++ {
		tn := f.direct[i%cycle].tenant
		reg := shardOf[tn].Registry()
		t0 := time.Now()
		e, err := reg.Acquire(bg, tn)
		if err != nil {
			rep.problem("acquire %s: %v", tn, err)
			return
		}
		reg.Release(e)
		acquire = append(acquire, time.Since(t0).Seconds())
	}
	rep.set("server.tenant_acquire_p50_us", median(acquire)*1e6, len(acquire))

	selSelf := st.selHit.p50us() - st.analyze.p50us()
	attribution{
		workload: rep.workload, what: "POST /v1/select through the router, shape resident in the plan cache",
		e2eUS: median(w.untraced) * 1e6, tracedUS: median(w.traced) * 1e6,
		rows: []layerRow{
			{"loadgen + loopback TCP (round trip − router.handler)", median(rttSelf) * 1e6, 0},
			{"router hop (router.handler − server.handler)", median(hop) * 1e6, routerAllocs},
			{"server: HTTP/JSON, admission, tenant registry (server.handler − core.select)", serverSelf.us, serverSelf.allocs},
			{"core: plan-cache lookup + argmin (core.select − engine.analyze)", selSelf, al.selHit.allocsPerCall() - al.analyze.allocsPerCall()},
			{"engine.analyze − sqlparser.parse", st.analyze.p50us() - st.parse.p50us(), al.analyze.allocsPerCall() - al.parse.allocsPerCall()},
			{"sqlparser.parse", st.parse.p50us(), al.parse.allocsPerCall()},
		},
	}.report(rep, outDir)
}
