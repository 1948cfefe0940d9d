package main

import (
	"fmt"
	"time"

	"bao"
	"bao/internal/obs"
	baoserver "bao/internal/server"
	"bao/internal/workload"
)

// missSelect is a working set larger than the plan cache: one server, a
// frozen model, and more distinct SQL texts than the cache has entries,
// swept cyclically so the LRU always evicts a text before it comes back.
// Every request plans 49 arms, dedups, featurizes, runs a TCNN forward
// pass and inserts into (and evicts from) the cache. It is the same
// cache fleet_hit reads, used for writes.
type missSelect struct {
	cfg  config
	opt  *bao.Optimizer
	o    *obs.Observer
	srv  *baoserver.Server
	m    mounted
	reqs []request // one cycle
}

func (w *missSelect) setup(rec *recorder) error {
	sz := w.cfg.sz
	// The seed decides what the model learns from; the texts it is then
	// asked about are the same for every seed, because planning time
	// depends on the literals and would otherwise move qps by ±10 % from
	// seed to seed.
	train, err := stream(workload.IMDbStable, 0.12, sz.missPretrain, w.cfg.seed, false)
	if err != nil {
		return err
	}
	texts, err := stream(workload.IMDbStable, 0.12, sz.missTexts, mixSeed, true)
	if err != nil {
		return err
	}
	eng, err := newEngine(dataset(workload.IMDbStable, 0.12), 2000)
	if err != nil {
		return err
	}
	c := bao.FastConfig()
	c.ArmWarmup = 0 // the full 49-arm family is selectable from the first model on
	c.PlanCache = true
	c.PlanCacheSize = sz.missCache
	c.InferBatch = 64
	w.o = privateObserver()
	c.Observer = w.o
	w.opt = bao.New(eng, c)
	for _, q := range train {
		if _, _, err := w.opt.Run(q.SQL); err != nil {
			return err
		}
	}
	if !w.opt.Trained() {
		return fmt.Errorf("model untrained after %d queries", sz.missPretrain)
	}
	w.opt.Cfg.RetrainEvery = 1 << 30 // frozen: no request observes, nothing retrains
	if w.srv, err = baoserver.New(w.opt, baoserver.Config{}); err != nil {
		return err
	}
	if w.m, err = mount(w.srv.Handler(), spanServer, rec); err != nil {
		return err
	}
	// The arm each text must get, from the library API. This is also the
	// cache's first full sweep: it ends holding the last texts, so the
	// measured sweep starts on a miss and stays on misses.
	for _, q := range texts {
		sel, err := w.opt.Select(q.SQL)
		if err != nil {
			return err
		}
		rq := newRequest(w.m.url+"/v1/select", "", q.SQL)
		rq.wantArm = sel.ArmID
		w.reqs = append(w.reqs, rq)
	}
	return nil
}

func (w *missSelect) close() {
	w.m.close()
	if w.srv != nil {
		w.srv.Kill()
	}
}

func (w *missSelect) do(i int) error {
	_, err := send(&w.reqs[i%len(w.reqs)], "")
	return err
}

func (w *missSelect) run(rep *report) {
	cycle := len(w.reqs)
	h0, m0 := w.o.PlanCacheHits.Value(), w.o.PlanCacheMisses.Value()
	rounds := repeatRounds(w.cfg.seconds, rep, func(i int) (round, error) {
		return closedLoop(clients, i*cycle, cycle, w.do), nil
	})
	h, m := w.o.PlanCacheHits.Value()-h0, w.o.PlanCacheMisses.Value()-m0
	reportRounds(rep, rounds)
	if share := ratio(h, h+m); share > 0.01 {
		rep.problem("plan-cache hit share %.4f, want <= 0.01: the workload left its regime", share)
	}
}

func (w *missSelect) trace(rep *report, rec *recorder, outDir string) {
	n, cycle := w.cfg.sz.sample, len(w.reqs)
	h0, m0, e0 := w.o.PlanCacheHits.Value(), w.o.PlanCacheMisses.Value(), w.o.PlanCacheEvictions.Value()
	wr := runWire(rec, n, func(i int, id string) error { _, err := send(&w.reqs[i%cycle], id); return err })
	rep.count(2*n, wr.failed, wr.firstErr)
	rttSelf := rec.gaps(spanRequest, spanServer)
	rep.set("loadgen.rtt_self_p50_us", median(rttSelf)*1e6, len(rttSelf))

	// Open-loop probe at a fixed arrival rate well under capacity.
	probe := openLoop(clients, w.cfg.sz.probeRate, time.Duration(w.cfg.sz.probeSeconds*float64(time.Second)),
		func(i int) error { return w.do(2*n + i) })
	rep.count(probe.sent, probe.failed, probe.firstErr)
	rep.set("loadgen.open_lat_p50_ms", probe.latP50, probe.sent)
	rep.set("loadgen.open_lat_p99_ms", probe.latP99, probe.sent)
	rep.set("loadgen.open_lag_p99_ms", probe.lagP99, probe.sent)
	rep.set("loadgen.open_sent", float64(probe.sent), 0)

	h, m := w.o.PlanCacheHits.Value()-h0, w.o.PlanCacheMisses.Value()-m0
	rep.set("core.plancache_hit_share", ratio(h, h+m), 0)
	rep.set("core.plancache_evictions", w.o.PlanCacheEvictions.Value()-e0, 0)
	_, cacheBytes := w.opt.PlanCacheStats()
	rep.set("core.plancache_mb", float64(cacheBytes)/(1<<20), 0)
	rep.set("server.rejected_429", w.o.ServeThrottled.Value(), 0)

	handler := w.srv.Handler()
	from := 2*n + probe.sent // continue the sweep where the wire traffic left it
	resident := 256          // half the program's default cache bound: safely still cached
	if w.cfg.sz.missCache > 0 {
		resident = w.cfg.sz.missCache / 2
	}
	st, al, serverSelf := selectStages(rep, rec, from, n, cycle, resident, func(i int) selectTarget {
		return selectTarget{&w.reqs[i%cycle], handler, w.opt}
	})
	if hits := len(st.selHit) + len(al.selHit); hits > 0 {
		rep.problem("stage tier: %d selections hit the plan cache", hits)
	}
	attribution{
		workload: rep.workload, what: "POST /v1/select, SQL text not in the plan cache",
		e2eUS: median(wr.untraced) * 1e6, tracedUS: median(wr.traced) * 1e6,
		rows: []layerRow{
			{"loadgen + loopback TCP (round trip − server.handler)", median(rttSelf) * 1e6, 0},
			{"server: HTTP/JSON, admission (server.handler − core.select)", serverSelf.us, serverSelf.allocs},
			{"core: dedup, cache write-back, argmin (core.select − its stages)", median(st.selfMiss) * 1e6, 0},
			{"engine.analyze − sqlparser.parse", st.analyze.p50us() - st.parse.p50us(), al.analyze.allocsPerCall() - al.parse.allocsPerCall()},
			{"sqlparser.parse", st.parse.p50us(), al.parse.allocsPerCall()},
			{"planner.plan_arms (49 arms)", st.planArms.p50us(), al.planArms.allocsPerCall()},
			{"core.featurize (distinct plans)", st.featurize.p50us(), al.featurize.allocsPerCall()},
			{"nn.predict (distinct trees, one batch)", st.predict.p50us(), al.predict.allocsPerCall()},
		},
	}.report(rep, outDir)
}
