package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"bao"
	"bao/internal/guard"
	"bao/internal/obs"
	baoserver "bao/internal/server"
	"bao/internal/workload"
)

// learnServe is the paper's loop as deployed: a durable server,
// untrained at start, takes a query stream in order through /v1/query
// while its background trainer retrains and hot-swaps beside it. The
// executor dominates wall time; Observe, the experience log, the
// trainer, checkpoint writes and the cache flush on every swap all run.
// Every round starts a fresh server on an empty directory, so rounds do
// the same work. One client, because executions share one lane: with
// more, one slow plan would delay every request behind it and the tail
// would measure the convoy, not the plan.
type learnServe struct {
	cfg    config
	dir    string
	data   *workload.Instance
	qs     []workload.Query
	native []nativeAnswer // of every stream query, in order
	rec    *recorder
	live   *serving
}

// serving is one server on its own durable directory.
type serving struct {
	dir  string
	o    *obs.Observer
	srv  *baoserver.Server
	m    mounted
	reqs []request // the stream, in order, aimed at this server
}

func (w *learnServe) optimizerConfig(o *obs.Observer) bao.Config {
	c := bao.FastConfig()
	c.PlanCache = true
	c.Observer = o
	return c
}

// open builds a fresh engine and optimizer and opens a server on dir,
// replaying whatever an earlier server left there. The log rotates at a
// sixteenth of the program's default segment size because a round is
// that much shorter than the hour of traffic the default is sized for:
// the round then seals, compacts and snapshots, as a long one would.
func (w *learnServe) open(dir string, o *obs.Observer) (*baoserver.Server, error) {
	eng, err := newEngine(w.data, 2000)
	if err != nil {
		return nil, err
	}
	return baoserver.New(bao.New(eng, w.optimizerConfig(o)), baoserver.Config{
		LogPath:       filepath.Join(dir, "bao.explog"),
		CheckpointDir: filepath.Join(dir, "checkpoints"),
		SegmentBytes:  w.cfg.sz.serveSegment,
	})
}

// serve starts an untrained server on a new empty directory.
func (w *learnServe) serve() (*serving, error) {
	dir, err := os.MkdirTemp(w.dir, "server")
	if err != nil {
		return nil, err
	}
	s := &serving{dir: dir, o: privateObserver()}
	if s.srv, err = w.open(dir, s.o); err != nil {
		return nil, err
	}
	if s.m, err = mount(s.srv.Handler(), spanServer, w.rec); err != nil {
		s.srv.Kill()
		return nil, err
	}
	for i, q := range w.qs {
		rq := newRequest(s.m.url+"/v1/query", "", q.SQL)
		rq.wantRows = w.native[i].rows
		s.reqs = append(s.reqs, rq)
	}
	return s, nil
}

func (s *serving) close() {
	s.m.close()
	if s.srv != nil {
		s.srv.Kill()
	}
	os.RemoveAll(s.dir) //nolint:errcheck // scratch
}

func (w *learnServe) setup(rec *recorder) error {
	var err error
	if w.dir, err = os.MkdirTemp(w.cfg.tmp, "serve"); err != nil {
		return err
	}
	w.rec = rec
	w.data = dataset(workload.IMDbStable, 0.12)
	if w.qs, err = stream(workload.IMDbStable, 0.12, w.cfg.sz.serveStream, mixSeed, false); err != nil {
		return err
	}
	if w.native, err = nativePass(w.data, 2000, w.qs); err != nil {
		return err
	}
	w.live, err = w.serve()
	return err
}

func (w *learnServe) close() {
	if w.live != nil {
		w.live.close()
	}
	os.RemoveAll(w.dir) //nolint:errcheck // scratch
}

func (w *learnServe) run(rep *report) {
	rounds := repeatRounds(w.cfg.seconds, rep, func(i int) (round, error) {
		if i > 0 {
			w.live.close()
			var err error
			if w.live, err = w.serve(); err != nil {
				return round{}, err
			}
		}
		s := w.live
		r := closedLoop(1, 0, len(s.reqs), func(i int) error { _, err := send(&s.reqs[i], ""); return err })
		// The round's heap is read once the server is quiet and its cache
		// empty: how much the cache holds at any instant depends on when
		// the last swap flushed it, and a fit in flight holds a second
		// model. What remains is the engine, the window and the model.
		s.m.close()
		s.srv.Kill()
		s.srv.Bao().FlushPlanCache()
		return r, nil
	})
	reportRounds(rep, rounds)
	if n := w.live.o.ServeThrottled.Value(); n != 0 {
		rep.problem("%v requests rejected with 429, want 0", n)
	}
}

// acked is one reply the client received: what a recovered window must
// still hold.
type acked struct {
	arm  int
	secs float64
}

func (w *learnServe) trace(rep *report, rec *recorder, outDir string) {
	n, s := w.cfg.sz.sample, w.live
	var replies []acked
	wr := runWire(rec, n, func(i int, id string) error {
		r, err := send(&s.reqs[i%len(s.reqs)], id)
		if err == nil {
			replies = append(replies, acked{r.ArmID, r.SimulatedSecs})
		}
		return err
	})
	rep.count(2*n, wr.failed, wr.firstErr)
	rttSelf := rec.gaps(spanRequest, spanServer)
	rep.set("loadgen.rtt_self_p50_us", median(rttSelf)*1e6, len(rttSelf))

	opt, o := s.srv.Bao(), s.o
	swaps, coalesced := o.HotSwaps.Value(), o.RetrainCoalesced.Value()
	rep.set("server.hot_swaps", swaps, 0)
	rep.set("server.retrain_coalesced_share", ratio(coalesced, coalesced+swaps), 0)
	rep.set("server.trainer_lag_s", o.TrainerLag.Value(), 0)
	rep.set("server.rejected_429", o.ServeThrottled.Value(), 0)
	h, m := o.PlanCacheHits.Value(), o.PlanCacheMisses.Value()
	rep.set("core.plancache_hit_share", ratio(h, h+m), 0)
	rep.set("core.plancache_evictions", o.PlanCacheEvictions.Value(), 0)
	_, cacheBytes := opt.PlanCacheStats()
	rep.set("core.plancache_mb", float64(cacheBytes)/(1<<20), 0)
	rep.set("bufferpool.hit_share", opt.Eng.Pool.Stats().HitRate(), 0)
	ls := s.srv.Log().Stats()
	rep.set("explog.snapshots", float64(ls.Snapshots), 0)
	rep.set("explog.segments", float64(ls.Segments), 0)
	rep.set("explog.tail_frames", float64(ls.TailFrames), 0)

	w.recovery(rep, rec, replies)
	w.stageTier(rep, rec, outDir, wr, median(rttSelf)*1e6)
}

// recovery crashes the server and reopens it on the same paths, five
// times. A crash here is a process crash: the log does not fsync per
// append, the operating system's cache survives Kill, and the benchmark
// does not pretend otherwise.
func (w *learnServe) recovery(rep *report, rec *recorder, replies []acked) {
	dir := w.live.dir
	w.live.m.close()
	w.live.srv.Kill()
	w.live.srv = nil
	rep.set("explog.disk_bytes_per_exp", ratio(float64(dirBytes(dir)), float64(len(replies))), 0)
	window := bao.FastConfig().WindowSize
	if len(replies) > window {
		replies = replies[len(replies)-window:]
	}
	want := map[acked]int{}
	for _, a := range replies {
		want[a]++
	}
	var times []float64
	var srv *baoserver.Server
	for i := 0; i < 5; i++ {
		if srv != nil {
			srv.Kill()
		}
		t0 := time.Now()
		var err error
		if srv, err = w.open(dir, privateObserver()); err != nil {
			rep.problem("reopen %d: %v", i, err)
			return
		}
		resp := httptest.NewRecorder()
		srv.Handler().ServeHTTP(resp, httptest.NewRequest(http.MethodGet, "/v1/health", nil))
		times = append(times, time.Since(t0).Seconds()*1e3)
		if resp.Code != http.StatusOK {
			rep.problem("reopen %d: /v1/health status %d", i, resp.Code)
		}
		// Every acknowledged (arm, simulated seconds) pair of the last
		// window must be back, as a multiset.
		left, found := map[acked]int{}, 0
		for k, v := range want {
			left[k] = v
		}
		for _, e := range srv.Bao().Experiences() {
			k := acked{e.ArmID, e.Secs}
			if left[k] > 0 {
				left[k]--
				found++
			}
		}
		share := ratio(float64(found), float64(len(replies)))
		rep.set("explog.recovered_share", share, len(replies))
		if share != 1 {
			rep.problem("reopen %d recovered %d of the last %d acknowledged experiences", i, found, len(replies))
		}
	}
	defer srv.Kill()
	rep.set("explog.recovery_ms", percentile(times, 0), len(times))

	// Checkpoint cost, on the model the last reopen restored.
	ckDir := filepath.Join(w.dir, "ckpt-bench")
	store, err := guard.OpenCheckpointStore(ckDir, 1)
	if err != nil {
		rep.problem("checkpoint store: %v", err)
		return
	}
	opt := srv.Bao()
	t0 := time.Now()
	if _, err := store.Save(opt.SaveModel); err != nil {
		rep.problem("checkpoint save: %v", err)
		return
	}
	end := time.Now()
	rec.add("checkpoint", spanCheckpoint, 0, t0, end)
	rep.set("guard.checkpoint_save_ms", end.Sub(t0).Seconds()*1e3, 0)
	rep.set("guard.checkpoint_kb", float64(dirBytes(ckDir))/1024, 0)
	t0 = time.Now()
	if gen, _, err := store.Restore(opt.LoadModel); err != nil || gen == 0 {
		rep.problem("checkpoint restore: generation %d, %v", gen, err)
		return
	}
	rep.set("guard.checkpoint_restore_ms", time.Since(t0).Seconds()*1e3, 0)
}

// libraryLoop runs the first n stream queries through a fresh optimizer
// with a log in its own directory attached the way the server attaches
// one, and returns both still open. Compaction is manual, so that
// stageTier can time one compaction of everything the loop sealed.
func (w *learnServe) libraryLoop(st *stages, name string, n int) (*bao.Optimizer, *baoserver.ExperienceLog, string, error) {
	eng, err := newEngine(w.data, 2000)
	if err != nil {
		return nil, nil, "", err
	}
	opt := bao.New(eng, w.optimizerConfig(privateObserver()))
	logPath := filepath.Join(w.dir, name, "bao.explog")
	if err := os.MkdirAll(filepath.Dir(logPath), 0o755); err != nil {
		return nil, nil, "", err
	}
	log, err := baoserver.OpenLog(logPath, baoserver.LogOptions{
		SegmentBytes: w.cfg.sz.serveSegment, WindowCap: opt.WindowCap(), ManualCompact: true})
	if err != nil {
		return nil, nil, "", err
	}
	if _, err := st.learnLoop(opt, w.qs[:n], log); err != nil {
		log.Close() //nolint:errcheck // the loop's error is the one to report
		return nil, nil, "", err
	}
	return opt, log, logPath, nil
}

// stageTier replays the sample through the library, once for times and
// once for allocations, then times a compaction and a bare replay of
// the log the timing pass wrote.
func (w *learnServe) stageTier(rep *report, rec *recorder, outDir string, wr wire, rttSelfUS float64) {
	n := w.cfg.sz.sample
	if n > len(w.qs) {
		n = len(w.qs)
	}
	st, al := &stages{rec: rec}, &stages{}
	_, alLog, _, err := w.libraryLoop(al, "stage-allocs", n)
	if err == nil {
		err = alLog.Close()
	}
	if err != nil {
		rep.problem("stage tier: %v", err)
		return
	}
	opt, log, logPath, err := w.libraryLoop(st, "stage-times", n)
	if err != nil {
		rep.problem("stage tier: %v", err)
		return
	}
	t0 := time.Now()
	err = log.Compact()
	rep.set("explog.compact_ms", time.Since(t0).Seconds()*1e3, 0)
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		rep.problem("stage tier: compact and close: %v", err)
		return
	}
	st.setSelectMetrics(rep, al)
	st.setLearnMetrics(rep, al)
	rep.set("core.sim_speedup_vs_native", ratio(nativeSeconds(w.native[:n]), st.simSecs), n)
	rep.set("explog.bytes_per_append", ratio(float64(dirBytes(filepath.Dir(logPath))), float64(len(st.appendLog))), 0)
	fitWindow(rep, opt)

	fresh := bao.New(opt.Eng, w.optimizerConfig(privateObserver()))
	t0 = time.Now()
	log, err = baoserver.OpenLog(logPath, baoserver.LogOptions{SegmentBytes: w.cfg.sz.serveSegment, WindowCap: fresh.WindowCap()})
	if err != nil {
		rep.problem("replay: %v", err)
		return
	}
	log.Replay(fresh)
	end := time.Now()
	rec.add("replay", spanReplay, 0, t0, end)
	rep.set("explog.replay_ms", end.Sub(t0).Seconds()*1e3, fresh.ExperienceSize())
	if err := log.Close(); err != nil {
		rep.problem("close log: %v", err)
	}

	attribution{
		workload: rep.workload, what: "POST /v1/query on a learning server (select, execute, observe, log append)",
		e2eUS: median(wr.untraced) * 1e6, tracedUS: median(wr.traced) * 1e6,
		rows: []layerRow{
			{"loadgen + loopback TCP (round trip − server.handler)", rttSelfUS, 0},
			{"core.select (cache hits and misses as they fall)", st.sel.p50us(), al.sel.allocsPerCall()},
			{"executor.execute", st.exec.p50us(), al.exec.allocsPerCall()},
			{"core.observe", st.observe.p50us(), al.observe.allocsPerCall()},
			{"explog.append", st.appendLog.p50us(), al.appendLog.allocsPerCall()},
		},
	}.report(rep, outDir)
}
