package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"bao"
	"bao/internal/obs"
	"bao/internal/workload"
)

// learnInline is library mode on one goroutine: Select → Execute →
// Observe over a dynamic IMDb stream with inline retrains and no plan
// cache. It is the only fully deterministic learning run: simulated
// seconds and the arm sequence must repeat exactly from pass to pass,
// and the run is not correct if they do not. It is also the training
// workload: about half of its wall time is model.Fit, which the two
// select workloads never call.
type learnInline struct {
	cfg    config
	data   *workload.Instance
	qs     []workload.Query
	native []nativeAnswer
}

func (w *learnInline) setup(*recorder) error {
	var err error
	w.data = dataset(workload.IMDb, 0.25)
	if w.qs, err = stream(workload.IMDb, 0.25, w.cfg.sz.inlineQueries, mixSeed, false); err != nil {
		return err
	}
	w.native, err = nativePass(w.data, 2000, w.qs)
	return err
}

func (w *learnInline) close() {}

// newOptimizer builds a fresh engine and an untrained optimizer over it.
func (w *learnInline) newOptimizer(o *obs.Observer) (*bao.Optimizer, error) {
	eng, err := newEngine(w.data, 2000)
	if err != nil {
		return nil, err
	}
	c := bao.FastConfig()
	c.Observer = o
	return bao.New(eng, c), nil
}

// inlinePass is what one pass over the stream produced.
type inlinePass struct {
	round
	simSecs float64 // simulated seconds of the steered stream
	armHash uint64  // FNV-1a over the arm sequence
	opt     *bao.Optimizer
}

// pass runs the first n stream queries through a fresh optimizer. A
// query whose row count differs from the native plan's is a failed
// operation: a hint set may change the plan, never the answer.
func (w *learnInline) pass(o *obs.Observer, n int) (inlinePass, error) {
	var p inlinePass
	opt, err := w.newOptimizer(o)
	if err != nil {
		return p, err
	}
	p.opt = opt
	h := fnv.New64a()
	cpu0, t0 := cpuSeconds(), time.Now()
	for i, q := range w.qs[:n] {
		start := time.Now()
		sel, err := opt.Select(q.SQL)
		if err != nil {
			return p, err
		}
		res, err := opt.Eng.Execute(sel.Plans[sel.ArmID])
		if err != nil {
			return p, err
		}
		opt.Observe(sel, res.Counters)
		if len(res.Rows) == w.native[i].rows {
			p.lats = append(p.lats, time.Since(start).Seconds())
		} else {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("arm %d returns %d rows, native plan %d: %.80s", sel.ArmID, len(res.Rows), w.native[i].rows, q.SQL)
			}
		}
		p.simSecs += bao.ExecSeconds(res.Counters)
		h.Write([]byte{byte(sel.ArmID)}) //nolint:errcheck // hash.Hash never fails
	}
	p.wall, p.cpu = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	p.ok = len(p.lats)
	p.armHash = h.Sum64()
	return p, nil
}

func (w *learnInline) run(rep *report) {
	var first, last inlinePass
	rounds := repeatRounds(w.cfg.seconds, rep, func(i int) (round, error) {
		p, err := w.pass(privateObserver(), len(w.qs))
		if err != nil {
			return round{}, err
		}
		if i == 0 {
			first = p
		} else if p.simSecs != first.simSecs || p.armHash != first.armHash {
			rep.problem("pass %d is not deterministic: simulated %.9f s arms %x, pass 0 %.9f s arms %x",
				i, p.simSecs, p.armHash, first.simSecs, first.armHash)
		}
		last = p
		return p.round, nil
	})
	reportRounds(rep, rounds)
	// Each pass's optimizer (trained model, full window, its engine) was
	// still referenced when its round's heap was read: the heap figure is
	// the library's working set.
	runtime.KeepAlive(last.opt)
}

func (w *learnInline) trace(rep *report, rec *recorder, outDir string) {
	n := w.cfg.sz.sample
	if n > len(w.qs) {
		n = len(w.qs)
	}
	plain, err := w.pass(privateObserver(), n)
	if err != nil {
		rep.problem("untraced pass: %v", err)
		return
	}
	rep.count(n, plain.failed, nil)
	// The library loop with every stage spanned, once for times and once
	// for allocations, each on a fresh optimizer.
	st, al := &stages{rec: rec}, &stages{}
	var opt *bao.Optimizer
	var perQuery []float64
	for _, s := range []*stages{al, st} {
		if opt, err = w.newOptimizer(privateObserver()); err == nil {
			perQuery, err = s.learnLoop(opt, w.qs[:n], nil)
		}
		if err != nil {
			rep.problem("stage tier: %v", err)
			return
		}
	}
	// Replaying a selection's stages must not steer it: the traced loop
	// makes the same decisions as the untraced pass, to the last digit.
	if st.simSecs != plain.simSecs || al.simSecs != plain.simSecs {
		rep.problem("traced loops simulated %.9f s and %.9f s, untraced pass %.9f s", st.simSecs, al.simSecs, plain.simSecs)
	}
	st.setSelectMetrics(rep, al)
	st.setLearnMetrics(rep, al)
	rep.set("core.sim_speedup_vs_native", ratio(nativeSeconds(w.native[:n]), st.simSecs), n)
	rep.set("bufferpool.hit_share", opt.Eng.Pool.Stats().HitRate(), 0)
	fitWindow(rep, opt)

	// Observer overhead: the same leading queries with a live observer and
	// with the no-op one.
	k := w.cfg.sz.inlineObs
	on, err := w.pass(privateObserver(), k)
	if err != nil {
		rep.problem("observer pass: %v", err)
		return
	}
	off, err := w.pass(obs.Disabled(), k)
	if err != nil {
		rep.problem("observer pass: %v", err)
		return
	}
	rep.set("obs.overhead_share", ratio(on.wall-off.wall, off.wall), k)

	attribution{
		workload: rep.workload, what: "one Select → Execute → Observe iteration in library mode (retrains excluded)",
		e2eUS: plain.p50ms() * 1e3, tracedUS: median(perQuery) * 1e6,
		rows: []layerRow{
			{"core.select (no plan cache: plans 49 arms every time)", st.sel.p50us(), al.sel.allocsPerCall()},
			{"executor.execute", st.exec.p50us(), al.exec.allocsPerCall()},
			{"core.observe", st.observe.p50us(), al.observe.allocsPerCall()},
		},
	}.report(rep, outDir)
}
