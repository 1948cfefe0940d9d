package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"bao"
	"bao/internal/nn"
)

// wire is the wire tier of a traced run: the sample sent over loopback
// HTTP from one client, the recorder on for every other request. With
// one client nothing queues, so a request's round trip is the sum of the
// layers it crosses.
type wire struct {
	untraced, traced []float64 // client round trips, seconds
	failed           int
	firstErr         error
}

// runWire sends requests [0,2n), every other one traced, so that warm-up
// and drift fall on both halves alike; do gets the request id to put on
// the wire ("" = none).
func runWire(rec *recorder, n int, do func(i int, reqID string) error) wire {
	var w wire
	defer rec.on.Store(false)
	for i := 0; i < 2*n; i++ {
		traced, id := i%2 == 1, ""
		if traced {
			id = "wire-" + strconv.Itoa(i)
		}
		rec.on.Store(traced)
		t0 := time.Now()
		err := do(i, id)
		end := time.Now()
		switch {
		case err != nil:
			w.failed++
			if w.firstErr == nil {
				w.firstErr = err
			}
		case traced:
			rec.add(id, spanRequest, 0, t0, end)
			w.traced = append(w.traced, end.Sub(t0).Seconds())
		default:
			w.untraced = append(w.untraced, end.Sub(t0).Seconds())
		}
	}
	return w
}

// gaps returns, over the requests that have both spans, outer − inner
// in seconds: the outer layer's self time on that request.
func (r *recorder) gaps(outer, inner string) []float64 {
	in := r.durations(inner)
	var out []float64
	for id, d := range r.durations(outer) {
		if i, ok := in[id]; ok && strings.HasPrefix(id, "wire-") {
			out = append(out, d-i)
		}
	}
	return out
}

// layerRow is one line of layers.<workload>.md.
type layerRow struct {
	stage  string
	us     float64 // median self time per request
	allocs float64
}

// attribution is the additivity check ROADMAP item 1 asks for: the
// stages' median self times against the median of the whole request.
type attribution struct {
	workload string
	what     string  // what one request is
	e2eUS    float64 // untraced median
	tracedUS float64 // traced median
	rows     []layerRow
}

func (a attribution) unattributed() float64 {
	var s float64
	for _, r := range a.rows {
		s += r.us
	}
	return ratio(a.tracedUS-s, a.tracedUS)
}

// report sets the two trace.* metrics and writes layers.<workload>.md:
// stage → µs → allocs → share of end-to-end.
func (a attribution) report(rep *report, outDir string) {
	rep.set("trace.overhead_share", ratio(a.tracedUS-a.e2eUS, a.e2eUS), 0)
	rep.set("trace.unattributed_share", a.unattributed(), 0)
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: where one request's time goes\n\n", a.workload)
	fmt.Fprintf(&b, "One request = %s. Median round trip at one client: %.1f µs untraced, %.1f µs traced.\n\n", a.what, a.e2eUS, a.tracedUS)
	b.WriteString("| stage | self p50 µs | allocs | share of traced p50 |\n|---|---:|---:|---:|\n")
	for _, r := range a.rows {
		fmt.Fprintf(&b, "| %s | %.1f | %.0f | %.3f |\n", r.stage, r.us, r.allocs, ratio(r.us, a.tracedUS))
	}
	un := a.unattributed()
	fmt.Fprintf(&b, "| trace.unattributed_share | %.1f | | %.3f |\n", un*a.tracedUS, un)
	if un > 0.15 {
		b.WriteString("\nMore than 15 % of the request is not covered by any stage's median: medians do not add, and time between stages (socket, scheduler, net/http) has no span of its own.\n")
	}
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		err = os.WriteFile(filepath.Join(outDir, "layers."+a.workload+".md"), []byte(b.String()), 0o644)
		if err != nil {
			rep.problem("layers.md: %v", err)
		}
	}
}

// selectTarget is where the stage tier of a select workload sends
// request i: the handler that serves it and the optimizer behind it.
type selectTarget struct {
	rq      *request
	handler http.Handler
	opt     *bao.Optimizer
}

// selectStages is the stage tier of the two select workloads, run once
// for times (st) and once for allocations (al): the sample selected
// through the library with its stages replayed, then the server's own
// work. Before the second pass the rest of the cycle runs untimed, so
// that a cache smaller than the cycle has evicted the sample again.
//
// The server's self time is handler − select on the last `resident`
// requests of the sample, which the pass has just left in the plan
// cache: the handler does the same work around a hit as around a miss,
// and only against a 20 µs hit can a 50 µs difference be resolved; two
// millisecond-long misses differ by more than that from one call to the
// next.
func selectStages(rep *report, rec *recorder, from, n, cycle, resident int, target func(i int) selectTarget) (st, al *stages, serverSelf layerRow) {
	st, al = &stages{rec: rec}, &stages{}
	for pass, s := range []*stages{st, al} {
		if pass > 0 {
			for i := from + n; i < from+cycle; i++ {
				t := target(i)
				if _, err := t.opt.SelectCtx(bg, t.rq.sql); err != nil {
					rep.problem("stage tier: %v", err)
					return st, al, serverSelf
				}
			}
		}
		for i := from; i < from+n; i++ {
			t := target(i)
			if _, err := s.selectSpan(t.opt, "stage-"+strconv.Itoa(i), t.rq.sql); err != nil {
				rep.problem("stage tier: %v", err)
				return st, al, serverSelf
			}
		}
		for i := from + n - resident; i < from+n; i++ {
			t, id := target(i), "server-"+strconv.Itoa(i)
			if code := s.handle(t.handler, t.rq, id); code != http.StatusOK {
				rep.problem("stage tier: handler status %d for %.80s", code, t.rq.sql)
				return st, al, serverSelf
			}
			c, _ := s.spanned(id, spanSelect, 0, func() { t.opt.SelectCtx(bg, t.rq.sql) }) //nolint:errcheck // selected without error a moment ago
			s.handled = append(s.handled, c)
		}
	}
	serverSelf = layerRow{
		us:     st.handler.p50us() - st.handled.p50us(),
		allocs: al.handler.allocsPerCall() - al.handled.allocsPerCall(),
	}
	rep.set("server.self_p50_us", serverSelf.us, len(st.handler))
	rep.set("server.allocs_per_select", serverSelf.allocs, 0)
	rep.set("server.kb_per_select", al.handler.kbPerCall()-al.handled.kbPerCall(), 0)
	st.setSelectMetrics(rep, al)
	return st, al, serverSelf
}

// fitWindow refits opt's model on its current experience window, the
// way an inline retrain would, and reports what one fit costs.
func fitWindow(rep *report, opt *bao.Optimizer) {
	exps := opt.Experiences()
	trees := make([]*nn.Tree, len(exps))
	secs := make([]float64, len(exps))
	for i, e := range exps {
		trees[i], secs[i] = e.Tree, e.Secs
	}
	epochs := 0
	c := measure(func() { epochs = opt.Model.Fit(trees, secs) }) // a fit takes 100s of ms: the counter reads do not show
	rep.set("nn.fit_s", c.secs, 0)
	rep.set("nn.fit_samples", float64(len(exps)), 0)
	rep.set("nn.fit_epochs", float64(epochs), 0)
	rep.set("nn.fit_allocs_per_sample", ratio(c.mallocs, float64(len(exps))), 0)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (total int64) {
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error { //nolint:errcheck // best effort; a vanished file counts 0
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
