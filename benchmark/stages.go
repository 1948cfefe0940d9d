package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"bao"
	"bao/internal/nn"
	"bao/internal/obs"
	"bao/internal/planner"
	baoserver "bao/internal/server"
	"bao/internal/sqlparser"
	"bao/internal/workload"
)

// stages is the stage tier of a traced run: the sample's requests
// re-issued through each module's public functions from one goroutine.
// It runs twice. The timing pass (rec set) puts a span around every call.
// The allocation pass (rec nil) counts heap objects and bytes instead:
// reading the allocator's counters stops the world, which costs the next
// call tens of microseconds, so the two are never taken together.
type stages struct {
	rec *recorder

	handler   costs // Server/Shard.Handler().ServeHTTP on a response recorder
	handled   costs // Bao.SelectCtx on the same requests, for handler − select
	sel       costs // Bao.SelectCtx, every call
	selHit    costs // ... those the plan cache answered
	selMiss   costs // ... those that planned
	selfMiss  []float64
	analyze   costs // Engine.AnalyzeSQL
	parse     costs // sqlparser.ParseSelect
	planArms  costs // Engine.Plan for every arm of one query
	planArm   []float64
	cands     float64 // planner candidates considered, all queries
	featurize costs   // Featurizer.Vectorize over one query's distinct plans
	predict   costs   // Model.Predict over one query's distinct trees
	trees     int     // distinct trees predicted, all queries
	distinct  int     // distinct plans featurized, all queries
	arms      int     // arms planned, all queries
	exec      costs   // Engine.ExecuteCtx of the chosen plan
	simSecs   float64 // simulated seconds of those executions
	observe   costs   // Bao.Observe, no hook, no retrain
	appendLog costs   // ExperienceLog.AppendExperience
	fit       costs   // Bao.Retrain when one fell due
}

var bg = context.Background()

// spanned runs fn as one stage: timed and recorded as a span in the
// timing pass, its allocations counted in the allocation pass.
func (st *stages) spanned(reqID, name string, parent int64, fn func()) (cost, int64) {
	if st.rec == nil {
		return measure(fn), 0
	}
	start := time.Now()
	fn()
	end := time.Now()
	return cost{secs: end.Sub(start).Seconds()}, st.rec.add(reqID, name, parent, start, end)
}

// handle serves rq on h through a response recorder: the handler's full
// cost (routing, admission, JSON, request-id and timeout middleware, and
// the Bao call inside) without a socket.
func (st *stages) handle(h http.Handler, rq *request, reqID string) int {
	var w *httptest.ResponseRecorder
	c, _ := st.spanned(reqID, spanServer, 0, func() {
		req := httptest.NewRequest(http.MethodPost, rq.url, bytes.NewReader(rq.body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Bao-Request-Id", reqID)
		if rq.tenant != "" {
			req.Header.Set("X-Bao-Tenant", rq.tenant)
		}
		w = httptest.NewRecorder()
		h.ServeHTTP(w, req)
	})
	st.handler = append(st.handler, c)
	return w.Code
}

// selectSpan times one SelectCtx and then replays its stages as child
// spans. Whether the plan cache answered is read from the optimizer's
// own hit counter, which only this goroutine is moving.
func (st *stages) selectSpan(opt *bao.Optimizer, reqID, sql string) (*bao.Selection, error) {
	o := opt.Observer()
	hits := o.PlanCacheHits.Value()
	var sel *bao.Selection
	var err error
	c, id := st.spanned(reqID, spanSelect, 0, func() { sel, err = opt.SelectCtx(bg, sql) })
	if err != nil {
		return nil, err
	}
	hit := o.PlanCacheHits.Value() > hits
	children, err := st.replay(opt, reqID, id, sql, sel, hit)
	if err != nil {
		return nil, err
	}
	st.sel = append(st.sel, c)
	if hit {
		st.selHit = append(st.selHit, c)
	} else {
		st.selMiss = append(st.selMiss, c)
		st.selfMiss = append(st.selfMiss, c.secs-children)
	}
	return sel, nil
}

// replay calls, one after another, the public functions a selection is
// made of and returns their total seconds. A cache hit analyzes the SQL
// and stops; a miss also plans every arm, featurizes each distinct plan
// and, once a model exists, predicts them in one batch.
func (st *stages) replay(opt *bao.Optimizer, reqID string, parent int64, sql string, sel *bao.Selection, hit bool) (float64, error) {
	var q *planner.Query
	var err error
	ca, aid := st.spanned(reqID, spanAnalyze, parent, func() { q, err = opt.Eng.AnalyzeSQL(sql) })
	if err != nil {
		return 0, err
	}
	st.analyze = append(st.analyze, ca)
	cp, _ := st.spanned(reqID, spanParse, aid, func() { _, err = sqlparser.ParseSelect(sql) })
	if err != nil {
		return 0, err
	}
	st.parse = append(st.parse, cp)
	total := ca.secs
	if hit {
		return total, nil
	}

	cpl, _ := st.spanned(reqID, spanPlanArms, parent, func() {
		for _, arm := range opt.Cfg.Arms {
			t := time.Now()
			_, cands, perr := opt.Eng.Plan(q, arm.Hints)
			st.planArm = append(st.planArm, time.Since(t).Seconds())
			st.cands += float64(cands)
			if perr != nil && err == nil {
				err = perr
			}
		}
	})
	if err != nil {
		return 0, err
	}
	st.planArms = append(st.planArms, cpl)
	st.arms += len(opt.Cfg.Arms)
	total += cpl.secs

	// Arms whose plans dedup to one share one tree; a distinct tree marks
	// a distinct plan.
	var plans []*planner.Node
	var trees []*nn.Tree
	seen := map[*nn.Tree]bool{}
	for i, t := range sel.Trees {
		if t != nil && !seen[t] {
			seen[t] = true
			plans = append(plans, sel.Plans[i])
			trees = append(trees, t)
		}
	}
	cf, _ := st.spanned(reqID, spanFeaturize, parent, func() {
		for _, p := range plans {
			opt.Feat.Vectorize(p)
		}
	})
	st.featurize = append(st.featurize, cf)
	st.distinct += len(plans)
	total += cf.secs
	if sel.Preds != nil {
		cpr, _ := st.spanned(reqID, spanPredict, parent, func() { opt.Model.Predict(trees) })
		st.predict = append(st.predict, cpr)
		st.trees += len(trees)
		total += cpr.secs
	}
	return total, nil
}

// learnLoop is the stage tier of the two learning workloads: the library
// loop over qs with every stage spanned. Observe is timed with retrains
// diverted to a flag, and the retrain then runs in its own nn.fit span;
// with a log, each admitted experience is appended to it the way the
// server's hook would. It returns the per-query sum of stage times.
func (st *stages) learnLoop(opt *bao.Optimizer, qs []workload.Query, log *baoserver.ExperienceLog) ([]float64, error) {
	due := false
	opt.SetRetrainHook(func(obs.Cause) { due = true })
	defer opt.SetRetrainHook(nil)
	perQuery := make([]float64, 0, len(qs))
	for i, q := range qs {
		reqID := "stage-" + strconv.Itoa(i)
		sel, err := st.selectSpan(opt, reqID, q.SQL)
		if err != nil {
			return nil, err
		}
		var res *bao.Result
		ce, _ := st.spanned(reqID, spanExecute, 0, func() { res, err = opt.Eng.ExecuteCtx(bg, sel.Plans[sel.ArmID]) })
		if err != nil {
			return nil, err
		}
		st.exec = append(st.exec, ce)
		st.simSecs += bao.ExecSeconds(res.Counters)
		co, _ := st.spanned(reqID, spanObserve, 0, func() { opt.Observe(sel, res.Counters) })
		st.observe = append(st.observe, co)
		total := st.sel[len(st.sel)-1].secs + ce.secs + co.secs
		if log != nil {
			exps := opt.Experiences()
			ca, _ := st.spanned(reqID, spanAppend, 0, func() { err = log.AppendExperience(exps[len(exps)-1]) })
			if err != nil {
				return nil, err
			}
			st.appendLog = append(st.appendLog, ca)
			total += ca.secs
		}
		perQuery = append(perQuery, total)
		if due {
			due = false
			cf, _ := st.spanned(reqID, spanFit, 0, opt.Retrain)
			st.fit = append(st.fit, cf)
		}
	}
	return perQuery, nil
}

// setSelectMetrics reports the layers a selection passes through: times
// from the timing pass st, allocations from the allocation pass al.
func (st *stages) setSelectMetrics(rep *report, al *stages) {
	rep.set("sqlparser.parse_p50_us", st.parse.p50us(), len(st.parse))
	rep.set("sqlparser.allocs_per_parse", al.parse.allocsPerCall(), 0)
	rep.set("engine.analyze_p50_us", st.analyze.p50us(), len(st.analyze))
	rep.set("planner.plan_arm_p50_us", median(st.planArm)*1e6, len(st.planArm))
	rep.set("planner.plan_49arms_p50_ms", st.planArms.p50ms(), len(st.planArms))
	rep.set("planner.plan_49arms_p99_ms", st.planArms.p99ms(), len(st.planArms))
	rep.set("planner.candidates_per_query", ratio(st.cands, float64(len(st.planArms))), 0)
	rep.set("planner.allocs_per_query", al.planArms.allocsPerCall(), 0)
	rep.set("core.select_hit_p50_us", st.selHit.p50us(), len(st.selHit))
	rep.set("core.select_hit_allocs", al.selHit.allocsPerCall(), 0)
	rep.set("core.select_miss_p50_ms", st.selMiss.p50ms(), len(st.selMiss))
	rep.set("core.select_miss_p99_ms", st.selMiss.p99ms(), len(st.selMiss))
	rep.set("core.select_miss_allocs", al.selMiss.allocsPerCall(), 0)
	rep.set("core.select_miss_kb", al.selMiss.kbPerCall(), 0)
	rep.set("core.select_self_p50_us", median(st.selfMiss)*1e6, len(st.selfMiss))
	rep.set("core.featurize_p50_us", st.featurize.p50us(), len(st.featurize))
	rep.set("core.unique_plan_share", ratio(float64(st.distinct), float64(st.arms)), 0)
	rep.set("nn.predict_p50_us_per_query", st.predict.p50us(), len(st.predict))
	rep.set("nn.predict_us_per_tree", ratio(sum(st.predict.secs())*1e6, float64(st.trees)), 0)
	rep.set("nn.predict_allocs_per_query", al.predict.allocsPerCall(), 0)
}

// setLearnMetrics reports the layers only a learning workload enters.
func (st *stages) setLearnMetrics(rep *report, al *stages) {
	rep.set("executor.exec_p50_ms", st.exec.p50ms(), len(st.exec))
	rep.set("executor.exec_p99_ms", st.exec.p99ms(), len(st.exec))
	rep.set("executor.wall_ms_per_sim_s", ratio(sum(st.exec.secs())*1e3, st.simSecs), 0)
	rep.set("executor.allocs_per_query", al.exec.allocsPerCall(), 0)
	rep.set("core.observe_p50_us", st.observe.p50us(), len(st.observe))
	rep.set("core.observe_allocs", al.observe.allocsPerCall(), 0)
	rep.set("core.sim_s_total", st.simSecs, len(st.exec))
	rep.set("nn.retrain_p50_ms", st.fit.p50ms(), len(st.fit))
	rep.set("explog.append_p50_us", st.appendLog.p50us(), len(st.appendLog))
	rep.set("explog.append_p99_us", percentile(st.appendLog.secs(), 99)*1e6, len(st.appendLog))
	rep.set("explog.allocs_per_append", al.appendLog.allocsPerCall(), 0)
}
