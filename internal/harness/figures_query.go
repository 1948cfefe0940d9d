package harness

import (
	"fmt"
	"sort"

	"bao/internal/cloud"
	"bao/internal/core"
	"bao/internal/engine"
	"bao/internal/planner"
	"bao/internal/workload"
)

// evalArms plans a query under every arm and executes each *unique* plan
// (arms frequently collapse to the same plan), returning per-arm metric
// values and plans. With cold=true the buffer pool is cleared before each
// execution so arms compare fairly.
func evalArms(eng *engine.Engine, arms []core.Arm, sql string, cold bool, metric core.Metric) ([]float64, []*planner.Node, error) {
	q, err := eng.AnalyzeSQL(sql)
	if err != nil {
		return nil, nil, err
	}
	secs := make([]float64, len(arms))
	plans := make([]*planner.Node, len(arms))
	cache := make(map[string]float64)
	for i, arm := range arms {
		n, _, err := eng.Plan(q, arm.Hints)
		if err != nil {
			return nil, nil, err
		}
		plans[i] = n
		sig := n.Explain()
		if v, ok := cache[sig]; ok {
			secs[i] = v
			continue
		}
		if cold {
			eng.Pool.Clear()
		}
		res, err := eng.Execute(n)
		if err != nil {
			return nil, nil, err
		}
		secs[i] = metric.Value(res.Counters)
		cache[sig] = secs[i]
	}
	return secs, plans, nil
}

// imdbEngine builds a fresh PostgreSQL-grade engine with IMDb loaded.
func (s *Session) imdbEngine(vm cloud.VMType) (*engine.Engine, error) {
	inst, err := s.Instance("IMDb")
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.GradePostgreSQL, cloud.PagesForVM(vm))
	if err := inst.Setup(eng); err != nil {
		return nil, err
	}
	return eng, nil
}

// Figure1 reproduces Figure 1: disabling loop joins fixes JOB query 16b
// and wrecks 24b.
func (s *Session) Figure1() error {
	header(s.Opts.Out, "Figure 1: effect of disabling loop joins (JOB 16b vs 24b analogs)")
	eng, err := s.imdbEngine(cloud.N1_16)
	if err != nil {
		return err
	}
	job := workload.IMDbJOB(s.Opts.wcfg())
	noNL := planner.AllOn()
	noNL.NestLoop = false
	var rows [][]string
	for _, q := range job[:2] {
		var def, hinted float64
		for _, h := range []struct {
			hints planner.Hints
			out   *float64
		}{{planner.AllOn(), &def}, {noNL, &hinted}} {
			n, err := eng.PlanSQL(q.SQL, h.hints)
			if err != nil {
				return err
			}
			eng.Pool.Clear()
			res, err := eng.Execute(n)
			if err != nil {
				return err
			}
			*h.out = cloud.ExecSeconds(res.Counters)
		}
		rows = append(rows, []string{q.Template, fmtSecs(def), fmtSecs(hinted),
			fmt.Sprintf("%.1fx", def/hinted)})
	}
	table(s.Opts.Out, []string{"Query", "Default", "NoLoopJoin", "Default/NoLoop"}, rows)
	fmt.Fprintln(s.Opts.Out, "(>1x: disabling loop join helps; <1x: it hurts)")
	return nil
}

// Figure11 reproduces Figure 11: per-JOB-query latency delta of Bao's
// selected plan (trained on the IMDb stream, frozen) and of the optimal
// hint set, versus the native optimizer's plan.
func (s *Session) Figure11() error {
	header(s.Opts.Out, "Figure 11: JOB query regressions/improvements (Bao frozen after training)")
	inst, err := s.Instance("IMDb")
	if err != nil {
		return err
	}
	eng := engine.New(engine.GradePostgreSQL, cloud.PagesForVM(cloud.N1_16))
	if err := inst.Setup(eng); err != nil {
		return err
	}
	bao := core.New(eng, s.BaoConfig())
	for _, q := range inst.Queries {
		if _, _, err := bao.Run(q.SQL); err != nil {
			return err
		}
	}
	if !bao.Trained() {
		return fmt.Errorf("harness: figure11: Bao never trained (stream too short)")
	}
	job := workload.IMDbJOB(s.Opts.wcfg())
	var deltaBao, deltaOpt []float64
	regressions, improvedBig := 0, 0
	var worst, best float64
	for _, q := range job {
		sel, err := bao.Select(q.SQL) // model frozen: no Observe
		if err != nil {
			return err
		}
		secs, _, err := evalArms(eng, bao.Cfg.Arms, q.SQL, true, core.MetricLatency)
		if err != nil {
			return err
		}
		opt := secs[0]
		for _, v := range secs {
			if v < opt {
				opt = v
			}
		}
		db := secs[sel.ArmID] - secs[0]
		do := opt - secs[0]
		deltaBao = append(deltaBao, db)
		deltaOpt = append(deltaOpt, do)
		if db > 0.001 {
			regressions++
			if db > worst {
				worst = db
			}
		}
		if db < -0.01 {
			improvedBig++
		}
		if db < best {
			best = db
		}
	}
	var rows [][]string
	rows = append(rows,
		[]string{"queries evaluated", fmt.Sprintf("%d", len(job))},
		[]string{"regressions (>1ms)", fmt.Sprintf("%d", regressions)},
		[]string{"worst regression", fmtSecs(worst)},
		[]string{"improved by >10ms", fmt.Sprintf("%d", improvedBig)},
		[]string{"best improvement", fmtSecs(-best)},
		[]string{"total Δ Bao", fmtSecs(sum(deltaBao))},
		[]string{"total Δ optimal hint set", fmtSecs(sum(deltaOpt))},
	)
	table(s.Opts.Out, []string{"Metric", "Value"}, rows)
	return nil
}

// Figure12 reproduces Figure 12: the optimization-vs-execution trade-off
// when arms are planned sequentially, varying the arm count (1 arm = the
// native optimizer).
func (s *Session) Figure12() error {
	header(s.Opts.Out, "Figure 12: sequential planning: arms vs optimization/execution time (IMDb, N1-4)")
	inst, err := s.Instance("IMDb")
	if err != nil {
		return err
	}
	var rows [][]string
	for _, nArms := range []int{1, 2, 3, 4, 5, 6} {
		eng := engine.New(engine.GradePostgreSQL, cloud.PagesForVM(cloud.N1_4))
		if err := inst.Setup(eng); err != nil {
			return err
		}
		cfg := s.BaoConfig()
		cfg.Arms = core.TopArms(nArms)
		bao := core.New(eng, cfg)
		optT, execT := 0.0, 0.0
		events := eventReplay(eng, inst)
		for i, q := range inst.Queries {
			if err := events(i); err != nil {
				return err
			}
			sel, err := bao.Select(q.SQL)
			if err != nil {
				return err
			}
			// Sequential planning: arms one after another on one core.
			for _, c := range sel.Candidates {
				optT += cloud.PlanSeconds(c)
			}
			if nArms > 1 {
				optT += 1.5e-3 // inference
			}
			res, err := eng.Execute(sel.Plans[sel.ArmID])
			if err != nil {
				return err
			}
			bao.Observe(sel, res.Counters)
			execT += cloud.ExecSeconds(res.Counters)
		}
		rows = append(rows, []string{fmt.Sprintf("%d", nArms),
			fmtSecs(optT), fmtSecs(execT), fmtSecs(optT + execT)})
	}
	table(s.Opts.Out, []string{"Arms", "OptTime", "ExecTime", "Total"}, rows)
	return nil
}

// HintAnalysis reproduces the §6.3 analysis: the single best hint set, the
// top-5 hint sets' share of improvement, and how often hint sets change
// operators, access paths, and join orders.
func (s *Session) HintAnalysis() error {
	header(s.Opts.Out, "§6.3: which hints matter (IMDb sample)")
	eng, err := s.imdbEngine(cloud.N1_16)
	if err != nil {
		return err
	}
	inst, err := s.Instance("IMDb")
	if err != nil {
		return err
	}
	arms := core.DefaultArms()
	nq := len(inst.Queries)
	if nq > 120 {
		nq = 120
	}
	perArm := make([]float64, len(arms))
	attributed := make([]float64, len(arms))
	totalImprove := 0.0
	opChanged, pathChanged, orderChanged := 0, 0, 0
	for _, q := range inst.Queries[:nq] {
		secs, plans, err := evalArms(eng, arms, q.SQL, true, core.MetricLatency)
		if err != nil {
			return err
		}
		bestArm := 0
		for a, v := range secs {
			perArm[a] += v
			if v < secs[bestArm] {
				bestArm = a
			}
		}
		improve := secs[0] - secs[bestArm]
		totalImprove += improve
		attributed[bestArm] += improve
		// Plan-change frequencies: the per-query best arm vs the default.
		if bestArm != 0 {
			if opSet(plans[bestArm]) != opSet(plans[0]) {
				opChanged++
			}
			if scanSet(plans[bestArm]) != scanSet(plans[0]) {
				pathChanged++
			}
			if plans[bestArm].JoinOrderSignature() != plans[0].JoinOrderSignature() {
				orderChanged++
			}
		}
	}
	// Single best static hint set.
	bestStatic := 0
	for a, v := range perArm {
		if v < perArm[bestStatic] {
			bestStatic = a
		}
	}
	var rows [][]string
	rows = append(rows,
		[]string{"queries sampled", fmt.Sprintf("%d", nq)},
		[]string{"native optimizer total", fmtSecs(perArm[0])},
		[]string{"best single hint set", fmt.Sprintf("%s (%s)", arms[bestStatic].Name, fmtSecs(perArm[bestStatic]))},
		[]string{"per-query optimal total", fmtSecs(perArm[0] - totalImprove)},
	)
	table(s.Opts.Out, []string{"Metric", "Value"}, rows)

	// Top-5 hint sets by improvement share.
	type armShare struct {
		arm   int
		share float64
	}
	var shares []armShare
	for a, v := range attributed {
		if v > 0 {
			shares = append(shares, armShare{a, v / totalImprove})
		}
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].share > shares[j].share })
	var srows [][]string
	top5 := 0.0
	for i, sh := range shares {
		if i >= 5 {
			break
		}
		top5 += sh.share
		srows = append(srows, []string{arms[sh.arm].Name, fmt.Sprintf("%.0f%%", sh.share*100)})
	}
	fmt.Fprintln(s.Opts.Out)
	table(s.Opts.Out, []string{"HintSet(enabled ops)", "ImprovementShare"}, srows)
	fmt.Fprintf(s.Opts.Out, "top-5 hint sets account for %.0f%% of the improvement (paper: 93%%)\n", top5*100)

	fmt.Fprintln(s.Opts.Out)
	table(s.Opts.Out, []string{"ChangeKind", "Queries"}, [][]string{
		{"different operators", fmt.Sprintf("%d/%d", opChanged, nq)},
		{"different access paths", fmt.Sprintf("%d/%d", pathChanged, nq)},
		{"different join order", fmt.Sprintf("%d/%d", orderChanged, nq)},
	})
	return nil
}

// opSet fingerprints the multiset of join/scan operators in a plan.
func opSet(n *planner.Node) string {
	counts := make([]int, planner.NumOps)
	n.Walk(func(x *planner.Node) { counts[x.Op]++ })
	return fmt.Sprint(counts)
}

// scanSet fingerprints the access path chosen per alias.
func scanSet(n *planner.Node) string {
	m := make(map[string]string)
	n.Walk(func(x *planner.Node) {
		if x.IsScan() {
			m[x.Alias] = x.Op.String()
		}
	})
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += k + "=" + m[k] + ";"
	}
	return out
}

// OptTime reports the §6.2 optimization-time comparison: maximum
// per-query optimization time for the native optimizers and Bao.
func (s *Session) OptTime() error {
	header(s.Opts.Out, "§6.2: maximum query optimization time (IMDb)")
	var rows [][]string
	for _, cfg := range []struct {
		label string
		grade engine.Grade
		sys   System
	}{
		{"PostgreSQL", engine.GradePostgreSQL, SysNative},
		{"ComSys", engine.GradeComSys, SysNative},
		{"Bao (49 arms, parallel)", engine.GradePostgreSQL, SysBao},
	} {
		r, err := s.Run("IMDb", cloud.N1_16, cfg.grade, cfg.sys)
		if err != nil {
			return err
		}
		maxOpt, sumOpt := 0.0, 0.0
		for _, q := range r.Records {
			if q.OptSecs > maxOpt {
				maxOpt = q.OptSecs
			}
			sumOpt += q.OptSecs
		}
		rows = append(rows, []string{cfg.label, fmtSecs(maxOpt),
			fmtSecs(sumOpt / float64(len(r.Records)))})
	}
	table(s.Opts.Out, []string{"System", "MaxOptTime", "MeanOptTime"}, rows)
	return nil
}
