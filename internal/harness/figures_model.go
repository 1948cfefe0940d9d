package harness

import (
	"fmt"
	"math"

	"bao/internal/baselines/dq"
	"bao/internal/baselines/neo"
	"bao/internal/cloud"
	"bao/internal/core"
	"bao/internal/engine"
	"bao/internal/model"
)

// Figure13 reproduces Figure 13: workload makespan under t concurrent
// queries, with the data on disk (small buffer pool) versus fully in
// memory. Concurrency is modeled from the recorded per-query demands: disk
// time serializes on the device while CPU time divides across min(t,
// cores); Bao's arm-planning CPU is added to its demand. The in-memory
// case is where Bao's optimization CPU can no longer hide behind I/O.
func (s *Session) Figure13() error {
	header(s.Opts.Out, "Figure 13: concurrent queries t=1,2,4 on disk vs in memory (IMDb, N1-4)")
	vm := cloud.N1_4
	makespan := func(r *RunResult, t int, inMemory, isBao bool) float64 {
		cpu, io, opt := 0.0, 0.0, 0.0
		for _, q := range r.Records {
			qc := cloud.CPUSeconds(q.Counters)
			qi := q.ExecSecs - qc
			if inMemory {
				qi = 0
				// In memory every page access is a hit; charge hit time as CPU.
				qc += float64(q.Counters.PageHits+q.Counters.PageMisses) * 1e-6
			}
			cpu += qc
			io += qi
			if isBao {
				// Total planning CPU (all arms), not the parallel makespan:
				// under concurrency all cores are busy, so planning work
				// competes with execution work.
				opt += q.OptSecs * math.Min(float64(vm.Cores), 49) // rough total work
			} else {
				opt += q.OptSecs
			}
		}
		workers := math.Min(float64(t), float64(vm.Cores))
		return math.Max(io, (cpu+opt)/workers)
	}
	var rows [][]string
	for _, inMem := range []bool{false, true} {
		var nat, bao *RunResult
		var err error
		if inMem {
			// In-memory run: give the engine a pool holding everything.
			nat, err = s.memRun(SysNative)
			if err != nil {
				return err
			}
			bao, err = s.memRun(SysBao)
			if err != nil {
				return err
			}
		} else {
			if nat, err = s.Run("IMDb", vm, engine.GradePostgreSQL, SysNative); err != nil {
				return err
			}
			if bao, err = s.Run("IMDb", vm, engine.GradePostgreSQL, SysBao); err != nil {
				return err
			}
		}
		where := "disk"
		if inMem {
			where = "memory"
		}
		for _, t := range []int{1, 2, 4} {
			rows = append(rows, []string{where, fmt.Sprintf("t=%d", t),
				fmtSecs(makespan(nat, t, inMem, false)),
				fmtSecs(makespan(bao, t, inMem, true))})
		}
	}
	table(s.Opts.Out, []string{"Data", "Concurrency", "Native", "Bao"}, rows)
	fmt.Fprintln(s.Opts.Out, "(in memory at t=4 the CPU saturates and Bao's planning overhead shows — §6.2)")
	return nil
}

// memRun executes IMDb with an effectively unbounded buffer pool.
func (s *Session) memRun(sys System) (*RunResult, error) {
	key := fmt.Sprintf("IMDb|mem|%d", sys)
	if r, ok := s.runs[key]; ok {
		return r, nil
	}
	inst, err := s.Instance("IMDb")
	if err != nil {
		return nil, err
	}
	cfg := RunConfig{Workload: inst, VM: cloud.VMType{Name: "N1-4-mem", Cores: 4, RAMGB: 1 << 14, PricePerHour: 0.19}, Grade: engine.GradePostgreSQL, System: sys}
	if sys == SysBao {
		cfg.BaoCfg = s.BaoConfig()
	}
	r, err := RunWorkload(cfg)
	if err != nil {
		return nil, err
	}
	s.runs[key] = r
	return r, nil
}

// Figure14 reproduces Figure 14: Bao vs Neo vs DQ vs the native optimizer
// on a stable and on a dynamic IMDb workload, reported as cumulative
// simulated time at fractions of the stream (the paper's
// queries-finished-over-time curves, transposed).
func (s *Session) Figure14() error {
	header(s.Opts.Out, "Figure 14: Bao vs Neo vs DQ vs native optimizer")
	for _, mode := range []string{"stable", "dynamic"} {
		wl := "IMDb-stable"
		if mode == "dynamic" {
			wl = "IMDb"
		}
		inst, err := s.Instance(wl)
		if err != nil {
			return err
		}
		type curve struct {
			name string
			secs []float64 // per-query
		}
		var curves []curve

		nat, err := s.Run(wl, cloud.N1_16, engine.GradePostgreSQL, SysNative)
		if err != nil {
			return err
		}
		curves = append(curves, curve{"PostgreSQL", perQueryTotal(nat)})
		bao, err := s.Run(wl, cloud.N1_16, engine.GradePostgreSQL, SysBao)
		if err != nil {
			return err
		}
		curves = append(curves, curve{"Bao", perQueryTotal(bao)})

		// Neo and DQ runs.
		for _, sys := range []string{"Neo", "DQ"} {
			eng := engine.New(engine.GradePostgreSQL, cloud.PagesForVM(cloud.N1_16))
			if err := inst.Setup(eng); err != nil {
				return err
			}
			var runq func(sql string) (float64, error)
			switch sys {
			case "Neo":
				n := neo.New(eng, neo.DefaultConfig())
				runq = func(sql string) (float64, error) {
					res, err := n.Run(sql)
					if err != nil {
						return 0, err
					}
					return cloud.ExecSeconds(res.Counters) + 0.004, nil
				}
			default:
				d := dq.New(eng, dq.DefaultConfig())
				runq = func(sql string) (float64, error) {
					res, err := d.Run(sql)
					if err != nil {
						return 0, err
					}
					return cloud.ExecSeconds(res.Counters) + 0.002, nil
				}
			}
			var secs []float64
			events := eventReplay(eng, inst)
			for i, q := range inst.Queries {
				if err := events(i); err != nil {
					return err
				}
				t, err := runq(q.SQL)
				if err != nil {
					return err
				}
				secs = append(secs, t)
			}
			curves = append(curves, curve{sys, secs})
		}

		var rows [][]string
		fractions := []float64{0.25, 0.5, 0.75, 1.0}
		for _, c := range curves {
			row := []string{mode, c.name}
			cum := 0.0
			fi := 0
			for i, v := range c.secs {
				cum += v
				for fi < len(fractions) && float64(i+1) >= fractions[fi]*float64(len(c.secs)) {
					row = append(row, fmtSecs(cum))
					fi++
				}
			}
			rows = append(rows, row)
		}
		table(s.Opts.Out, []string{"Workload", "System", "t@25%", "t@50%", "t@75%", "t@100%"}, rows)
		fmt.Fprintln(s.Opts.Out)
	}
	fmt.Fprintln(s.Opts.Out, "(lower cumulative time = more queries finished sooner; Neo/DQ pay for their larger action spaces, especially under the dynamic workload)")
	return nil
}

func perQueryTotal(r *RunResult) []float64 {
	out := make([]float64, len(r.Records))
	for i, q := range r.Records {
		out[i] = q.OptSecs + q.ExecSecs
	}
	return out
}

// Figure15a reproduces Figure 15a: replacing Bao's TCNN with a random
// forest or linear regression, and comparing with the best single hint set.
func (s *Session) Figure15a() error {
	header(s.Opts.Out, "Figure 15a: value-model ablation (IMDb)")
	inst, err := s.Instance("IMDb")
	if err != nil {
		return err
	}
	run := func(name string, newModel func(seed int64) model.Model) (float64, error) {
		cfg := RunConfig{Workload: inst, VM: cloud.N1_16, Grade: engine.GradePostgreSQL, System: SysBao}
		cfg.BaoCfg = s.BaoConfig()
		cfg.BaoCfg.NewModel = newModel
		r, err := RunWorkload(cfg)
		if err != nil {
			return 0, err
		}
		return r.TotalSeconds(), nil
	}
	var rows [][]string
	nat, err := s.Run("IMDb", cloud.N1_16, engine.GradePostgreSQL, SysNative)
	if err != nil {
		return err
	}
	rows = append(rows, []string{"PostgreSQL optimizer", fmtSecs(nat.TotalSeconds())})
	tc, err := s.Run("IMDb", cloud.N1_16, engine.GradePostgreSQL, SysBao)
	if err != nil {
		return err
	}
	rows = append(rows, []string{"Bao (TCNN)", fmtSecs(tc.TotalSeconds())})
	rf, err := run("RF", func(seed int64) model.Model { return model.NewForest(seed) })
	if err != nil {
		return err
	}
	rows = append(rows, []string{"Bao (random forest)", fmtSecs(rf)})
	lin, err := run("Linear", func(int64) model.Model { return model.NewLinear() })
	if err != nil {
		return err
	}
	rows = append(rows, []string{"Bao (linear)", fmtSecs(lin)})
	best, err := s.bestStaticHintSetTotal()
	if err != nil {
		return err
	}
	rows = append(rows, []string{"Best single hint set", fmtSecs(best)})
	table(s.Opts.Out, []string{"Approach", "WorkloadTime"}, rows)
	return nil
}

// bestStaticHintSetTotal runs the workload under every TopArms hint set as
// a static policy and returns the best total (the "Best hint set" line).
func (s *Session) bestStaticHintSetTotal() (float64, error) {
	inst, err := s.Instance("IMDb")
	if err != nil {
		return 0, err
	}
	best := math.Inf(1)
	for _, arm := range core.TopArms(6)[1:] {
		eng := engine.New(engine.GradePostgreSQL, cloud.PagesForVM(cloud.N1_16))
		if err := inst.Setup(eng); err != nil {
			return 0, err
		}
		eng.SessionHints = arm.Hints
		total := 0.0
		events := eventReplay(eng, inst)
		for i, q := range inst.Queries {
			if err := events(i); err != nil {
				return 0, err
			}
			res, err := eng.Query(q.SQL)
			if err != nil {
				return 0, err
			}
			total += cloud.PlanSeconds(res.PlanCandidates) + cloud.ExecSeconds(res.Counters)
		}
		if total < best {
			best = total
		}
	}
	return best, nil
}

// Figure15b reproduces Figure 15b: the median Q-error of Bao's value model
// over the stream (prediction vs observation for the chosen plan;
// Q-error = max(p,a)/min(p,a) − 1, so 0 is perfect).
func (s *Session) Figure15b() error {
	header(s.Opts.Out, "Figure 15b: value model Q-error over the workload (IMDb)")
	r, err := s.Run("IMDb", cloud.N1_16, engine.GradePostgreSQL, SysBao)
	if err != nil {
		return err
	}
	var rows [][]string
	win := len(r.Records) / 8
	if win < 10 {
		win = 10
	}
	for start := 0; start+win <= len(r.Records); start += win {
		var qerrs []float64
		for _, q := range r.Records[start : start+win] {
			if !q.UsedModel || q.PredSecs <= 0 || q.ExecSecs <= 0 {
				continue
			}
			p, a := q.PredSecs, q.ExecSecs
			qerrs = append(qerrs, math.Max(p, a)/math.Min(p, a)-1)
		}
		med := percentile(qerrs, 50)
		peak := percentile(qerrs, 100)
		if len(qerrs) == 0 {
			rows = append(rows, []string{fmt.Sprintf("%d-%d", start, start+win), "(untrained)", ""})
			continue
		}
		rows = append(rows, []string{fmt.Sprintf("%d-%d", start, start+win),
			fmt.Sprintf("%.2f", med), fmt.Sprintf("%.2f", peak)})
	}
	table(s.Opts.Out, []string{"Queries", "MedianQErr", "PeakQErr"}, rows)
	return nil
}

// Figure15c reproduces Figure 15c: training time versus the sliding-window
// size k — both measured on this machine and under the simulated
// detachable-GPU model.
func (s *Session) Figure15c() error {
	header(s.Opts.Out, "Figure 15c: training time vs window size")
	eng, err := s.imdbEngine(cloud.N1_16)
	if err != nil {
		return err
	}
	inst, err := s.Instance("IMDb")
	if err != nil {
		return err
	}
	windows := []int{250, 500, 1000, 2000, 5000}
	if s.Opts.Queries <= 150 {
		// Benchmark scale: keep the sweep proportionate.
		windows = []int{100, 200, 400}
	}
	var rows [][]string
	for _, k := range windows {
		cfg := s.BaoConfig()
		cfg.WindowSize = k
		cfg.RetrainEvery = 1 << 30 // manual retrain only
		b := core.New(eng, cfg)
		// Fill the window by replaying stream queries (cheaply: execute
		// each query once, reusing earlier executions' experiences).
		for i := 0; b.ExperienceSize() < k && i < 4*k; i++ {
			q := inst.Queries[i%len(inst.Queries)]
			if _, _, err := b.Run(q.SQL); err != nil {
				return err
			}
		}
		b.Retrain()
		ev := b.LastTrain()
		rows = append(rows, []string{fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", ev.Samples), fmt.Sprintf("%d", ev.Epochs),
			fmtSecs(ev.WallSeconds), fmtSecs(ev.SimGPUSeconds)})
	}
	table(s.Opts.Out, []string{"Window k", "Samples", "Epochs", "CPUWallTime", "SimGPUTime"}, rows)
	return nil
}

// Figure16 reproduces Figure 16: per-iteration regret distributions when
// Bao is trained for CPU time versus physical I/O, with the native
// optimizer's median regret as the baseline.
func (s *Session) Figure16() error {
	header(s.Opts.Out, "Figure 16: regret by training iteration, CPU-time- and I/O-trained Bao (IMDb, cold cache)")
	inst, err := s.Instance("IMDb")
	if err != nil {
		return err
	}
	iters := 6
	per := 40
	if need := iters * per; need > len(inst.Queries) {
		per = len(inst.Queries) / iters
	}
	for _, metric := range []core.Metric{core.MetricCPU, core.MetricIO} {
		eng := engine.New(engine.GradePostgreSQL, cloud.PagesForVM(cloud.N1_16))
		if err := inst.Setup(eng); err != nil {
			return err
		}
		cfg := s.BaoConfig()
		cfg.Metric = metric
		cfg.RetrainEvery = per
		b := core.New(eng, cfg)
		var rows [][]string
		qi := 0
		for it := 0; it < iters; it++ {
			var regrets, pgRegrets []float64
			for n := 0; n < per && qi < len(inst.Queries); n, qi = n+1, qi+1 {
				sql := inst.Queries[qi].SQL
				sel, err := b.Select(sql)
				if err != nil {
					return err
				}
				t, err := measureArms(eng, b.Cfg.Arms, sql)
				if err != nil {
					return err
				}
				chosen := metric.Value(t.counters[sel.ArmID])
				opt := metric.Value(t.counters[t.best(metric)])
				regrets = append(regrets, chosen-opt)
				pgRegrets = append(pgRegrets, metric.Value(t.counters[0])-opt)
				// Feed the chosen arm's cold measurement from the table.
				b.ObserveValue(sel, chosen)
			}
			rows = append(rows, []string{metric.String(), fmt.Sprintf("%d", it+1),
				fmt.Sprintf("%.4f", percentile(regrets, 50)),
				fmt.Sprintf("%.4f", percentile(regrets, 98)),
				fmt.Sprintf("%.4f", percentile(pgRegrets, 50)),
				fmt.Sprintf("%.4f", percentile(pgRegrets, 98)),
			})
		}
		table(s.Opts.Out, []string{"Metric", "Iter", "BaoMedRegret", "BaoP98", "PGMedRegret", "PGP98"}, rows)
		fmt.Fprintln(s.Opts.Out)
	}
	fmt.Fprintln(s.Opts.Out, "(regret units: seconds for cpu, scaled physical reads for io)")
	return nil
}
