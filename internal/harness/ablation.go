package harness

import (
	"fmt"

	"bao/internal/baselines/learnedcost"
	"bao/internal/cloud"
	"bao/internal/core"
	"bao/internal/engine"
)

// Ablation runs the design-choice ablations DESIGN.md calls out beyond the
// paper's own figures:
//
//  1. cache-aware vs cache-oblivious featurization (§3.1.1 argues the cache
//     features let Bao pick plans compatible with what is already hot);
//  2. the §7 future-work variant: the learned model as the cost function
//     inside the traditional dynamic-programming optimizer.
func (s *Session) Ablation() error {
	header(s.Opts.Out, "Ablation: cache features and learned-cost-model DP (IMDb)")
	inst, err := s.Instance("IMDb")
	if err != nil {
		return err
	}
	var rows [][]string

	nat, err := s.Run("IMDb", cloud.N1_16, engine.GradePostgreSQL, SysNative)
	if err != nil {
		return err
	}
	rows = append(rows, []string{"native optimizer", fmtSecs(nat.TotalSeconds())})

	cached, err := s.Run("IMDb", cloud.N1_16, engine.GradePostgreSQL, SysBao)
	if err != nil {
		return err
	}
	rows = append(rows, []string{"Bao (cache-aware)", fmtSecs(cached.TotalSeconds())})

	// Cache-oblivious Bao.
	cfg := RunConfig{Workload: inst, VM: cloud.N1_16, Grade: engine.GradePostgreSQL, System: SysBao}
	cfg.BaoCfg = s.BaoConfig()
	cfg.BaoCfg.CacheAware = false
	oblivious, err := RunWorkload(cfg)
	if err != nil {
		return err
	}
	rows = append(rows, []string{"Bao (cache-oblivious)", fmtSecs(oblivious.TotalSeconds())})

	// Learned-cost-model DP (§7 future work).
	eng := engine.New(engine.GradePostgreSQL, cloud.PagesForVM(cloud.N1_16))
	if err := inst.Setup(eng); err != nil {
		return err
	}
	lc := learnedcost.New(eng, learnedcost.DefaultConfig())
	total := 0.0
	events := eventReplay(eng, inst)
	for i, q := range inst.Queries {
		if err := events(i); err != nil {
			return err
		}
		res, err := lc.Run(q.SQL)
		if err != nil {
			return err
		}
		total += cloud.ExecSeconds(res.Counters) + cloud.PlanSeconds(res.PlanCandidates) + 2e-3
	}
	rows = append(rows, []string{"learned-cost DP (§7)", fmtSecs(total)})

	table(s.Opts.Out, []string{"Variant", "WorkloadTime"}, rows)
	fmt.Fprintf(s.Opts.Out, "(Bao variants use %d arms; learned-cost DP plans one model-scored plan per query)\n",
		len(core.DefaultArms()))
	return nil
}
