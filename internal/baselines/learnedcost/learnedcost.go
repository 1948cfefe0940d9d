// Package learnedcost implements the future-work direction from §7 of the
// paper: using Bao's predictive model as the *cost model inside* a
// traditional optimizer. Instead of selecting among 49 whole-plan hint
// sets (Bao) or searching plans greedily (Neo), it runs the classic
// Selinger dynamic program but scores every candidate subplan with the
// tree convolutional value network, falling back to the analytic cost
// model until the network has trained.
//
// The harness's ablation experiment compares it against Bao and the native
// optimizer: it can reach plans outside Bao's restricted action space, but
// like Neo it loses the safety of the analytic model wherever the network
// extrapolates.
package learnedcost

import (
	"math/bits"

	"bao/internal/baselines"
	"bao/internal/engine"
	"bao/internal/nn"
	"bao/internal/planner"
)

// Config controls the learned-cost planner's training loop.
type Config struct {
	baselines.Schedule
	Train nn.TrainConfig
	Seed  int64
}

// DefaultConfig returns laptop-scale parameters.
func DefaultConfig() Config {
	t := nn.DefaultTrainConfig()
	t.MaxEpochs = 25
	t.Patience = 8
	return Config{Schedule: baselines.Schedule{WindowSize: 500, RetrainEvery: 50, BootstrapQueries: 50},
		Train: t, Seed: 37}
}

// Planner is the learned-cost-model optimizer: the shared learning loop
// over a tree value network, with the model-scored dynamic program as
// its policy.
type Planner struct {
	*baselines.Loop[baselines.TreeExp]
	baselines.TreeModel
	Cfg Config
}

// New constructs the planner over an engine.
func New(eng *engine.Engine, cfg Config) *Planner {
	p := &Planner{TreeModel: baselines.NewTreeModel(cfg.Train, cfg.Seed), Cfg: cfg}
	p.Loop = baselines.NewLoop[baselines.TreeExp](eng, cfg.Schedule, p)
	return p
}

// Plan is the planner's policy: the model-scored dynamic program.
func (p *Planner) Plan(q *planner.Query) (*planner.Node, []baselines.TreeExp, error) {
	plan, err := p.dpPlan(q)
	return plan, nil, err
}

// dpPlan runs the Selinger dynamic program with the learned model as the
// cost function: best[mask] minimizes the network's latency prediction for
// the subtree rather than the analytic cost.
func (p *Planner) dpPlan(q *planner.Query) (*planner.Node, error) {
	space, err := p.Eng.Opt.NewSpace(q)
	if err != nil {
		return nil, err
	}
	k := space.NumRelations()
	best := make([]*planner.Node, 1<<k)
	scores := make([]float64, 1<<k)
	for i := 0; i < k; i++ {
		s, err := space.Scan(i, planner.AllOn())
		if err != nil {
			return nil, err
		}
		best[1<<i] = s
		scores[1<<i] = p.Score(s)
	}
	ops := []planner.Op{planner.OpHashJoin, planner.OpMergeJoin, planner.OpNestLoop}
	full := uint32(1<<k) - 1
	for mask := uint32(1); mask <= full; mask++ {
		if bits.OnesCount32(mask) < 2 {
			continue
		}
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			other := mask ^ sub
			l, r := best[sub], best[other]
			if l == nil || r == nil || !space.Connected(sub, other) {
				continue
			}
			for _, op := range ops {
				jn := space.Join(op, l, r, sub, other)
				if jn == nil {
					continue
				}
				sc := p.Score(jn)
				if best[mask] == nil || sc < scores[mask] {
					best[mask] = jn
					scores[mask] = sc
				}
			}
		}
	}
	if best[full] == nil {
		// Disconnected under the model's choices; fall back to the native plan.
		n, _, err := p.Eng.Plan(q, planner.AllOn())
		return n, err
	}
	return space.Finish(best[full])
}
