// Package neo reproduces the Neo learned optimizer (Marcus et al., VLDB
// '19) as the Figure 14 comparison point: unlike Bao, Neo constructs whole
// query plans itself — join order, join operators, and access paths — using
// a tree convolutional value network and best-first search. It bootstraps
// from the native optimizer's plans, then learns from its own executions.
//
// The consequence the paper measures is mechanical here too: Neo's action
// space is exponentially larger than Bao's 49 arms, so it needs far more
// experience to stop producing catastrophic plans, and a workload shift
// invalidates much more of what it has learned.
package neo

import (
	"fmt"

	"bao/internal/baselines"
	"bao/internal/engine"
	"bao/internal/nn"
	"bao/internal/planner"
)

// Config controls Neo's training loop.
type Config struct {
	baselines.Schedule
	Train nn.TrainConfig
	Seed  int64
	// SearchWidth caps how many states best-first search expands per query.
	SearchWidth int
}

// DefaultConfig returns laptop-scale Neo parameters.
func DefaultConfig() Config {
	t := nn.DefaultTrainConfig()
	t.MaxEpochs = 20
	t.Patience = 5
	return Config{Schedule: baselines.Schedule{WindowSize: 500, RetrainEvery: 50, BootstrapQueries: 50},
		Train: t, Seed: 31, SearchWidth: 64}
}

// Neo is the learned optimizer: the shared learning loop over a tree
// value network, with best-first plan search as its policy.
type Neo struct {
	*baselines.Loop[baselines.TreeExp]
	baselines.TreeModel
	Cfg Config
}

// New constructs Neo over an engine.
func New(eng *engine.Engine, cfg Config) *Neo {
	n := &Neo{TreeModel: baselines.NewTreeModel(cfg.Train, cfg.Seed), Cfg: cfg}
	n.Loop = baselines.NewLoop[baselines.TreeExp](eng, cfg.Schedule, n)
	return n
}

// Plan is Neo's policy: value-network-guided plan search.
func (n *Neo) Plan(q *planner.Query) (*planner.Node, []baselines.TreeExp, error) {
	plan, err := n.search(q)
	return plan, nil, err
}

// state is a forest of subplans during search.
type state struct {
	subs  []*planner.Node
	masks []uint32
	score float64
}

// search builds a complete plan greedily guided by the value network:
// starting from per-relation scans, it repeatedly applies the join action
// whose resulting partial plan the network scores best, evaluating up to
// SearchWidth candidate actions per step (a beam-1 variant of Neo's
// best-first search, which keeps planning latency bounded).
func (n *Neo) search(q *planner.Query) (*planner.Node, error) {
	space, err := n.Eng.Opt.NewSpace(q)
	if err != nil {
		return nil, err
	}
	k := space.NumRelations()
	cur := state{}
	for i := 0; i < k; i++ {
		// Neo also chooses access paths; we use the cheapest scan per
		// relation as its leaf policy (its paper's leaf heuristic).
		s, err := space.Scan(i, planner.AllOn())
		if err != nil {
			return nil, err
		}
		cur.subs = append(cur.subs, s)
		cur.masks = append(cur.masks, 1<<uint(i))
	}
	ops := []planner.Op{planner.OpHashJoin, planner.OpMergeJoin, planner.OpNestLoop}
	for len(cur.subs) > 1 {
		type action struct {
			i, j int
			node *planner.Node
		}
		var best *action
		bestScore := 0.0
		evaluated := 0
		for i := 0; i < len(cur.subs) && evaluated < n.Cfg.SearchWidth; i++ {
			for j := 0; j < len(cur.subs) && evaluated < n.Cfg.SearchWidth; j++ {
				if i == j || !space.Connected(cur.masks[i], cur.masks[j]) {
					continue
				}
				for _, op := range ops {
					jn := space.Join(op, cur.subs[i], cur.subs[j], cur.masks[i], cur.masks[j])
					if jn == nil {
						continue
					}
					evaluated++
					score := n.Score(jn)
					if best == nil || score < bestScore {
						best = &action{i: i, j: j, node: jn}
						bestScore = score
					}
				}
			}
		}
		if best == nil {
			return nil, fmt.Errorf("neo: no joinable pair found")
		}
		var subs []*planner.Node
		var masks []uint32
		for x := range cur.subs {
			if x != best.i && x != best.j {
				subs = append(subs, cur.subs[x])
				masks = append(masks, cur.masks[x])
			}
		}
		subs = append(subs, best.node)
		masks = append(masks, cur.masks[best.i]|cur.masks[best.j])
		cur = state{subs: subs, masks: masks}
	}
	return space.Finish(cur.subs[0])
}
