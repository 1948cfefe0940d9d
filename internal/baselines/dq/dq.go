// Package dq reproduces the DQ learned optimizer (Krishnan et al., 2018)
// as the second Figure 14 comparison point: deep Q-learning over join
// ordering with a hand-crafted fixed-length featurization and a fully
// connected network. The paper attributes DQ's slower convergence (versus
// Neo) to the FCNN's poor inductive bias for plan trees; that plays out
// here because the flat featurization cannot express subtree structure.
package dq

import (
	"fmt"
	"math"
	"math/rand"

	"bao/internal/baselines"
	"bao/internal/engine"
	"bao/internal/nn"
	"bao/internal/planner"
)

// MaxRelations bounds the fixed-length state encoding.
const MaxRelations = 12

// featDim: joined-set flags + left flags + right flags + op one-hot(3) +
// log-cardinalities of both sides.
const featDim = 3*MaxRelations + 3 + 2

// Config controls DQ's training loop.
type Config struct {
	baselines.Schedule
	Train   nn.TrainConfig
	Seed    int64
	Epsilon float64 // exploration rate while acting
}

// DefaultConfig returns laptop-scale DQ parameters.
func DefaultConfig() Config {
	t := nn.DefaultTrainConfig()
	t.MaxEpochs = 25
	t.Patience = 5
	return Config{Schedule: baselines.Schedule{WindowSize: 2000, RetrainEvery: 50, BootstrapQueries: 50},
		Train: t, Seed: 33, Epsilon: 0.1}
}

type transition struct {
	feat []float64
	cost float64 // Monte Carlo return: the episode's final latency
}

// DQ is the Q-learning join-order optimizer: the shared learning loop
// over a window of (state, action) transitions, with an ε-greedy episode
// over an MLP as its policy.
type DQ struct {
	*baselines.Loop[transition]
	Cfg Config
	Net *nn.MLP

	rng *rand.Rand
}

// New constructs DQ over an engine.
func New(eng *engine.Engine, cfg Config) *DQ {
	d := &DQ{
		Cfg: cfg,
		Net: nn.NewMLP([]int{featDim, 64, 64, 1}, cfg.Seed),
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	d.Loop = baselines.NewLoop[transition](eng, cfg.Schedule, d)
	return d
}

// Plan is DQ's policy: one ε-greedy episode, whose transitions await the
// plan's latency.
func (d *DQ) Plan(q *planner.Query) (*planner.Node, []transition, error) {
	if len(q.Scans) > MaxRelations {
		return nil, nil, fmt.Errorf("dq: query exceeds %d relations", MaxRelations)
	}
	return d.buildPlan(q)
}

// Record labels the episode's transitions with the query's log latency.
func (d *DQ) Record(_ *planner.Node, episode []transition, secs float64) []transition {
	y := math.Log1p(secs * 1000)
	if episode == nil {
		// A native plan (or a one-relation query) has no per-action
		// features, but still counts toward the retrain floor so training
		// begins.
		return []transition{{feat: make([]float64, featDim), cost: y}}
	}
	for i := range episode {
		episode[i].cost = y
	}
	return episode
}

// Fit trains the Q-network on the window.
func (d *DQ) Fit(window []transition) {
	xs := make([][]float64, len(window))
	ys := make([]float64, len(window))
	for i, t := range window {
		xs[i] = t.feat
		ys[i] = t.cost
	}
	d.Net.FitScalar(xs, ys, d.Cfg.Train)
}

// encode builds the hand-crafted featurization of (state, action).
func encode(joined uint32, li, ri int, op int, lRows, rRows float64) []float64 {
	f := make([]float64, featDim)
	for i := 0; i < MaxRelations; i++ {
		if joined&(1<<i) != 0 {
			f[i] = 1
		}
	}
	f[MaxRelations+li] = 1
	f[2*MaxRelations+ri] = 1
	f[3*MaxRelations+op] = 1
	f[3*MaxRelations+3] = math.Log1p(lRows) / math.Log(1e8)
	f[3*MaxRelations+4] = math.Log1p(rRows) / math.Log(1e8)
	return f
}

// buildPlan greedily applies the argmin-Q action per step (ε-greedy for
// exploration), returning the plan and the featurized episode.
func (d *DQ) buildPlan(q *planner.Query) (*planner.Node, []transition, error) {
	space, err := d.Eng.Opt.NewSpace(q)
	if err != nil {
		return nil, nil, err
	}
	k := space.NumRelations()
	subs := make([]*planner.Node, k)
	masks := make([]uint32, k)
	rels := make([]int, k) // representative relation per subplan for flags
	for i := 0; i < k; i++ {
		s, err := space.Scan(i, planner.AllOn())
		if err != nil {
			return nil, nil, err
		}
		subs[i], masks[i], rels[i] = s, 1<<uint(i), i
	}
	var joined uint32
	var episode []transition
	ops := []planner.Op{planner.OpHashJoin, planner.OpMergeJoin, planner.OpNestLoop}
	for len(subs) > 1 {
		type action struct {
			i, j, op int
			node     *planner.Node
			feat     []float64
		}
		var acts []action
		for i := range subs {
			for j := range subs {
				if i == j || !space.Connected(masks[i], masks[j]) {
					continue
				}
				for oi, op := range ops {
					jn := space.Join(op, subs[i], subs[j], masks[i], masks[j])
					if jn == nil {
						continue
					}
					acts = append(acts, action{i: i, j: j, op: oi, node: jn,
						feat: encode(joined, rels[i], rels[j], oi, subs[i].EstRows, subs[j].EstRows)})
				}
			}
		}
		if len(acts) == 0 {
			return nil, nil, fmt.Errorf("dq: no joinable pair")
		}
		var pick action
		if d.rng.Float64() < d.Cfg.Epsilon {
			pick = acts[d.rng.Intn(len(acts))]
		} else {
			best := 0
			bestQ := math.Inf(1)
			for ai, a := range acts {
				qv := d.Net.Forward(a.feat)[0]
				if qv < bestQ {
					bestQ = qv
					best = ai
				}
			}
			pick = acts[best]
		}
		episode = append(episode, transition{feat: pick.feat})
		var ns []*planner.Node
		var nm []uint32
		var nr []int
		for x := range subs {
			if x != pick.i && x != pick.j {
				ns = append(ns, subs[x])
				nm = append(nm, masks[x])
				nr = append(nr, rels[x])
			}
		}
		ns = append(ns, pick.node)
		nm = append(nm, masks[pick.i]|masks[pick.j])
		nr = append(nr, rels[pick.i])
		joined |= masks[pick.i] | masks[pick.j]
		subs, masks, rels = ns, nm, nr
	}
	plan, err := space.Finish(subs[0])
	return plan, episode, err
}
