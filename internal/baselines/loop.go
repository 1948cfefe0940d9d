package baselines

import (
	"bao/internal/cloud"
	"bao/internal/core"
	"bao/internal/engine"
	"bao/internal/model"
	"bao/internal/nn"
	"bao/internal/planner"
)

// Schedule is the learning schedule the comparison optimizers share.
type Schedule struct {
	// WindowSize caps the experience window; the oldest entries drop
	// first.
	WindowSize int
	// RetrainEvery is how many queries pass between fits.
	RetrainEvery int
	// BootstrapQueries: how many initial queries run the native
	// optimizer's plans while experience accumulates (Neo's "expert
	// demonstration" phase). The learned policy also waits for the first
	// fit.
	BootstrapQueries int
}

// minRetrainWindow is the fewest window entries a fit runs on; a due
// retrain below it waits for more experience.
const minRetrainWindow = 16

// A Learner is what one comparison optimizer adds to the Loop: its
// policy and its fit over window entries of type T.
type Learner[T any] interface {
	// Plan builds q's plan with the learned policy. The entries it
	// returns (nil for none) come back to Record once the plan has run.
	Plan(q *planner.Query) (*planner.Node, []T, error)
	// Record returns the window entries one executed query adds: plan is
	// what ran, decided is what Plan returned (nil for a native plan),
	// and secs is the plan's simulated latency.
	Record(plan *planner.Node, decided []T, secs float64) []T
	// Fit trains on the window, oldest entry first.
	Fit(window []T)
}

// Loop is the learning loop every comparison optimizer runs: analyze,
// plan (natively while bootstrapping, with the learner's policy after),
// execute, record the outcome into a capped window, and refit on
// schedule.
type Loop[T any] struct {
	Eng *engine.Engine

	sched   Schedule
	learner Learner[T]
	window  []T
	seen    int // queries run
	since   int // queries since the last fit
	trains  int
}

// NewLoop builds a loop that runs learner's policy over eng.
func NewLoop[T any](eng *engine.Engine, sched Schedule, learner Learner[T]) *Loop[T] {
	return &Loop[T]{Eng: eng, sched: sched, learner: learner}
}

// Run executes one query under the current policy and learns from it.
func (l *Loop[T]) Run(sql string) (*engine.Result, error) {
	q, err := l.Eng.AnalyzeSQL(sql)
	if err != nil {
		return nil, err
	}
	var plan *planner.Node
	var decided []T
	if l.trains == 0 || l.seen < l.sched.BootstrapQueries {
		plan, _, err = l.Eng.Plan(q, planner.AllOn())
	} else {
		plan, decided, err = l.learner.Plan(q)
	}
	if err != nil {
		return nil, err
	}
	res, err := l.Eng.Execute(plan)
	if err != nil {
		return nil, err
	}
	l.seen++
	l.since++
	l.window = append(l.window, l.learner.Record(plan, decided, cloud.ExecSeconds(res.Counters))...)
	if over := len(l.window) - l.sched.WindowSize; over > 0 {
		l.window = l.window[over:]
	}
	if l.since >= l.sched.RetrainEvery && len(l.window) >= minRetrainWindow {
		l.since = 0
		l.learner.Fit(l.window)
		l.trains++
	}
	return res, nil
}

// Trains returns how many fits the loop has run.
func (l *Loop[T]) Trains() int { return l.trains }

// TreeExp is one executed plan in a tree window: its featurized tree and
// its simulated latency.
type TreeExp struct {
	Tree *nn.Tree
	Secs float64
}

// TreeModel is the value network Neo and the learned-cost planner share:
// a TCNN over featurized plan trees, fitted on the executed plans of the
// window labelled with their latency. It supplies a Learner's Record and
// Fit; each optimizer adds its own Plan.
type TreeModel struct {
	Model *model.TCNNModel
	Feat  core.Featurizer
}

// NewTreeModel builds an untrained tree value network.
func NewTreeModel(train nn.TrainConfig, seed int64) TreeModel {
	return TreeModel{Model: model.NewTCNN(core.FeatureDim, train, seed)}
}

// Record returns the executed plan as one window entry.
func (m *TreeModel) Record(plan *planner.Node, _ []TreeExp, secs float64) []TreeExp {
	return []TreeExp{{Tree: m.Feat.Vectorize(plan), Secs: secs}}
}

// Fit trains the network on the window.
func (m *TreeModel) Fit(window []TreeExp) {
	trees := make([]*nn.Tree, len(window))
	secs := make([]float64, len(window))
	for i, e := range window {
		trees[i] = e.Tree
		secs[i] = e.Secs
	}
	m.Model.Fit(trees, secs)
}

// Score predicts a (sub)plan's latency.
func (m *TreeModel) Score(n *planner.Node) float64 {
	return m.Model.Predict([]*nn.Tree{m.Feat.Vectorize(n)})[0]
}
