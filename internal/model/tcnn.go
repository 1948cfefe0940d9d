package model

import (
	"math"
	"sort"
	"sync"

	"bao/internal/nn"
)

func log1p(x float64) float64 { return math.Log1p(x) }
func expm1(x float64) float64 { return math.Expm1(x) }

// TCNNModel is Bao's value model: the tree convolutional network of
// Figure 5, trained with Adam on log-space targets.
//
// Predict is safe for concurrent callers: forward passes run on
// weight-sharing replicas checked out of a pool, so each in-flight call
// owns private per-layer scratch state. Fit and Load are NOT safe to run
// concurrently with Predict — callers that retrain while serving (the Bao
// server) fit a detached model instance and swap it in whole.
type TCNNModel struct {
	net        *nn.TCNN
	cfg        nn.TCNNConfig
	train      nn.TrainConfig
	mean       float64
	std        float64
	yMin, yMax float64 // observed target range, in log space
	fit        bool
	lastFit    nn.TrainResult
	workers    int // inference fan-out; 0 = one per CPU

	repMu    sync.Mutex // guards replicas (the idle-replica pool)
	replicas []*nn.TCNN // idle weight-sharing inference replicas of net
}

// NewTCNN builds an untrained TCNN model for the given input feature
// dimension. Each Fit reinitializes the network (Thompson sampling trains a
// fresh network per bootstrap).
func NewTCNN(inDim int, train nn.TrainConfig, seed int64) *TCNNModel {
	cfg := nn.DefaultTCNNConfig(inDim)
	cfg.Seed = seed
	return &TCNNModel{cfg: cfg, train: train}
}

// Name implements Model.
func (m *TCNNModel) Name() string { return "TCNN" }

// Fit implements Model: reinitializes and trains the network.
func (m *TCNNModel) Fit(trees []*nn.Tree, secs []float64) int {
	if len(trees) == 0 {
		m.fit = false
		return 0
	}
	ys := make([]float64, len(secs))
	var sum, sq float64
	m.yMax = math.Inf(-1)
	for i, s := range secs {
		ys[i] = logTransform(s)
		sum += ys[i]
		if ys[i] > m.yMax {
			m.yMax = ys[i]
		}
	}
	// The prediction floor is the 25th percentile of observed targets, not
	// the minimum: an unexplored plan then looks "decent" rather than
	// "best possible", so the bandit explores where its known arms are
	// slow (tail queries, where exploration pays) and exploits where they
	// are already fast.
	sorted := append([]float64(nil), ys...)
	sort.Float64s(sorted)
	m.yMin = sorted[len(sorted)/4]
	m.mean = sum / float64(len(ys))
	for _, y := range ys {
		sq += (y - m.mean) * (y - m.mean)
	}
	m.std = math.Sqrt(sq/float64(len(ys))) + 1e-6
	for i := range ys {
		ys[i] = (ys[i] - m.mean) / m.std
	}
	m.cfg.Seed++ // fresh initialization per bootstrap
	m.repMu.Lock()
	m.net = nn.NewTCNN(m.cfg)
	m.replicas = nil // replicas alias the old network's weights
	m.repMu.Unlock()
	res := m.net.Train(trees, ys, m.train)
	m.fit = true
	m.lastFit = res
	return res.Epochs
}

// SetWorkers caps the goroutines Predict fans trees across (and, when the
// training config leaves Workers unset, the training data parallelism).
// Zero or negative means one worker per CPU; results are identical at any
// worker count.
func (m *TCNNModel) SetWorkers(n int) {
	m.workers = n
	if m.train.Workers == 0 {
		m.train.Workers = n
	}
}

// LastFit returns the training summary (epochs, final loss, wall time) of
// the most recent Fit. The observability layer reads it to export the
// bao_train_loss gauge.
func (m *TCNNModel) LastFit() nn.TrainResult { return m.lastFit }

// parallelPredictMin is the tree count below which Predict stays on the
// sequential path: with only a handful of trees the goroutine fan-out
// costs more than the forward passes it would overlap.
const parallelPredictMin = 8

// Predict implements Model. Trees are split across weight-sharing
// network replicas checked out of a pool (and returned afterwards):
// replica k forwards trees k, k+w, k+2w, …, so every output index is
// computed by exactly one worker from read-only weights and the result is
// identical to the sequential loop at any worker count. The split is
// fixed rather than claimed from a shared cursor so that each replica
// sees the same trees on every call: its scratch, sized by the largest
// tree it has forwarded, then stops growing once warm, whatever the
// scheduler does. Because each call forwards only on checked-out replicas
// — never on the master network directly — any number of Predict calls
// may run concurrently against the same trained model.
func (m *TCNNModel) Predict(trees []*nn.Tree) []float64 {
	out := make([]float64, len(trees))
	if !m.fit {
		return out
	}
	w := nn.Workers(m.workers)
	if w > len(trees) {
		w = len(trees)
	}
	if len(trees) < parallelPredictMin {
		w = 1
	}
	owner, nets := m.checkout(w)
	defer m.release(owner, nets)
	if w <= 1 {
		for i, t := range trees {
			out[i] = m.postprocess(nets[0].Forward(t))
		}
		return out
	}
	run := func(k int) {
		for i := k; i < len(trees); i += w {
			out[i] = m.postprocess(nets[k].Forward(trees[i]))
		}
	}
	var wg sync.WaitGroup
	for k := 1; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(k)
		}()
	}
	run(0)
	wg.Wait()
	return out
}

// checkout takes n idle replicas from the pool, building fresh ones when
// the pool runs dry. The returned owner is the master network the replicas
// alias; release uses it to discard replicas of a since-replaced network.
func (m *TCNNModel) checkout(n int) (owner *nn.TCNN, nets []*nn.TCNN) {
	m.repMu.Lock()
	owner = m.net
	take := len(m.replicas)
	if take > n {
		take = n
	}
	nets = make([]*nn.TCNN, 0, n)
	nets = append(nets, m.replicas[len(m.replicas)-take:]...)
	m.replicas = m.replicas[:len(m.replicas)-take]
	m.repMu.Unlock()
	for len(nets) < n {
		nets = append(nets, owner.SharedReplica())
	}
	return owner, nets
}

// release returns replicas to the pool, dropping them when the master
// network changed while they were out (their weights alias the old one).
func (m *TCNNModel) release(owner *nn.TCNN, nets []*nn.TCNN) {
	m.repMu.Lock()
	if m.net == owner {
		m.replicas = append(m.replicas, nets...)
	}
	m.repMu.Unlock()
}

// postprocess maps a raw normalized network output back to seconds.
func (m *TCNNModel) postprocess(raw float64) float64 {
	y := raw*m.std + m.mean
	// Clamp to the observed target range: the model has no basis for
	// predicting performance outside what it has seen, and an argmin
	// over arms would otherwise chase wild extrapolations.
	if y < m.yMin {
		y = m.yMin
	}
	if y > m.yMax {
		y = m.yMax
	}
	return invTransform(y)
}

// Trained reports whether the model has been fit at least once.
func (m *TCNNModel) Trained() bool { return m.fit }
