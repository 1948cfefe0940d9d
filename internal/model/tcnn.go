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
// Predict is safe for concurrent callers: each call forwards on a
// weight-sharing replica checked out of a pool, so every in-flight call
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

// LastFit returns the training summary (epochs, final loss, wall time) of
// the most recent Fit. The observability layer reads it to export the
// bao_train_loss gauge.
func (m *TCNNModel) LastFit() nn.TrainResult { return m.lastFit }

// Predict implements Model. Every tree is forwarded on the calling
// goroutine through one weight-sharing replica checked out of a pool and
// returned afterwards. Weights are read-only during inference and each
// replica owns its layer scratch, so any number of Predict calls may run
// concurrently against the same trained model — one replica per
// concurrent caller — and each gets exactly the master network's
// predictions.
func (m *TCNNModel) Predict(trees []*nn.Tree) []float64 {
	out := make([]float64, len(trees))
	if !m.fit {
		return out
	}
	owner, net := m.checkout()
	defer m.release(owner, net)
	for i, t := range trees {
		out[i] = m.postprocess(net.Forward(t))
	}
	return out
}

// checkout takes an idle replica from the pool, building a fresh one when
// the pool is empty. The returned owner is the master network the replica
// aliases; release uses it to discard a replica of a since-replaced
// network.
func (m *TCNNModel) checkout() (owner, net *nn.TCNN) {
	m.repMu.Lock()
	owner = m.net
	if n := len(m.replicas); n > 0 {
		net = m.replicas[n-1]
		m.replicas = m.replicas[:n-1]
	}
	m.repMu.Unlock()
	if net == nil {
		net = owner.SharedReplica()
	}
	return owner, net
}

// release returns a replica to the pool, dropping it when the master
// network changed while it was out (its weights alias the old one).
func (m *TCNNModel) release(owner, net *nn.TCNN) {
	m.repMu.Lock()
	if m.net == owner {
		m.replicas = append(m.replicas, net)
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
