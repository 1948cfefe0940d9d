package nn

import (
	"math"
	"math/rand"
	"time"
)

// TCNNConfig describes the shape of a tree convolutional network. The
// paper's model (Figure 5) is three tree convolution layers (256, 128, 64
// channels) followed by dynamic pooling and two fully connected layers
// (64→32→1) with ReLU activations and layer normalization. Channel widths
// are configurable because this reproduction runs on laptop-scale CPUs;
// DefaultTCNNConfig uses a scaled-down 64/32/16 stack with the same depth
// and topology.
type TCNNConfig struct {
	InDim    int    // node feature dimension
	Channels [3]int // tree convolution output channels
	Hidden   int    // width of the first fully connected layer
	Seed     int64  // weight initialization seed
}

// DefaultTCNNConfig returns the laptop-scale architecture used throughout
// the reproduction (the input feature space is narrow, so modest channel
// widths retain the paper architecture's capacity at tractable CPU cost).
func DefaultTCNNConfig(inDim int) TCNNConfig {
	return TCNNConfig{InDim: inDim, Channels: [3]int{32, 16, 8}, Hidden: 16, Seed: 42}
}

// PaperTCNNConfig returns the full-size architecture from Figure 5 of the
// paper (256/128/64 channel tree convolutions, 64→32→1 head).
func PaperTCNNConfig(inDim int) TCNNConfig {
	return TCNNConfig{InDim: inDim, Channels: [3]int{256, 128, 64}, Hidden: 32, Seed: 42}
}

// TCNN is Bao's value network: a plan-tree-to-scalar regressor built from
// three tree convolution layers with layer norm and ReLU, dynamic pooling,
// and a two-layer fully connected head.
type TCNN struct {
	Cfg  TCNNConfig
	conv [3]*TreeConv
	norm [3]*TreeLayerNorm
	act  [3]*TreeReLU
	pool *DynamicPool
	fc1  *Linear
	relu *ReLU
	fc2  *Linear
}

// NewTCNN builds a network from the configuration.
func NewTCNN(cfg TCNNConfig) *TCNN {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &TCNN{Cfg: cfg, pool: &DynamicPool{}, relu: &ReLU{}}
	in := cfg.InDim
	for i := 0; i < 3; i++ {
		m.conv[i] = NewTreeConv("conv"+string(rune('1'+i)), in, cfg.Channels[i], rng)
		m.norm[i] = NewTreeLayerNorm("norm"+string(rune('1'+i)), cfg.Channels[i])
		m.act[i] = &TreeReLU{}
		in = cfg.Channels[i]
	}
	// Nobody reads the gradient of the plan features, and the upper
	// convolutions sit on ReLU outputs.
	m.conv[0].inGrad = inGradNone
	m.conv[1].inGrad = inGradNonZero
	m.conv[2].inGrad = inGradNonZero
	m.fc1 = NewLinear("fc1", cfg.Channels[2], cfg.Hidden, rng)
	m.fc2 = NewLinear("fc2", cfg.Hidden, 1, rng)
	return m
}

// Forward runs a plan tree through the network and returns the scalar
// performance prediction. Within a block, each node's row goes through
// convolution, layer norm and ReLU before the next node's is started; the
// ReLU's non-zero list is the next block's input. Everything is written
// into the layers' scratch, so a pass allocates nothing.
func (m *TCNN) Forward(t *Tree) float64 {
	x := &m.conv[0].nz
	x.fill(t.Feat, t.N, t.D)
	for k := 0; k < 3; k++ {
		conv, norm, act := m.conv[k], m.norm[k], m.act[k]
		conv.begin(t, x)
		norm.begin(t.N)
		act.begin(t.N, norm.D)
		for i := 0; i < t.N; i++ {
			act.node(i, norm.node(i, conv.node(i)))
		}
		x = &act.nz
	}
	v := m.pool.forward(m.act[2].outBuf, t.N, m.Cfg.Channels[2])
	v = m.fc1.Forward(v)
	v = m.relu.Forward(v)
	return m.fc2.Forward(v)[0]
}

// Backward backpropagates a scalar loss gradient through the network,
// accumulating parameter gradients. It must follow a Forward on the same
// input.
func (m *TCNN) Backward(dLoss float64) {
	g := m.fc2.Backward([]float64{dLoss})
	g = m.relu.Backward(g)
	g = m.fc1.Backward(g)
	tg := m.act[2].Backward(m.pool.Backward(g, m.Cfg.Channels[2]))
	for i := 2; i >= 0; i-- {
		// Below the top block, act[i]'s backward is already done: conv[i+1]
		// left the gradient zero wherever act[i] rectified (inGradNonZero).
		tg = m.conv[i].Backward(m.norm[i].Backward(tg))
	}
}

// Params returns every trainable parameter in the network.
func (m *TCNN) Params() []*Param {
	var ps []*Param
	for i := 0; i < 3; i++ {
		ps = append(ps, m.conv[i].Params()...)
		ps = append(ps, m.norm[i].Params()...)
	}
	ps = append(ps, m.fc1.Params()...)
	ps = append(ps, m.fc2.Params()...)
	return ps
}

// Snapshot captures all weights so a trained model can be restored later
// (Bao swaps newly trained weights in atomically between queries).
func (m *TCNN) Snapshot() [][]float64 {
	ps := m.Params()
	s := make([][]float64, len(ps))
	for i, p := range ps {
		s[i] = p.Clone()
	}
	return s
}

// Restore loads weights captured by Snapshot.
func (m *TCNN) Restore(s [][]float64) {
	ps := m.Params()
	for i, p := range ps {
		p.Restore(s[i])
	}
}

// TrainConfig controls a supervised training run. The defaults mirror the
// paper: Adam with batch size 16, at most 100 epochs, stopping early when
// training loss improves by less than 1% over 10 epochs.
type TrainConfig struct {
	LR         float64
	BatchSize  int
	MaxEpochs  int
	Patience   int     // epochs without sufficient improvement before stopping
	MinImprove float64 // relative improvement threshold (0.01 = 1%)
	Seed       int64   // shuffling seed
	// Workers is the number of goroutines mini-batches are split across
	// (data parallelism over batch examples). Zero or negative means one
	// per CPU. Training output is bit-identical for every worker count:
	// each example's gradient is computed in isolation and the reduction
	// runs in batch order, never in worker-completion order.
	Workers int
}

// DefaultTrainConfig returns the paper's training hyperparameters.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{LR: 1e-3, BatchSize: 16, MaxEpochs: 100, Patience: 10, MinImprove: 0.01, Seed: 1}
}

// TrainResult summarizes a completed training run.
type TrainResult struct {
	Epochs      int
	FinalLoss   float64
	WallSeconds float64 // measured training wall time on this machine
}

// Train fits the network to (tree, target) pairs with mean squared error.
// Targets should already be in the scale the caller wants to regress (Bao
// trains on log-latency). Returns the epochs used and final epoch loss.
//
// Mini-batches are split across cfg.Workers goroutines (data parallelism):
// each worker runs a model replica sharing the master weights, writes each
// example's gradient into a per-batch-position buffer, and the buffers are
// reduced into the master gradient in batch order before the Adam step.
// The reduction order never depends on the worker count or scheduling, so
// a given Seed yields bit-identical weights at any parallelism.
func (m *TCNN) Train(trees []*Tree, targets []float64, cfg TrainConfig) TrainResult {
	if len(trees) != len(targets) {
		panic("nn: trees and targets length mismatch")
	}
	trainStart := time.Now()
	if len(trees) == 0 || cfg.MaxEpochs <= 0 {
		// Zero-work paths still report wall time so callers' cost
		// accounting (LastTrain, bao_retrain_wall_seconds_total) never
		// books a retrain at zero seconds.
		return TrainResult{WallSeconds: time.Since(trainStart).Seconds()}
	}
	opt := NewAdam(cfg.LR)
	params := m.Params()
	for _, p := range params {
		p.ZeroGrad() // a stray Backward without a Step must not leak in
	}
	batch := cfg.BatchSize
	if batch < 1 {
		batch = 1 // a zero batch size would loop forever
	}
	workers := Workers(cfg.Workers)
	if workers > len(trees) {
		workers = len(trees)
	}
	maxSlot := batch
	if maxSlot > len(trees) {
		maxSlot = len(trees)
	}
	pool := newTrainPool(m, workers, maxSlot)
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(len(trees))
	best := math.Inf(1)
	stale := 0
	epochs, finalLoss := 0, 0.0
	for epoch := 0; epoch < cfg.MaxEpochs; epoch++ {
		// Reshuffle each epoch for SGD.
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss := 0.0
		for b := 0; b < len(order); b += batch {
			end := b + batch
			if end > len(order) {
				end = len(order)
			}
			// d(MSE)/d(pred) averaged over the batch.
			epochLoss += pool.runBatch(trees, targets, order[b:end], 2/float64(end-b))
			opt.Step(params)
		}
		epochLoss /= float64(len(order))
		epochs, finalLoss = epoch+1, epochLoss
		if epochLoss < best*(1-cfg.MinImprove) {
			best = epochLoss
			stale = 0
		} else {
			stale++
			if stale >= cfg.Patience {
				break
			}
		}
	}
	return TrainResult{Epochs: epochs, FinalLoss: finalLoss,
		WallSeconds: time.Since(trainStart).Seconds()}
}
