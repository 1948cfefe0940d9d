package nn

import (
	"math/rand"
	"testing"
)

// trainFixture builds a reproducible training set and network.
func trainFixture(n int) (*TCNN, []*Tree, []float64) {
	rng := rand.New(rand.NewSource(12))
	cfg := TCNNConfig{InDim: 3, Channels: [3]int{4, 4, 4}, Hidden: 4, Seed: 9}
	m := NewTCNN(cfg)
	var trees []*Tree
	var ys []float64
	for i := 0; i < n; i++ {
		trees = append(trees, randomTree(rng, 3))
		ys = append(ys, rng.NormFloat64())
	}
	return m, trees, ys
}

// Property: training is bit-identical at every worker count. Per-example
// gradients land in batch-position slots and are reduced in batch order,
// so the floating-point arithmetic never depends on goroutine scheduling.
func TestTrainParallelBitIdentical(t *testing.T) {
	run := func(workers int) ([][]float64, TrainResult) {
		m, trees, ys := trainFixture(20)
		tc := DefaultTrainConfig()
		tc.MaxEpochs = 5
		tc.Workers = workers
		res := m.Train(trees, ys, tc)
		return m.Snapshot(), res
	}
	w1, r1 := run(1)
	for _, workers := range []int{2, 4} {
		wn, rn := run(workers)
		if r1.Epochs != rn.Epochs || r1.FinalLoss != rn.FinalLoss {
			t.Fatalf("workers=%d: result (%d epochs, loss %g) != workers=1 (%d epochs, loss %g)",
				workers, rn.Epochs, rn.FinalLoss, r1.Epochs, r1.FinalLoss)
		}
		for pi := range w1 {
			for k := range w1[pi] {
				if w1[pi][k] != wn[pi][k] {
					t.Fatalf("workers=%d: weight [%d][%d] = %g, workers=1 has %g",
						workers, pi, k, wn[pi][k], w1[pi][k])
				}
			}
		}
	}
}

// SharedReplica must alias the master's weights (updates propagate) while
// keeping gradients private.
func TestSharedReplicaAliasesWeights(t *testing.T) {
	m, trees, _ := trainFixture(1)
	r := m.SharedReplica()
	if got, want := r.Forward(trees[0]), m.Forward(trees[0]); got != want {
		t.Fatalf("replica forward %g != master %g", got, want)
	}
	mp, rp := m.Params(), r.Params()
	mp[0].W[0] += 0.5
	if rp[0].W[0] != mp[0].W[0] {
		t.Fatal("replica does not alias master weights")
	}
	r.Backward(1)
	for i, p := range mp {
		for k, g := range p.G {
			if g != 0 {
				t.Fatalf("replica backward leaked into master gradient %d[%d]", i, k)
			}
		}
	}
	_ = rp
}

// Degenerate training configs must terminate and still report bookkeeping:
// MaxEpochs<=0 trains nothing but stamps wall time, and BatchSize<=0 is
// clamped to 1 instead of looping forever.
func TestTrainDegenerateConfigs(t *testing.T) {
	m, trees, ys := trainFixture(4)
	tc := DefaultTrainConfig()
	tc.MaxEpochs = 0
	res := m.Train(trees, ys, tc)
	if res.Epochs != 0 || res.FinalLoss != 0 {
		t.Fatalf("zero-epoch train reported %+v", res)
	}
	if res.WallSeconds < 0 {
		t.Fatalf("zero-epoch train has negative wall time %g", res.WallSeconds)
	}

	tc = DefaultTrainConfig()
	tc.MaxEpochs = 2
	tc.BatchSize = 0 // would previously loop forever
	res = m.Train(trees, ys, tc)
	if res.Epochs == 0 {
		t.Fatalf("zero-batch-size train did not run: %+v", res)
	}

	mlp := NewMLP([]int{2, 4, 1}, 3)
	mres := mlp.FitScalar([][]float64{{1, 2}}, []float64{1}, TrainConfig{MaxEpochs: 2, LR: 0.01, BatchSize: 0, Patience: 5})
	if mres.Epochs == 0 || mres.WallSeconds < 0 {
		t.Fatalf("FitScalar bookkeeping wrong: %+v", mres)
	}
	mres = mlp.FitScalar(nil, nil, DefaultTrainConfig())
	if mres.Epochs != 0 {
		t.Fatalf("empty FitScalar trained: %+v", mres)
	}
}
