package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// diffConfigs are the network shapes the differential tests run: the
// serving shape over a plan-width input, and channel widths that are not
// multiples of the kernels' four-row blocking (down to one channel).
var diffConfigs = []TCNNConfig{
	{InDim: 14, Channels: [3]int{32, 16, 8}, Hidden: 16},
	{InDim: 14, Channels: [3]int{7, 5, 3}, Hidden: 3},
	{InDim: 3, Channels: [3]int{4, 4, 4}, Hidden: 4},
	{InDim: 5, Channels: [3]int{1, 2, 9}, Hidden: 1},
}

// diffPair builds a network and its dense reference over the same random
// finite weights: every parameter is redrawn (biases and layer-norm gains
// included, so they are not left at their 0/1 initial values), and a few
// weights are set to exactly +0 and -0.
func diffPair(cfg TCNNConfig, rng *rand.Rand) (*TCNN, *refTCNN) {
	m, ref := NewTCNN(cfg), newRefTCNN(cfg)
	mp, rp := m.Params(), ref.Params()
	for i, p := range mp {
		for k := range p.W {
			switch rng.Intn(12) {
			case 0:
				p.W[k] = 0
			case 1:
				p.W[k] = math.Copysign(0, -1)
			default:
				p.W[k] = rng.NormFloat64() * 0.7
			}
		}
		copy(rp[i].W, p.W)
	}
	return m, ref
}

// diffRow fills one node's feature row with one of the shapes a row can
// take: what a plan node looks like (a one-hot slot plus up to three
// floats), all zeros, zeros of both signs, or fully dense with negatives.
func diffRow(row []float64, rng *rand.Rand) {
	switch rng.Intn(5) {
	case 0: // all zero
	case 1:
		for j := range row {
			if rng.Intn(2) == 0 {
				row[j] = math.Copysign(0, -1)
			}
		}
		row[rng.Intn(len(row))] = rng.Float64()
	case 2:
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	default:
		row[rng.Intn(len(row))] = 1
		for k := rng.Intn(4); k > 0; k-- {
			row[rng.Intn(len(row))] = rng.Float64()
		}
	}
}

// diffTree builds a random tree of 1–40 nodes: every node after the first
// hangs off a random earlier node with a free side (so one-child nodes
// occur), and node numbers are then permuted, so a parent's index may be
// above or below its children's — the order Backward accumulates a node's
// input gradient in depends on it.
func diffTree(rng *rand.Rand, d int) *Tree {
	n := 1 + rng.Intn(40)
	id := rng.Perm(n)
	t := NewTree(n, d)
	for i := 1; i < n; i++ {
		for {
			p := id[rng.Intn(i)]
			side := &t.Left[p]
			if rng.Intn(2) == 0 {
				side = &t.Right[p]
			}
			if *side == -1 {
				*side = id[i]
				break
			}
		}
	}
	for i := 0; i < n; i++ {
		diffRow(t.Row(i), rng)
	}
	return t
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffParams fails unless every element of every parameter's field (W or
// G, picked by get) has the same bits in both networks.
func diffParams(t *testing.T, what string, got, want []*Param, get func(*Param) []float64) {
	t.Helper()
	for i, p := range got {
		g, w := get(p), get(want[i])
		for k := range g {
			if !sameBits(g[k], w[k]) {
				t.Fatalf("%s: %s[%d] = %x (%g), reference %x (%g)", what, p.Name, k,
					math.Float64bits(g[k]), g[k], math.Float64bits(w[k]), w[k])
			}
		}
	}
}

func paramW(p *Param) []float64 { return p.W }
func paramG(p *Param) []float64 { return p.G }

// TestKernelsDifferential holds the sparse, fused kernels to the dense
// reference bit for bit: the prediction, every parameter gradient, and
// the weights a short training run ends on.
func TestKernelsDifferential(t *testing.T) {
	for ci, cfg := range diffConfigs {
		cfg.Seed = int64(ci + 1)
		t.Run(fmt.Sprintf("%d-%d-%d-%d", cfg.InDim, cfg.Channels[0], cfg.Channels[1], cfg.Channels[2]), func(t *testing.T) {
			rng := rand.New(rand.NewSource(100 + int64(ci)))
			m, ref := diffPair(cfg, rng)
			var trees []*Tree
			var ys []float64
			for i := 0; i < 60; i++ {
				tr := diffTree(rng, cfg.InDim)
				trees = append(trees, tr)
				ys = append(ys, rng.NormFloat64())
				got, want := m.Forward(tr), ref.Forward(tr)
				if !sameBits(got, want) {
					t.Fatalf("tree %d (%d nodes): Forward = %x (%g), reference %x (%g)", i, tr.N,
						math.Float64bits(got), got, math.Float64bits(want), want)
				}
				// Gradients accumulate across trees, as they do across
				// the examples of a mini-batch.
				dLoss := rng.NormFloat64()
				m.Backward(dLoss)
				ref.Backward(dLoss)
				diffParams(t, fmt.Sprintf("tree %d gradient", i), m.Params(), ref.Params(), paramG)
			}
			tc := DefaultTrainConfig()
			tc.MaxEpochs = 3
			tc.LR = 0.01
			tc.Workers = 2
			got, want := m.Train(trees, ys, tc), ref.Train(trees, ys, tc)
			if got.Epochs != want.Epochs || !sameBits(got.FinalLoss, want.FinalLoss) {
				t.Fatalf("Train: %d epochs loss %g, reference %d epochs loss %g",
					got.Epochs, got.FinalLoss, want.Epochs, want.FinalLoss)
			}
			diffParams(t, "trained weight", m.Params(), ref.Params(), paramW)
		})
	}
}

// TestLayersDifferential runs each layer on its own — where TreeConv
// still owes its caller the gradient at every input element, zeros
// included — against its dense reference.
func TestLayersDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for round := 0; round < 40; round++ {
		in, out := 1+rng.Intn(15), 1+rng.Intn(10)
		seed := rng.Int63()
		conv := NewTreeConv("c", in, out, rand.New(rand.NewSource(seed)))
		rconv := newRefTreeConv("c", in, out, rand.New(rand.NewSource(seed)))
		lin := NewLinear("l", in, out, rand.New(rand.NewSource(seed)))
		rlin := newRefLinear("l", in, out, rand.New(rand.NewSource(seed)))
		tr := diffTree(rng, in)
		y, ry := conv.Forward(tr), rconv.Forward(tr)
		for k := range y.Feat {
			if !sameBits(y.Feat[k], ry.Feat[k]) {
				t.Fatalf("round %d: conv out[%d] = %g, reference %g", round, k, y.Feat[k], ry.Feat[k])
			}
		}
		g := make([]float64, tr.N*out)
		for k := range g {
			if rng.Intn(3) > 0 {
				g[k] = rng.NormFloat64()
			}
		}
		dIn, rdIn := conv.Backward(g), rconv.Backward(g)
		for k := range dIn {
			if !sameBits(dIn[k], rdIn[k]) {
				t.Fatalf("round %d: conv dIn[%d] = %g, reference %g", round, k, dIn[k], rdIn[k])
			}
		}
		diffParams(t, "conv gradient", conv.Params(), rconv.Params(), paramG)

		x := tr.Row(rng.Intn(tr.N))
		ly, rly := lin.Forward(x), rlin.Forward(x)
		for k := range ly {
			if !sameBits(ly[k], rly[k]) {
				t.Fatalf("round %d: linear out[%d] = %g, reference %g", round, k, ly[k], rly[k])
			}
		}
		ldIn, rldIn := lin.Backward(g[:out]), rlin.Backward(g[:out])
		for k := range ldIn {
			if !sameBits(ldIn[k], rldIn[k]) {
				t.Fatalf("round %d: linear dIn[%d] = %g, reference %g", round, k, ldIn[k], rldIn[k])
			}
		}
		diffParams(t, "linear gradient", lin.Params(), rlin.Params(), paramG)
	}
}

// fuzzTree decodes a tree from fuzzer bytes: shape[i] picks node i+1's
// parent among the nodes before it (taking the free side, or the next
// node with one), feats picks each feature from a small table of zeros of
// both signs, ones, fractions, negatives and large values.
func fuzzTree(shape, feats []byte, d int) *Tree {
	n := 1 + len(shape)
	if n > 40 {
		n = 40
	}
	t := NewTree(n, d)
	for i := 1; i < n; i++ {
		b := int(shape[i-1])
		for p := b % i; ; p = (p + 1) % i {
			if b&0x80 == 0 && t.Left[p] == -1 {
				t.Left[p] = i
				break
			}
			if t.Right[p] == -1 {
				t.Right[p] = i
				break
			}
			if t.Left[p] == -1 {
				t.Left[p] = i
				break
			}
		}
	}
	for k := range t.Feat {
		if len(feats) == 0 {
			break
		}
		b := feats[k%len(feats)]
		switch b & 7 {
		case 0, 1, 2:
			t.Feat[k] = 0
		case 3:
			t.Feat[k] = math.Copysign(0, -1)
		case 4:
			t.Feat[k] = 1
		case 5:
			t.Feat[k] = float64(b>>3) / 32
		case 6:
			t.Feat[k] = -float64(b>>3) / 8
		case 7:
			t.Feat[k] = float64(b>>3) * 1e5
		}
	}
	return t
}

// FuzzForwardMatchesReference lets the fuzzer pick the tree's shape, its
// features and (through the seed) the network shape and weights, and
// requires the prediction and every gradient to match the dense
// reference bit for bit.
func FuzzForwardMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{}, []byte{4})
	f.Add(int64(2), []byte{0, 0, 1, 1}, []byte{4, 0, 0, 5, 13, 0, 3})
	f.Add(int64(3), []byte{0x80, 0x81, 0x02, 0x83, 0x04, 0x05}, []byte{6, 14, 7, 0, 255, 129})
	f.Add(int64(4), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, []byte{0})
	f.Add(int64(-9), []byte{0, 0, 0, 0, 0, 0, 0, 0}, []byte{3, 3, 3, 4})
	f.Fuzz(func(t *testing.T, seed int64, shape, feats []byte) {
		rng := rand.New(rand.NewSource(seed))
		cfg := diffConfigs[rng.Intn(len(diffConfigs))]
		cfg.Seed = seed
		m, ref := diffPair(cfg, rng)
		tr := fuzzTree(shape, feats, cfg.InDim)
		if err := tr.Validate(); err != nil {
			t.Fatalf("fuzzTree built an invalid tree: %v", err)
		}
		got, want := m.Forward(tr), ref.Forward(tr)
		if !sameBits(got, want) {
			t.Fatalf("Forward = %x (%g), reference %x (%g)",
				math.Float64bits(got), got, math.Float64bits(want), want)
		}
		m.Backward(1)
		ref.Backward(1)
		diffParams(t, "gradient", m.Params(), ref.Params(), paramG)
	})
}

// planTrees builds trees the way the featurizer shapes a plan: strictly
// binary, 5–15 nodes, each row a one-hot operator slot plus a row and a
// cost estimate and, on leaves, a cache fraction.
func planTrees(rng *rand.Rand, n, d int) []*Tree {
	trees := make([]*Tree, n)
	for i := range trees {
		size := 5 + 2*rng.Intn(6)
		t := NewTree(size, d)
		for j := 0; j+2 < size; j += 2 {
			t.Left[j/2], t.Right[j/2] = j+1, j+2
		}
		for j := 0; j < size; j++ {
			row := t.Row(j)
			row[rng.Intn(d-3)] = 1
			row[d-3], row[d-2] = rng.Float64(), rng.Float64()
			if t.Left[j] == -1 {
				row[d-1] = rng.Float64()
			}
		}
		trees[i] = t
	}
	return trees
}

// TestForwardAllocs pins the forward pass at zero allocations once a
// network's scratch has grown to the largest tree it has seen.
func TestForwardAllocs(t *testing.T) {
	cfg := DefaultTCNNConfig(14)
	m := NewTCNN(cfg)
	trees := planTrees(rand.New(rand.NewSource(3)), 11, 14)
	var sink float64
	run := func() {
		for _, tr := range trees {
			sink += m.Forward(tr)
		}
	}
	run() // warm the scratch
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("TCNN.Forward over %d trees allocated %.0f times, want 0", len(trees), allocs)
	}
	_ = sink
}
