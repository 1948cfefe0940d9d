package nn

// The dense per-layer forward and backward passes the sparse kernels in
// layers.go replaced, kept verbatim as the oracle the differential tests
// compare against: one matVec per weight matrix over every column, one
// Tree wrapper per layer, []bool rectifier masks, the input gradient
// computed everywhere. Only the ref prefix on the names differs from the
// code as it last shipped, and buffers are allocated per call where that
// code reused scratch (which changes no arithmetic). refTCNN.Train is
// TCNN.Train with trainPool's per-batch-position gradient slots filled on
// one goroutine — training is bit-identical at every worker count, so
// that is the same arithmetic.

import (
	"math"
	"math/rand"
)

// refMatVec computes y = W·x for a Rows×Cols matrix W and a Cols-vector x,
// accumulating into y (callers zero y when they need assignment).
func refMatVec(w []float64, rows, cols int, x, y []float64) {
	for r := 0; r < rows; r++ {
		s := 0.0
		row := w[r*cols : r*cols+cols]
		for c, xv := range x {
			s += row[c] * xv
		}
		y[r] += s
	}
}

// refMatTVec computes x += Wᵀ·g: the backward pass through a linear map.
func refMatTVec(w []float64, rows, cols int, g, x []float64) {
	for r := 0; r < rows; r++ {
		gv := g[r]
		if gv == 0 {
			continue
		}
		row := w[r*cols : r*cols+cols]
		for c := 0; c < cols; c++ {
			x[c] += row[c] * gv
		}
	}
}

// refOuterAccum accumulates dW += g ⊗ x (outer product) into a Rows×Cols
// gradient buffer.
func refOuterAccum(dw []float64, rows, cols int, g, x []float64) {
	for r := 0; r < rows; r++ {
		gv := g[r]
		if gv == 0 {
			continue
		}
		row := dw[r*cols : r*cols+cols]
		for c, xv := range x {
			row[c] += gv * xv
		}
	}
}

type refTreeConv struct {
	In, Out              int
	Wroot, Wleft, Wright *Param
	B                    *Param
	lastIn               *Tree
}

func newRefTreeConv(name string, in, out int, rng *rand.Rand) *refTreeConv {
	return &refTreeConv{
		In: in, Out: out,
		Wroot:  NewParam(name+".root", out, in, rng),
		Wleft:  NewParam(name+".left", out, in, rng),
		Wright: NewParam(name+".right", out, in, rng),
		B:      NewZeroParam(name+".bias", out, 1),
	}
}

func (c *refTreeConv) Forward(t *Tree) *Tree {
	c.lastIn = t
	out := make([]float64, t.N*c.Out)
	for i := 0; i < t.N; i++ {
		y := out[i*c.Out : i*c.Out+c.Out]
		copy(y, c.B.W)
		refMatVec(c.Wroot.W, c.Out, c.In, t.Row(i), y)
		if l := t.Left[i]; l != -1 {
			refMatVec(c.Wleft.W, c.Out, c.In, t.Row(l), y)
		}
		if r := t.Right[i]; r != -1 {
			refMatVec(c.Wright.W, c.Out, c.In, t.Row(r), y)
		}
	}
	return t.WithFeatures(c.Out, out)
}

func (c *refTreeConv) Backward(dOut []float64) []float64 {
	t := c.lastIn
	dIn := make([]float64, t.N*c.In)
	for i := 0; i < t.N; i++ {
		g := dOut[i*c.Out : i*c.Out+c.Out]
		for k, gv := range g {
			c.B.G[k] += gv
		}
		refMatTVec(c.Wroot.W, c.Out, c.In, g, dIn[i*c.In:i*c.In+c.In])
		refOuterAccum(c.Wroot.G, c.Out, c.In, g, t.Row(i))
		if l := t.Left[i]; l != -1 {
			refMatTVec(c.Wleft.W, c.Out, c.In, g, dIn[l*c.In:l*c.In+c.In])
			refOuterAccum(c.Wleft.G, c.Out, c.In, g, t.Row(l))
		}
		if r := t.Right[i]; r != -1 {
			refMatTVec(c.Wright.W, c.Out, c.In, g, dIn[r*c.In:r*c.In+c.In])
			refOuterAccum(c.Wright.G, c.Out, c.In, g, t.Row(r))
		}
	}
	return dIn
}

func (c *refTreeConv) Params() []*Param { return []*Param{c.Wroot, c.Wleft, c.Wright, c.B} }

type refTreeReLU struct {
	mask []bool
}

func (r *refTreeReLU) Forward(t *Tree) *Tree {
	out := make([]float64, len(t.Feat))
	r.mask = make([]bool, len(t.Feat))
	for i, v := range t.Feat {
		if v > 0 {
			out[i] = v
			r.mask[i] = true
		} else {
			out[i] = 0
			r.mask[i] = false
		}
	}
	return t.WithFeatures(t.D, out)
}

func (r *refTreeReLU) Backward(dOut []float64) []float64 {
	dIn := make([]float64, len(dOut))
	for i, m := range r.mask {
		if m {
			dIn[i] = dOut[i]
		} else {
			dIn[i] = 0
		}
	}
	return dIn
}

type refTreeLayerNorm struct {
	D          int
	Gain, Bias *Param
	eps        float64
	lastIn     *Tree
	mean, istd []float64
	norm       []float64
}

func newRefTreeLayerNorm(name string, d int) *refTreeLayerNorm {
	return &refTreeLayerNorm{
		D:    d,
		Gain: NewConstParam(name+".gain", d, 1, 1),
		Bias: NewZeroParam(name+".bias", d, 1),
		eps:  1e-5,
	}
}

func (n *refTreeLayerNorm) Forward(t *Tree) *Tree {
	n.lastIn = t
	n.mean = make([]float64, t.N)
	n.istd = make([]float64, t.N)
	n.norm = make([]float64, t.N*t.D)
	out := make([]float64, t.N*t.D)
	for i := 0; i < t.N; i++ {
		x := t.Row(i)
		mu := 0.0
		for _, v := range x {
			mu += v
		}
		mu /= float64(t.D)
		va := 0.0
		for _, v := range x {
			d := v - mu
			va += d * d
		}
		va /= float64(t.D)
		istd := 1.0 / math.Sqrt(va+n.eps)
		n.mean[i], n.istd[i] = mu, istd
		for j, v := range x {
			z := (v - mu) * istd
			n.norm[i*t.D+j] = z
			out[i*t.D+j] = z*n.Gain.W[j] + n.Bias.W[j]
		}
	}
	return t.WithFeatures(t.D, out)
}

func (n *refTreeLayerNorm) Backward(dOut []float64) []float64 {
	t := n.lastIn
	d := float64(t.D)
	dIn := make([]float64, t.N*t.D)
	dz := make([]float64, t.D)
	for i := 0; i < t.N; i++ {
		var sumDz, sumDzZ float64
		for j := 0; j < t.D; j++ {
			g := dOut[i*t.D+j]
			z := n.norm[i*t.D+j]
			n.Gain.G[j] += g * z
			n.Bias.G[j] += g
			dz[j] = g * n.Gain.W[j]
			sumDz += dz[j]
			sumDzZ += dz[j] * z
		}
		istd := n.istd[i]
		for j := 0; j < t.D; j++ {
			z := n.norm[i*t.D+j]
			dIn[i*t.D+j] = istd * (dz[j] - sumDz/d - z*sumDzZ/d)
		}
	}
	return dIn
}

func (n *refTreeLayerNorm) Params() []*Param { return []*Param{n.Gain, n.Bias} }

type refDynamicPool struct {
	argmax []int
	n      int
}

func (p *refDynamicPool) Forward(t *Tree) []float64 {
	out := make([]float64, t.D)
	p.argmax = make([]int, t.D)
	p.n = t.N
	copy(out, t.Row(0))
	for i := 1; i < t.N; i++ {
		x := t.Row(i)
		for j, v := range x {
			if v > out[j] {
				out[j] = v
				p.argmax[j] = i
			}
		}
	}
	return out
}

func (p *refDynamicPool) Backward(dOut []float64, d int) []float64 {
	dIn := make([]float64, p.n*d)
	for j, g := range dOut {
		dIn[p.argmax[j]*d+j] = g
	}
	return dIn
}

type refLinear struct {
	In, Out int
	W, B    *Param
	lastIn  []float64
}

func newRefLinear(name string, in, out int, rng *rand.Rand) *refLinear {
	return &refLinear{In: in, Out: out,
		W: NewParam(name+".w", out, in, rng),
		B: NewZeroParam(name+".b", out, 1)}
}

func (l *refLinear) Forward(x []float64) []float64 {
	l.lastIn = x
	y := make([]float64, l.Out)
	copy(y, l.B.W)
	refMatVec(l.W.W, l.Out, l.In, x, y)
	return y
}

func (l *refLinear) Backward(dOut []float64) []float64 {
	dIn := make([]float64, l.In)
	refMatTVec(l.W.W, l.Out, l.In, dOut, dIn)
	refOuterAccum(l.W.G, l.Out, l.In, dOut, l.lastIn)
	for k, g := range dOut {
		l.B.G[k] += g
	}
	return dIn
}

func (l *refLinear) Params() []*Param { return []*Param{l.W, l.B} }

type refReLU struct {
	mask []bool
}

func (r *refReLU) Forward(x []float64) []float64 {
	y := make([]float64, len(x))
	r.mask = make([]bool, len(x))
	for i, v := range x {
		if v > 0 {
			y[i] = v
			r.mask[i] = true
		} else {
			y[i] = 0
			r.mask[i] = false
		}
	}
	return y
}

func (r *refReLU) Backward(dOut []float64) []float64 {
	dIn := make([]float64, len(dOut))
	for i, m := range r.mask {
		if m {
			dIn[i] = dOut[i]
		} else {
			dIn[i] = 0
		}
	}
	return dIn
}

// refTCNN is the network TCNN was before the kernels changed: the same
// parameters in the same order (so Snapshot/Restore move weights between
// the two), the same layer sequence, dense arithmetic throughout.
type refTCNN struct {
	Cfg  TCNNConfig
	conv [3]*refTreeConv
	norm [3]*refTreeLayerNorm
	act  [3]*refTreeReLU
	pool *refDynamicPool
	fc1  *refLinear
	relu *refReLU
	fc2  *refLinear
}

func newRefTCNN(cfg TCNNConfig) *refTCNN {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &refTCNN{Cfg: cfg, pool: &refDynamicPool{}, relu: &refReLU{}}
	in := cfg.InDim
	for i := 0; i < 3; i++ {
		m.conv[i] = newRefTreeConv("conv"+string(rune('1'+i)), in, cfg.Channels[i], rng)
		m.norm[i] = newRefTreeLayerNorm("norm"+string(rune('1'+i)), cfg.Channels[i])
		m.act[i] = &refTreeReLU{}
		in = cfg.Channels[i]
	}
	m.fc1 = newRefLinear("fc1", cfg.Channels[2], cfg.Hidden, rng)
	m.fc2 = newRefLinear("fc2", cfg.Hidden, 1, rng)
	return m
}

func (m *refTCNN) Forward(t *Tree) float64 {
	x := t
	for i := 0; i < 3; i++ {
		x = m.conv[i].Forward(x)
		x = m.norm[i].Forward(x)
		x = m.act[i].Forward(x)
	}
	v := m.pool.Forward(x)
	v = m.fc1.Forward(v)
	v = m.relu.Forward(v)
	return m.fc2.Forward(v)[0]
}

func (m *refTCNN) Backward(dLoss float64) {
	g := m.fc2.Backward([]float64{dLoss})
	g = m.relu.Backward(g)
	g = m.fc1.Backward(g)
	tg := m.pool.Backward(g, m.Cfg.Channels[2])
	for i := 2; i >= 0; i-- {
		tg = m.act[i].Backward(tg)
		tg = m.norm[i].Backward(tg)
		tg = m.conv[i].Backward(tg)
	}
}

func (m *refTCNN) Params() []*Param {
	var ps []*Param
	for i := 0; i < 3; i++ {
		ps = append(ps, m.conv[i].Params()...)
		ps = append(ps, m.norm[i].Params()...)
	}
	ps = append(ps, m.fc1.Params()...)
	ps = append(ps, m.fc2.Params()...)
	return ps
}

// Train is TCNN.Train over one worker's worth of trainPool.
func (m *refTCNN) Train(trees []*Tree, targets []float64, cfg TrainConfig) TrainResult {
	if len(trees) == 0 || cfg.MaxEpochs <= 0 {
		return TrainResult{}
	}
	opt := NewAdam(cfg.LR)
	params := m.Params()
	for _, p := range params {
		p.ZeroGrad()
	}
	batch := cfg.BatchSize
	if batch < 1 {
		batch = 1
	}
	master := make([][]float64, len(params))
	for i, p := range params {
		master[i] = p.G
	}
	slotG := make([][][]float64, batch)
	for s := range slotG {
		slotG[s] = make([][]float64, len(params))
		for i, p := range params {
			slotG[s][i] = make([]float64, p.Size())
		}
	}
	slotLoss := make([]float64, batch)
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(len(trees))
	best := math.Inf(1)
	stale := 0
	epochs, finalLoss := 0, 0.0
	for epoch := 0; epoch < cfg.MaxEpochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss := 0.0
		for b := 0; b < len(order); b += batch {
			end := b + batch
			if end > len(order) {
				end = len(order)
			}
			idx := order[b:end]
			scale := 2 / float64(end-b)
			for s, ex := range idx {
				for i, buf := range slotG[s] {
					for k := range buf {
						buf[k] = 0
					}
					params[i].G = buf
				}
				diff := m.Forward(trees[ex]) - targets[ex]
				slotLoss[s] = diff * diff
				m.Backward(scale * diff)
			}
			loss := 0.0
			for s := range idx {
				loss += slotLoss[s]
			}
			for pi, p := range params {
				p.G = master[pi]
				for s := range idx {
					for k, v := range slotG[s][pi] {
						p.G[k] += v
					}
				}
			}
			epochLoss += loss
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
	return TrainResult{Epochs: epochs, FinalLoss: finalLoss}
}
