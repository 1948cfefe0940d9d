package nn

import (
	"math"
	"math/rand"
)

// Layers keep their forward/backward output buffers between calls
// (scratch and zeroedScratch below), so a pass allocates nothing once the
// buffers have grown to the largest tree seen. The contract: a layer's
// forward output is valid only until that layer's next Forward, and its
// backward output only until its next Backward — exactly the lifetime the
// TCNN's forward→backward pass structure needs. Layers are therefore not
// goroutine-safe; concurrent passes use replicas (see SharedReplica).
//
// Every W·x in this file skips the zero entries of x. A featurized plan
// row is a one-hot operator slot plus at most three floats, and every
// later input is a ReLU output, so most of x is zero. Skipping is exact,
// not approximate: each output element is a running sum that starts at
// +0 and visits the columns in ascending order; a finite weight times ±0
// is ±0, and adding ±0 to a sum that started at +0 never changes it (such
// a sum can be +0 but never -0). The results are therefore bit-identical
// to the dense products they replaced (kept in reference_test.go) for
// every network whose weights are finite. Serving upholds that
// precondition: guard.ValidateCandidate rejects a candidate with a
// non-finite weight before it can be swapped in, and TCNNModel.Load
// rejects such a snapshot. The backward pass skips the same terms of its
// gradient sums under the same argument, given finite gradients — and a
// fit whose gradients overflow ends on non-finite weights, which that
// gate rejects.

// scratch returns buf resized to n, reusing its capacity when possible.
// Contents are unspecified; callers must overwrite every element.
func scratch(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// zeroedScratch returns buf resized to n with every element zeroed, for
// buffers built up by accumulation (+=).
func zeroedScratch(buf []float64, n int) []float64 {
	buf = scratch(buf, n)
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// scratchInts is scratch for index buffers.
func scratchInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// sparseRows is a feature matrix kept as each row's non-zero entries, in
// ascending column order. A layer builds it once per pass; the tree
// convolution above reads each node's row up to three times (as the
// node's own input and as its parent's left or right input).
type sparseRows struct {
	start []int32 // row i is idx/val[start[i]:start[i+1]]
	idx   []int32
	val   []float64
}

// reset empties the matrix, keeping its capacity.
func (s *sparseRows) reset() {
	s.start = append(s.start[:0], 0)
	s.idx = s.idx[:0]
	s.val = s.val[:0]
}

// push appends an entry to the row being built; endRow closes the row.
func (s *sparseRows) push(col int, v float64) {
	s.idx = append(s.idx, int32(col))
	s.val = append(s.val, v)
}

func (s *sparseRows) endRow() { s.start = append(s.start, int32(len(s.idx))) }

// add appends x as the next row. NaN counts as non-zero.
func (s *sparseRows) add(x []float64) {
	for j, v := range x {
		if v != 0 {
			s.push(j, v)
		}
	}
	s.endRow()
}

// fill rebuilds the matrix from n dense rows of width d.
func (s *sparseRows) fill(feat []float64, n, d int) {
	s.reset()
	for i := 0; i < n; i++ {
		s.add(feat[i*d : i*d+d])
	}
}

// row returns row i's columns and values.
func (s *sparseRows) row(i int) ([]int32, []float64) {
	a, b := s.start[i], s.start[i+1]
	return s.idx[a:b], s.val[a:b]
}

// inGrad says at which input elements a TreeConv's Backward computes the
// input gradient.
type inGrad uint8

const (
	// inGradAll: everywhere. The zero value, for a layer used on its own.
	inGradAll inGrad = iota
	// inGradNonZero: only where the input is non-zero, the rest left at
	// zero. Right when the input is a ReLU's output: the rectifier's
	// backward zeroes the gradient wherever its output was zero, so the
	// skipped elements are never read and the ReLU's own backward pass
	// becomes the identity.
	inGradNonZero
	// inGradNone: nowhere. Right for a network's first layer, whose input
	// is data.
	inGradNone
)

// TreeConv is a tree convolution layer (Mou et al.). For every node i with
// children l and r it computes
//
//	y_i = Wroot·x_i + Wleft·x_l + Wright·x_r + b
//
// where a missing child contributes nothing (equivalently, a zero vector).
// The output is a tree of the same shape with Out-dimensional features.
type TreeConv struct {
	In, Out              int
	Wroot, Wleft, Wright *Param
	B                    *Param
	inGrad               inGrad
	// The pass's input, cached for backward: the tree's child indices and
	// the features in non-zero form — nz when the input arrived dense,
	// the ReLU below's list when it arrived from one.
	left, right    []int
	in             *sparseRows
	nz             sparseRows
	outBuf, dInBuf []float64 // reused pass buffers
}

// NewTreeConv constructs a tree convolution mapping In-dim node features to
// Out-dim node features.
func NewTreeConv(name string, in, out int, rng *rand.Rand) *TreeConv {
	return &TreeConv{
		In: in, Out: out,
		Wroot:  NewParam(name+".root", out, in, rng),
		Wleft:  NewParam(name+".left", out, in, rng),
		Wright: NewParam(name+".right", out, in, rng),
		B:      NewZeroParam(name+".bias", out, 1),
	}
}

// Forward applies the convolution, caching the input for Backward.
func (c *TreeConv) Forward(t *Tree) *Tree {
	c.nz.fill(t.Feat, t.N, t.D)
	c.begin(t, &c.nz)
	for i := 0; i < t.N; i++ {
		c.node(i)
	}
	return t.WithFeatures(c.Out, c.outBuf)
}

// begin starts a forward pass over t's shape with features in; node then
// computes one output row at a time, so the caller can run the layers
// above on each row while it is hot.
func (c *TreeConv) begin(t *Tree, in *sparseRows) {
	c.left, c.right, c.in = t.Left, t.Right, in
	c.outBuf = scratch(c.outBuf, t.N*c.Out)
}

// node computes and returns output row i.
func (c *TreeConv) node(i int) []float64 {
	y := c.outBuf[i*c.Out : i*c.Out+c.Out]
	copy(y, c.B.W)
	idx, val := c.in.row(i)
	sparseMatVec(c.Wroot.W, c.In, idx, val, y)
	if l := c.left[i]; l != -1 {
		idx, val = c.in.row(l)
		sparseMatVec(c.Wleft.W, c.In, idx, val, y)
	}
	if r := c.right[i]; r != -1 {
		idx, val = c.in.row(r)
		sparseMatVec(c.Wright.W, c.In, idx, val, y)
	}
	return y
}

// Backward consumes the gradient with respect to the layer output features
// (N×Out, flattened) and returns the gradient with respect to the input
// features (N×In; see inGrad, empty for inGradNone), accumulating
// parameter gradients along the way.
func (c *TreeConv) Backward(dOut []float64) []float64 {
	n := len(c.left)
	c.dInBuf = c.dInBuf[:0]
	if c.inGrad != inGradNone {
		c.dInBuf = zeroedScratch(c.dInBuf, n*c.In)
	}
	for i := 0; i < n; i++ {
		g := dOut[i*c.Out : i*c.Out+c.Out]
		for k, gv := range g {
			c.B.G[k] += gv
		}
		c.backward(c.Wroot, g, i)
		if l := c.left[i]; l != -1 {
			c.backward(c.Wleft, g, l)
		}
		if r := c.right[i]; r != -1 {
			c.backward(c.Wright, g, r)
		}
	}
	return c.dInBuf
}

// backward propagates one output row's gradient g through w to input row
// j: w's gradient, and j's share of the input gradient.
func (c *TreeConv) backward(w *Param, g []float64, j int) {
	idx, val := c.in.row(j)
	outerAccum(w.G, c.In, g, idx, val)
	switch c.inGrad {
	case inGradAll:
		matTVec(w.W, c.Out, c.In, g, c.dInBuf[j*c.In:j*c.In+c.In])
	case inGradNonZero:
		matTVecAt(w.W, c.In, g, idx, c.dInBuf[j*c.In:j*c.In+c.In])
	}
}

// Params returns the layer's trainable parameters.
func (c *TreeConv) Params() []*Param { return []*Param{c.Wroot, c.Wleft, c.Wright, c.B} }

// TreeReLU applies an elementwise rectifier to every node feature. It
// keeps no mask: an element passed exactly when its output is positive.
type TreeReLU struct {
	outBuf, dInBuf []float64
	nz             sparseRows // the output's non-zero entries: the next convolution's input
}

// begin starts a forward pass over n rows of width d; node then takes the
// rows one at a time.
func (r *TreeReLU) begin(n, d int) {
	r.outBuf = scratch(r.outBuf, n*d)
	r.nz.reset()
}

// node zeroes x's negative entries into output row i. Rows must arrive in
// order.
func (r *TreeReLU) node(i int, x []float64) {
	out := r.outBuf[i*len(x) : i*len(x)+len(x)]
	for j, v := range x {
		if v > 0 {
			out[j] = v
			r.nz.push(j, v)
		} else {
			out[j] = 0
		}
	}
	r.nz.endRow()
}

// Backward passes the output gradient where the forward output was
// positive.
func (r *TreeReLU) Backward(dOut []float64) []float64 {
	r.dInBuf = scratch(r.dInBuf, len(dOut))
	dIn := r.dInBuf
	for i, v := range r.outBuf {
		if v > 0 {
			dIn[i] = dOut[i]
		} else {
			dIn[i] = 0
		}
	}
	return dIn
}

// TreeLayerNorm normalizes each node's feature vector to zero mean and unit
// variance across channels, then applies a learned gain and shift. This is
// the layer normalization Bao applies between tree convolutions.
type TreeLayerNorm struct {
	D          int
	Gain, Bias *Param
	eps        float64
	istd       []float64 // per node
	norm       []float64 // normalized activations, N×D
	outBuf     []float64
	dInBuf, dz []float64
}

// NewTreeLayerNorm constructs a layer norm over d channels.
func NewTreeLayerNorm(name string, d int) *TreeLayerNorm {
	return &TreeLayerNorm{
		D:    d,
		Gain: NewConstParam(name+".gain", d, 1, 1),
		Bias: NewZeroParam(name+".bias", d, 1),
		eps:  1e-5,
	}
}

// Forward normalizes each node independently.
func (n *TreeLayerNorm) Forward(t *Tree) *Tree {
	n.begin(t.N)
	for i := 0; i < t.N; i++ {
		n.node(i, t.Row(i))
	}
	return t.WithFeatures(n.D, n.outBuf)
}

// begin starts a forward pass over nodes rows.
func (n *TreeLayerNorm) begin(nodes int) {
	n.istd = scratch(n.istd, nodes)
	n.norm = scratch(n.norm, nodes*n.D)
	n.outBuf = scratch(n.outBuf, nodes*n.D)
}

// node normalizes x into output row i and returns it.
func (n *TreeLayerNorm) node(i int, x []float64) []float64 {
	d := float64(n.D)
	mu := 0.0
	for _, v := range x {
		mu += v
	}
	mu /= d
	va := 0.0
	for _, v := range x {
		dv := v - mu
		va += dv * dv
	}
	va /= d
	istd := 1.0 / math.Sqrt(va+n.eps)
	n.istd[i] = istd
	norm := n.norm[i*n.D : i*n.D+n.D]
	out := n.outBuf[i*n.D : i*n.D+n.D]
	for j, v := range x {
		z := (v - mu) * istd
		norm[j] = z
		out[j] = z*n.Gain.W[j] + n.Bias.W[j]
	}
	return out
}

// Backward propagates gradients through the normalization.
func (n *TreeLayerNorm) Backward(dOut []float64) []float64 {
	d := float64(n.D)
	n.dInBuf = scratch(n.dInBuf, len(dOut))
	dIn := n.dInBuf
	n.dz = scratch(n.dz, n.D)
	for i := range n.istd {
		var sumDz, sumDzZ float64
		dz := n.dz
		for j := 0; j < n.D; j++ {
			g := dOut[i*n.D+j]
			z := n.norm[i*n.D+j]
			n.Gain.G[j] += g * z
			n.Bias.G[j] += g
			dz[j] = g * n.Gain.W[j]
			sumDz += dz[j]
			sumDzZ += dz[j] * z
		}
		istd := n.istd[i]
		for j := 0; j < n.D; j++ {
			z := n.norm[i*n.D+j]
			dIn[i*n.D+j] = istd * (dz[j] - sumDz/d - z*sumDzZ/d)
		}
	}
	return dIn
}

// Params returns the learned gain and shift.
func (n *TreeLayerNorm) Params() []*Param { return []*Param{n.Gain, n.Bias} }

// DynamicPool flattens a tree into a single vector by taking the
// elementwise maximum over all nodes ("dynamic pooling"), making the
// network applicable to trees of any size.
type DynamicPool struct {
	argmax         []int
	n              int
	outBuf, dInBuf []float64
}

// Forward returns the channel-wise max over nodes and remembers which node
// supplied each maximum.
func (p *DynamicPool) Forward(t *Tree) []float64 { return p.forward(t.Feat, t.N, t.D) }

// forward is Forward over n rows of width d.
func (p *DynamicPool) forward(feat []float64, n, d int) []float64 {
	p.outBuf = scratch(p.outBuf, d)
	out := p.outBuf
	p.argmax = scratchInts(p.argmax, d)
	for i := range p.argmax {
		p.argmax[i] = 0
	}
	p.n = n
	copy(out, feat[:d])
	for i := 1; i < n; i++ {
		for j, v := range feat[i*d : i*d+d] {
			if v > out[j] {
				out[j] = v
				p.argmax[j] = i
			}
		}
	}
	return out
}

// Backward scatters the pooled gradient back to the argmax nodes.
func (p *DynamicPool) Backward(dOut []float64, d int) []float64 {
	p.dInBuf = zeroedScratch(p.dInBuf, p.n*d)
	dIn := p.dInBuf
	for j, g := range dOut {
		dIn[p.argmax[j]*d+j] = g
	}
	return dIn
}

// Linear is a fully connected layer y = W·x + b on plain vectors.
type Linear struct {
	In, Out        int
	W, B           *Param
	nz             sparseRows // the input's non-zero entries, cached for backward
	outBuf, dInBuf []float64
}

// NewLinear constructs a fully connected layer.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	return &Linear{In: in, Out: out,
		W: NewParam(name+".w", out, in, rng),
		B: NewZeroParam(name+".b", out, 1)}
}

// Forward computes the affine map, caching the input.
func (l *Linear) Forward(x []float64) []float64 {
	l.nz.fill(x, 1, len(x))
	l.outBuf = scratch(l.outBuf, l.Out)
	y := l.outBuf
	copy(y, l.B.W)
	idx, val := l.nz.row(0)
	sparseMatVec(l.W.W, l.In, idx, val, y)
	return y
}

// Backward returns the input gradient and accumulates parameter gradients.
func (l *Linear) Backward(dOut []float64) []float64 {
	l.dInBuf = zeroedScratch(l.dInBuf, l.In)
	dIn := l.dInBuf
	matTVec(l.W.W, l.Out, l.In, dOut, dIn)
	idx, val := l.nz.row(0)
	outerAccum(l.W.G, l.In, dOut, idx, val)
	for k, g := range dOut {
		l.B.G[k] += g
	}
	return dIn
}

// Params returns the weight matrix and bias.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// ReLU is an elementwise rectifier on plain vectors.
type ReLU struct {
	outBuf, dInBuf []float64
}

// Forward zeroes negative entries.
func (r *ReLU) Forward(x []float64) []float64 {
	r.outBuf = scratch(r.outBuf, len(x))
	y := r.outBuf
	for i, v := range x {
		if v > 0 {
			y[i] = v
		} else {
			y[i] = 0
		}
	}
	return y
}

// Backward passes the gradient where the forward output was positive.
func (r *ReLU) Backward(dOut []float64) []float64 {
	r.dInBuf = scratch(r.dInBuf, len(dOut))
	dIn := r.dInBuf
	for i, v := range r.outBuf {
		if v > 0 {
			dIn[i] = dOut[i]
		} else {
			dIn[i] = 0
		}
	}
	return dIn
}
