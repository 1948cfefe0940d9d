// Package nn is a from-scratch neural network library built on the Go
// standard library. It provides exactly the operators Bao's value model
// needs — tree convolution (Mou et al., AAAI '16), dynamic pooling, fully
// connected layers, ReLU, layer normalization — together with manual
// backpropagation and the Adam optimizer. All math is float64 and all
// randomness flows through an explicit *rand.Rand so experiments are
// deterministic.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Param is a trainable weight matrix with its accumulated gradient. A
// vector parameter is represented with Cols == 1. Layers share Params with
// the optimizer by pointer, so the optimizer can keep per-parameter state
// (Adam moments) keyed on identity.
type Param struct {
	Name string
	Rows int
	Cols int
	W    []float64 // row-major Rows×Cols
	G    []float64 // accumulated gradient, same shape as W
}

// NewParam allocates a parameter initialized with Glorot/Xavier uniform
// scaling, which keeps activations stable across the stacked tree
// convolution layers.
func NewParam(name string, rows, cols int, rng *rand.Rand) *Param {
	p := &Param{Name: name, Rows: rows, Cols: cols,
		W: make([]float64, rows*cols), G: make([]float64, rows*cols)}
	limit := math.Sqrt(6.0 / float64(rows+cols))
	for i := range p.W {
		p.W[i] = (rng.Float64()*2 - 1) * limit
	}
	return p
}

// NewZeroParam allocates a zero-initialized parameter (for biases and
// layer-norm shifts).
func NewZeroParam(name string, rows, cols int) *Param {
	return &Param{Name: name, Rows: rows, Cols: cols,
		W: make([]float64, rows*cols), G: make([]float64, rows*cols)}
}

// NewConstParam allocates a parameter filled with a constant (for
// layer-norm gains, which start at 1).
func NewConstParam(name string, rows, cols int, v float64) *Param {
	p := NewZeroParam(name, rows, cols)
	for i := range p.W {
		p.W[i] = v
	}
	return p
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// Size returns the number of scalar weights in the parameter.
func (p *Param) Size() int { return len(p.W) }

// Clone returns a deep copy of the parameter values (gradients are not
// copied). Used to snapshot model weights for Thompson sampling.
func (p *Param) Clone() []float64 {
	c := make([]float64, len(p.W))
	copy(c, p.W)
	return c
}

// Restore overwrites the parameter values from a snapshot taken by Clone.
func (p *Param) Restore(w []float64) {
	if len(w) != len(p.W) {
		panic(fmt.Sprintf("nn: restore %s: snapshot size %d != param size %d", p.Name, len(w), len(p.W)))
	}
	copy(p.W, w)
}

// sparseMatVec accumulates y += W·x for a row-major matrix W with cols
// columns and len(y) rows, where x is given by its non-zero entries
// (columns idx, ascending, and their values val). Four output rows run at
// a time so the four running sums are independent of each other; each sum
// still starts at zero and takes its terms in ascending column order,
// which is what keeps it bit-identical to the dense product (see the note
// at the top of layers.go).
func sparseMatVec(w []float64, cols int, idx []int32, val, y []float64) {
	val = val[:len(idx)]
	r := 0
	for ; r+4 <= len(y); r += 4 {
		w0 := w[r*cols:][:cols]
		w1 := w[(r+1)*cols:][:cols]
		w2 := w[(r+2)*cols:][:cols]
		w3 := w[(r+3)*cols:][:cols]
		var s0, s1, s2, s3 float64
		for k, c := range idx {
			v := val[k]
			s0 += w0[c] * v
			s1 += w1[c] * v
			s2 += w2[c] * v
			s3 += w3[c] * v
		}
		y[r] += s0
		y[r+1] += s1
		y[r+2] += s2
		y[r+3] += s3
	}
	for ; r < len(y); r++ {
		row := w[r*cols:][:cols]
		s := 0.0
		for k, c := range idx {
			s += row[c] * val[k]
		}
		y[r] += s
	}
}

// matTVec computes x += Wᵀ·g: the backward pass through a linear map.
func matTVec(w []float64, rows, cols int, g, x []float64) {
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

// matTVecAt is matTVec restricted to the columns in idx; the other
// elements of x are left alone.
func matTVecAt(w []float64, cols int, g []float64, idx []int32, x []float64) {
	for r, gv := range g {
		if gv == 0 {
			continue
		}
		row := w[r*cols:][:cols]
		for _, c := range idx {
			x[c] += row[c] * gv
		}
	}
}

// outerAccum accumulates dW += g ⊗ x (outer product) into a gradient
// buffer with cols columns, x given by its non-zero entries as in
// sparseMatVec. The skipped terms are g·±0 added to a sum that started at
// +0, so skipping them changes nothing.
func outerAccum(dw []float64, cols int, g []float64, idx []int32, val []float64) {
	val = val[:len(idx)]
	for r, gv := range g {
		if gv == 0 {
			continue
		}
		row := dw[r*cols:][:cols]
		for k, c := range idx {
			row[c] += gv * val[k]
		}
	}
}
