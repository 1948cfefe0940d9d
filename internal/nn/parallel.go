package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a configured worker count: any value below one means
// one worker per available CPU (GOMAXPROCS). Parallel training is
// bit-identical across worker counts, so "auto" is always a safe
// default.
func Workers(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// SharedReplica returns a network with m's architecture whose parameters
// alias m's weight slices but own private gradient buffers and private
// per-layer scratch state. Replicas make concurrent Forward/Backward safe:
// weights are only ever read during a pass, while activations, caches, and
// gradients live in the replica. Weight updates applied to m (or any
// replica) are immediately visible to all replicas; callers must not
// update weights while a replica is mid-pass.
func (m *TCNN) SharedReplica() *TCNN {
	r := NewTCNN(m.Cfg)
	mp, rp := m.Params(), r.Params()
	for i := range rp {
		rp[i].W = mp[i].W
	}
	return r
}

// trainPool is the data-parallel training apparatus for one Train call:
// per-worker model replicas sharing the master weights, plus one gradient
// buffer set and one loss slot *per batch position*. Workers claim batch
// positions from an atomic cursor and write each example's gradient into
// that example's slot; the reduction then folds slots into the master
// gradient in batch order. Because every example's forward/backward is
// computed in isolation and the floating-point reduction order is fixed by
// batch position (never by worker), training is bit-identical for any
// worker count, including one.
type trainPool struct {
	params   []*Param      // master parameters (reduction target)
	reps     []*TCNN       // one replica per worker, weights aliased to master
	repPs    [][]*Param    // reps[i].Params(), cached
	slotG    [][][]float64 // batch position → parameter → gradient buffer
	slotLoss []float64     // batch position → squared error
}

// newTrainPool builds replicas and slot buffers for at most maxSlot
// examples per batch.
func newTrainPool(m *TCNN, workers, maxSlot int) *trainPool {
	p := &trainPool{params: m.Params(), slotLoss: make([]float64, maxSlot)}
	for w := 0; w < workers; w++ {
		rep := m.SharedReplica()
		p.reps = append(p.reps, rep)
		p.repPs = append(p.repPs, rep.Params())
	}
	p.slotG = make([][][]float64, maxSlot)
	for s := range p.slotG {
		bufs := make([][]float64, len(p.params))
		for i, mp := range p.params {
			bufs[i] = make([]float64, mp.Size())
		}
		p.slotG[s] = bufs
	}
	return p
}

// runBatch computes gradients for the examples order[b:end] picks out of
// (trees, targets), reduces them into the master parameters' G in batch
// order, and returns the batch's summed squared error. scale is the
// d(loss)/d(pred) factor applied per example (2/batchSize for batch-mean
// MSE).
func (p *trainPool) runBatch(trees []*Tree, targets []float64, idx []int, scale float64) float64 {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 1; w < len(p.reps); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p.work(w, trees, targets, idx, scale, &next)
		}(w)
	}
	p.work(0, trees, targets, idx, scale, &next)
	wg.Wait()

	loss := 0.0
	for s := range idx {
		loss += p.slotLoss[s]
	}
	for pi, mp := range p.params {
		g := mp.G
		for s := range idx {
			for k, v := range p.slotG[s][pi] {
				g[k] += v
			}
		}
	}
	return loss
}

// work is one worker's batch loop: claim a batch position, point the
// replica's gradients at that position's buffers, and run the example's
// forward/backward pass.
func (p *trainPool) work(w int, trees []*Tree, targets []float64, idx []int, scale float64, next *atomic.Int64) {
	rep, rps := p.reps[w], p.repPs[w]
	for {
		s := int(next.Add(1)) - 1
		if s >= len(idx) {
			return
		}
		bufs := p.slotG[s]
		for i, b := range bufs {
			for k := range b {
				b[k] = 0
			}
			rps[i].G = b
		}
		ex := idx[s]
		diff := rep.Forward(trees[ex]) - targets[ex]
		p.slotLoss[s] = diff * diff
		rep.Backward(scale * diff)
	}
}
