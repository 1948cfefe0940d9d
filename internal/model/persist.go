package model

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"bao/internal/nn"
)

// tcnnState is the gob-serializable form of a trained TCNN model: the
// architecture, the flattened weights, and the target normalization.
type tcnnState struct {
	Cfg        nn.TCNNConfig
	Weights    [][]float64
	Mean, Std  float64
	YMin, YMax float64
}

// Save serializes the trained model. Loading it back (Load) restores
// identical predictions, so a Bao deployment can persist its value model
// across restarts instead of relearning from an empty experience window.
func (m *TCNNModel) Save(w io.Writer) error {
	if !m.fit {
		return fmt.Errorf("model: cannot save an untrained model")
	}
	st := tcnnState{
		Cfg:     m.cfg,
		Weights: m.net.Snapshot(),
		Mean:    m.mean, Std: m.std,
		YMin: m.yMin, YMax: m.yMax,
	}
	return gob.NewEncoder(w).Encode(st)
}

// Load restores a model saved with Save. The snapshot is decoded, built,
// and validated fully detached — the input width m was built for, shape
// compatibility, finite weights, finite normalization — before anything
// on m changes, so a truncated, corrupt or foreign snapshot (a crash
// mid-save, bit rot, a model of another feature width) returns an error
// and leaves the live model exactly as it was, never half-applied.
func (m *TCNNModel) Load(r io.Reader) error {
	var st tcnnState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("model: load: %w", err)
	}
	if st.Cfg.InDim != m.cfg.InDim {
		return fmt.Errorf("model: load: snapshot input width %d, model expects %d", st.Cfg.InDim, m.cfg.InDim)
	}
	net := nn.NewTCNN(st.Cfg)
	params := net.Params()
	if len(params) != len(st.Weights) {
		return fmt.Errorf("model: load: %d parameter tensors, expected %d", len(st.Weights), len(params))
	}
	for i, p := range params {
		if len(st.Weights[i]) != p.Size() {
			return fmt.Errorf("model: load: parameter %s has %d weights, expected %d",
				p.Name, len(st.Weights[i]), p.Size())
		}
		if !allFinite(st.Weights[i]) {
			return fmt.Errorf("model: load: parameter %s has non-finite weights", p.Name)
		}
	}
	if !allFinite([]float64{st.Mean, st.Std, st.YMin, st.YMax}) {
		return fmt.Errorf("model: load: non-finite target normalization")
	}
	if st.Std <= 0 {
		return fmt.Errorf("model: load: non-positive target std %g", st.Std)
	}
	net.Restore(st.Weights)
	m.repMu.Lock()
	m.net = net
	m.replicas = nil // inference replicas alias the replaced network
	m.repMu.Unlock()
	m.cfg = st.Cfg
	m.mean, m.std = st.Mean, st.Std
	m.yMin, m.yMax = st.YMin, st.YMax
	m.fit = true
	return nil
}

// allFinite reports whether no value is NaN or ±Inf.
func allFinite(vs []float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// WeightsFinite returns an error naming the first parameter that holds a
// NaN or ±Inf, the same scan Load runs on a snapshot. Predictions cannot
// stand in for it: ReLU's v > 0 maps NaN to 0, so a non-finite weight
// anywhere below the last layer still yields a finite prediction. The
// candidate gate (guard.ValidateCandidate) calls this before a freshly
// fitted model may serve — a model that would be refused at the next
// restart must not be swapped in and checkpointed now, and the nn
// kernels' zero-skipping is exact only over finite weights.
func (m *TCNNModel) WeightsFinite() error {
	if !m.fit {
		return nil
	}
	for _, p := range m.net.Params() {
		if !allFinite(p.W) {
			return fmt.Errorf("model: non-finite value in parameter %s", p.Name)
		}
	}
	return nil
}
