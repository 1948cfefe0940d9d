package model

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"bao/internal/nn"
)

func TestTCNNSaveLoadRoundTrip(t *testing.T) {
	trees, secs := syntheticData(80, 11)
	cfg := nn.DefaultTrainConfig()
	cfg.MaxEpochs = 10
	m := NewTCNN(4, cfg, 3)
	m.Fit(trees, secs)
	want := m.Predict(trees[:10])

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := NewTCNN(4, cfg, 99) // different seed: weights must come from Load
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	got := m2.Predict(trees[:10])
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-12 {
			t.Fatalf("prediction %d changed across save/load: %v vs %v", i, want[i], got[i])
		}
	}
}

func TestSaveUntrainedFails(t *testing.T) {
	m := NewTCNN(4, nn.DefaultTrainConfig(), 1)
	var buf bytes.Buffer
	if err := m.Save(&buf); err == nil {
		t.Fatal("saving an untrained model should fail")
	}
}

func TestLoadGarbageFails(t *testing.T) {
	m := NewTCNN(4, nn.DefaultTrainConfig(), 1)
	if err := m.Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("loading garbage should fail")
	}
	if m.fit {
		t.Fatal("failed load must not mark the model trained")
	}
}

// trainedModelAndSnapshot returns a trained model, its predictions on a
// probe set, and a valid serialized snapshot of a second, different
// model — the raw material for corrupting in every way Load must reject.
func trainedModelAndSnapshot(t *testing.T) (*TCNNModel, []*nn.Tree, []float64, []byte) {
	t.Helper()
	trees, secs := syntheticData(80, 11)
	cfg := nn.DefaultTrainConfig()
	cfg.MaxEpochs = 10
	m := NewTCNN(4, cfg, 3)
	m.Fit(trees, secs)
	want := m.Predict(trees[:10])
	other := NewTCNN(4, cfg, 5)
	other.Fit(trees, secs)
	var buf bytes.Buffer
	if err := other.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return m, trees[:10], want, buf.Bytes()
}

// assertUnchanged verifies the incumbent model still predicts exactly
// what it did before a failed load attempt.
func assertUnchanged(t *testing.T, m *TCNNModel, probe []*nn.Tree, want []float64) {
	t.Helper()
	got := m.Predict(probe)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("prediction %d changed after rejected load: %v vs %v", i, want[i], got[i])
		}
	}
}

// TestLoadTruncatedLeavesModelUsable: a snapshot cut off mid-stream (a
// crash mid-save) must fail the load and leave the incumbent byte-for-
// byte untouched — no half-applied weights.
func TestLoadTruncatedLeavesModelUsable(t *testing.T) {
	m, probe, want, snap := trainedModelAndSnapshot(t)
	for _, cut := range []int{1, len(snap) / 2, len(snap) - 3} {
		if err := m.Load(bytes.NewReader(snap[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes loaded successfully", cut)
		}
		assertUnchanged(t, m, probe, want)
	}
}

// TestLoadNonFiniteWeightsRejected: a snapshot carrying NaN or Inf
// weights — the persisted form of a numerically exploded fit — is
// rejected before anything on the live model changes.
func TestLoadNonFiniteWeightsRejected(t *testing.T) {
	m, probe, want, _ := trainedModelAndSnapshot(t)
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		st := snapshotState(t, m)
		st.Weights[0][0] = bad
		if err := m.Load(encodeState(t, st)); err == nil {
			t.Fatalf("snapshot with %v weight loaded successfully", bad)
		}
		assertUnchanged(t, m, probe, want)
	}
}

// TestLoadBadNormalizationRejected: non-finite or non-positive target
// normalization would make every future prediction garbage; Load must
// reject it.
func TestLoadBadNormalizationRejected(t *testing.T) {
	m, probe, want, _ := trainedModelAndSnapshot(t)
	cases := []func(*tcnnState){
		func(st *tcnnState) { st.Mean = math.NaN() },
		func(st *tcnnState) { st.Std = math.Inf(1) },
		func(st *tcnnState) { st.Std = 0 },
		func(st *tcnnState) { st.Std = -1 },
		func(st *tcnnState) { st.YMax = math.NaN() },
	}
	for i, corrupt := range cases {
		st := snapshotState(t, m)
		corrupt(&st)
		if err := m.Load(encodeState(t, st)); err == nil {
			t.Fatalf("case %d: corrupt normalization loaded successfully", i)
		}
		assertUnchanged(t, m, probe, want)
	}
}

// TestLoadShapeMismatchRejected: snapshots with the wrong tensor count or
// wrong per-tensor sizes (a config/architecture mismatch) are rejected.
func TestLoadShapeMismatchRejected(t *testing.T) {
	m, probe, want, _ := trainedModelAndSnapshot(t)

	st := snapshotState(t, m)
	st.Weights = st.Weights[:len(st.Weights)-1]
	if err := m.Load(encodeState(t, st)); err == nil {
		t.Fatal("snapshot missing a parameter tensor loaded successfully")
	}
	assertUnchanged(t, m, probe, want)

	st = snapshotState(t, m)
	st.Weights[0] = st.Weights[0][:len(st.Weights[0])-1]
	if err := m.Load(encodeState(t, st)); err == nil {
		t.Fatal("snapshot with a short tensor loaded successfully")
	}
	assertUnchanged(t, m, probe, want)
}

// TestLoadForeignInputWidthRejected: a well-formed snapshot of a model
// built for another feature width is as unusable as a corrupt one —
// every later Predict would index past its rows — so Load must reject it
// and leave the live model predicting as before.
func TestLoadForeignInputWidthRejected(t *testing.T) {
	_, _, _, narrow := trainedModelAndSnapshot(t) // a model of width 4
	trees, secs := syntheticData(40, 17)
	for i, tr := range trees {
		trees[i] = widen(tr, 14)
	}
	cfg := nn.DefaultTrainConfig()
	cfg.MaxEpochs = 3
	m := NewTCNN(14, cfg, 3)
	m.Fit(trees, secs)
	want := m.Predict(trees[:10])
	if err := m.Load(bytes.NewReader(narrow)); err == nil {
		t.Fatal("snapshot of a width-4 model loaded into a width-14 model")
	}
	assertUnchanged(t, m, trees[:10], want)
}

// widen copies t into a tree of feature width d, zero-filling the extra
// columns.
func widen(t *nn.Tree, d int) *nn.Tree {
	w := nn.NewTree(t.N, d)
	copy(w.Left, t.Left)
	copy(w.Right, t.Right)
	for j := 0; j < t.N; j++ {
		copy(w.Row(j), t.Row(j))
	}
	return w
}

// snapshotState decodes a model's own snapshot back into its state
// struct so tests can corrupt individual fields surgically.
func snapshotState(t *testing.T, m *TCNNModel) tcnnState {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var st tcnnState
	if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func encodeState(t *testing.T, st tcnnState) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}
