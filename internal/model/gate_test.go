package model_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"bao/internal/guard"
	"bao/internal/model"
	"bao/internal/nn"
)

// planTrees builds trees shaped like featurized plans: strictly binary,
// 5–15 nodes, 14-wide rows holding a one-hot operator slot, two estimates
// and, on leaves, a cache fraction.
func planTrees(n int, seed int64) ([]*nn.Tree, []float64) {
	const d = 14
	rng := rand.New(rand.NewSource(seed))
	trees := make([]*nn.Tree, n)
	secs := make([]float64, n)
	for i := range trees {
		size := 5 + 2*rng.Intn(6)
		t := nn.NewTree(size, d)
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
		secs[i] = 0.01 * float64(size) * (1 + t.Feat[d-2])
	}
	return trees, secs
}

// TestValidateRejectsNaNWeightBelowHead: a NaN or Inf in a parameter
// below the output layer leaves every prediction finite (the rectifiers
// map NaN to zero), so the gate's prediction check passes it; the weight
// scan must reject it, or the model is swapped in and checkpointed and
// only refused by Load at the next restart.
func TestValidateRejectsNaNWeightBelowHead(t *testing.T) {
	trees, secs := planTrees(60, 21)
	tc := nn.DefaultTrainConfig()
	tc.MaxEpochs = 3
	m := model.NewTCNN(14, tc, 5)
	m.Fit(trees[:40], secs[:40])
	hold, holdSecs := trees[40:], secs[40:]
	if v := guard.ValidateCandidate(m, nil, hold, holdSecs); !v.OK {
		t.Fatalf("clean candidate rejected: %+v", v)
	}
	byName := map[string]*nn.Param{}
	for _, p := range m.Params() {
		byName[p.Name] = p
	}
	for _, name := range []string{"conv1.root", "norm2.gain", "fc1.w"} {
		for _, bad := range []float64{math.NaN(), math.Inf(1)} {
			p := byName[name]
			if p == nil {
				t.Fatalf("no parameter %s", name)
			}
			saved := p.W[0]
			p.W[0] = bad
			for i, pred := range m.Predict(hold) {
				if math.IsNaN(pred) || math.IsInf(pred, 0) {
					t.Fatalf("%s[0]=%v: prediction %d is %v; the test needs a poison predictions cannot see", name, bad, i, pred)
				}
			}
			for _, h := range [][]*nn.Tree{hold, nil} {
				v := guard.ValidateCandidate(m, nil, h, holdSecs[:len(h)])
				if v.OK || !strings.Contains(v.Reason, "non-finite weights") || !strings.Contains(v.Reason, name) {
					t.Fatalf("%s[0]=%v, holdout %d: verdict %+v, want rejection for non-finite weights", name, bad, len(h), v)
				}
			}
			p.W[0] = saved
		}
	}
	if v := guard.ValidateCandidate(m, nil, hold, holdSecs); !v.OK {
		t.Fatalf("restored candidate rejected: %+v", v)
	}
}

// TestPredictAllocs: inference allocates per call (the result, the
// replica checkout, the fan-out), never per tree or per layer.
func TestPredictAllocs(t *testing.T) {
	trees, secs := planTrees(40, 22)
	tc := nn.DefaultTrainConfig()
	tc.MaxEpochs = 2
	m := model.NewTCNN(14, tc, 5)
	m.Fit(trees, secs)
	m.SetWorkers(2)
	batch := trees[:11] // the distinct plans of one query
	m.Predict(batch)    // warm the replicas' scratch
	if allocs := testing.AllocsPerRun(50, func() { m.Predict(batch) }); allocs > 8 {
		t.Fatalf("Predict over %d trees allocated %.0f times, want at most 8", len(batch), allocs)
	}
}
