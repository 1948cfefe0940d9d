package guard

import (
	"math"
	"strings"
	"testing"

	"bao/internal/nn"
)

// fakePredictor returns a fixed prediction vector regardless of input.
type fakePredictor struct{ preds []float64 }

func (f fakePredictor) Predict(trees []*nn.Tree) []float64 {
	return append([]float64(nil), f.preds[:len(trees)]...)
}

func holdout(n int) ([]*nn.Tree, []float64) {
	trees := make([]*nn.Tree, n)
	secs := make([]float64, n)
	for i := range trees {
		trees[i] = nn.NewTree(1, 2)
		secs[i] = 0.1 * float64(i+1)
	}
	return trees, secs
}

func TestValidateEmptyHoldout(t *testing.T) {
	v := ValidateCandidate(fakePredictor{}, nil, nil, nil)
	if !v.OK || v.Reason != "no-holdout" {
		t.Fatalf("empty holdout: %+v, want OK no-holdout", v)
	}
}

// TestValidateNonFiniteRejected: a single NaN or Inf prediction rejects
// the candidate unconditionally, even when there is no incumbent to
// regress against.
func TestValidateNonFiniteRejected(t *testing.T) {
	trees, secs := holdout(4)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cand := fakePredictor{preds: []float64{0.1, bad, 0.1, 0.1}}
		v := ValidateCandidate(cand, nil, trees, secs)
		if v.OK {
			t.Fatalf("candidate with prediction %v accepted: %+v", bad, v)
		}
		if !strings.Contains(v.Reason, "non-finite prediction") {
			t.Fatalf("reason = %q, want non-finite prediction", v.Reason)
		}
	}
}

func TestValidateInsufficientHoldout(t *testing.T) {
	trees, secs := holdout(4) // below minSamples=8
	cand := fakePredictor{preds: []float64{9, 9, 9, 9}}
	inc := fakePredictor{preds: []float64{0.1, 0.2, 0.3, 0.4}}
	v := ValidateCandidate(cand, inc, trees, secs)
	if !v.OK || v.Reason != "insufficient-holdout" {
		t.Fatalf("small holdout: %+v, want OK insufficient-holdout", v)
	}
}

func TestValidateNoIncumbent(t *testing.T) {
	trees, secs := holdout(10)
	cand := fakePredictor{preds: make([]float64, 10)} // awful but finite
	v := ValidateCandidate(cand, nil, trees, secs)
	if !v.OK || v.Reason != "insufficient-holdout" {
		t.Fatalf("first fit: %+v, want OK (no incumbent to regress against)", v)
	}
}

// TestValidateRegression: a candidate much worse than the incumbent on
// the holdout is rejected; one within maxRegress passes.
func TestValidateRegression(t *testing.T) {
	trees, secs := holdout(10)
	inc := fakePredictor{preds: append([]float64(nil), secs...)} // perfect
	far := make([]float64, 10)
	for i := range far {
		far[i] = secs[i] * 100 // wildly over
	}
	v := ValidateCandidate(fakePredictor{preds: far}, inc, trees, secs)
	if v.OK {
		t.Fatalf("regressed candidate accepted: %+v", v)
	}
	if !strings.Contains(v.Reason, "validation regressed") {
		t.Fatalf("reason = %q, want validation regressed", v.Reason)
	}
	if v.CandidateErr <= v.IncumbentErr {
		t.Fatalf("errors inverted: candidate %g vs incumbent %g", v.CandidateErr, v.IncumbentErr)
	}

	// Same predictions as the incumbent must always pass.
	v = ValidateCandidate(inc, inc, trees, secs)
	if !v.OK || v.Reason != "passed" {
		t.Fatalf("equal candidate: %+v, want passed", v)
	}
}

// TestValidateDegenerateIncumbent: when the incumbent itself predicts
// non-finite values, any finite candidate is an improvement and passes.
func TestValidateDegenerateIncumbent(t *testing.T) {
	trees, secs := holdout(10)
	nan := make([]float64, 10)
	for i := range nan {
		nan[i] = math.NaN()
	}
	cand := fakePredictor{preds: make([]float64, 10)}
	v := ValidateCandidate(cand, fakePredictor{preds: nan}, trees, secs)
	if !v.OK || v.Reason != "incumbent-degenerate" {
		t.Fatalf("degenerate incumbent: %+v, want OK incumbent-degenerate", v)
	}
}

// TestValidateNegativePredictionsClamped: negative predictions are error,
// not a crash — they clamp to zero in log space.
func TestValidateNegativePredictionsClamped(t *testing.T) {
	trees, secs := holdout(10)
	neg := make([]float64, 10)
	for i := range neg {
		neg[i] = -5
	}
	inc := fakePredictor{preds: append([]float64(nil), secs...)}
	v := ValidateCandidate(fakePredictor{preds: neg}, inc, trees, secs)
	if v.OK {
		t.Fatalf("all-negative candidate accepted against a perfect incumbent: %+v", v)
	}
	if math.IsNaN(v.CandidateErr) {
		t.Fatal("negative predictions produced NaN error instead of clamping")
	}
}

func TestValidateDefaults(t *testing.T) {
	if HoldoutStride != 4 || HoldoutCap != 256 || minSamples != 8 || maxRegress != 1.5 {
		t.Fatalf("gate constants moved: stride %d, cap %d, min samples %d, max regress %v",
			HoldoutStride, HoldoutCap, minSamples, maxRegress)
	}
}

func TestNaNModelPredicts(t *testing.T) {
	trees, _ := holdout(3)
	preds := NaNModel{}.Predict(trees)
	if len(preds) != 3 {
		t.Fatalf("len = %d, want 3", len(preds))
	}
	for _, p := range preds {
		if !math.IsNaN(p) {
			t.Fatalf("NaNModel predicted %v", p)
		}
	}
	if (NaNModel{}).Name() != "NaN-injected" {
		t.Fatal("NaNModel must identify itself")
	}
}
