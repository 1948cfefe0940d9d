package guard

import (
	"fmt"
	"math"

	"bao/internal/nn"
)

// ValidateConfig switches the validation gate a candidate model must
// pass before a retrain may swap it in.
type ValidateConfig struct {
	// Enabled turns the gate on. Off, candidates swap in sight-unseen
	// (the pre-guard behavior).
	Enabled bool
}

// The gate's fixed parameters.
const (
	// HoldoutStride routes every Nth eligible windowed experience into
	// the held-out validation slice instead of the training sample;
	// HoldoutCap caps that slice.
	HoldoutStride = 4
	HoldoutCap    = 256
	// minSamples is the holdout size below which the regression check is
	// skipped (too little data to judge; the finiteness checks still run).
	minSamples = 8
	// maxRegress rejects a candidate whose mean validation error exceeds
	// the incumbent's by more than this factor.
	maxRegress = 1.5
)

// Predictor is the slice of a value model validation needs.
type Predictor interface {
	Predict(trees []*nn.Tree) []float64
}

// Verdict is the outcome of validating one candidate model.
type Verdict struct {
	OK     bool
	Reason string
	// CandidateErr and IncumbentErr are mean absolute log-space errors on
	// the holdout (zero when the regression check did not run).
	CandidateErr float64
	IncumbentErr float64
	// Samples is the holdout size the verdict was judged on.
	Samples int
}

// weightChecker is implemented by value models that can scan their own
// parameters (model.TCNNModel).
type weightChecker interface {
	WeightsFinite() error
}

// ValidateCandidate judges a freshly fitted candidate on held-out
// experiences before it may replace the incumbent. Three checks, in order:
//
//  1. Finite weights: a candidate that can scan its own parameters
//     (weightChecker) and reports a NaN or Inf among them is rejected,
//     holdout or no holdout. The prediction check below cannot see this:
//     the rectifiers map NaN to zero, so only a non-finite weight in the
//     output layer ever reaches a prediction.
//  2. Finite predictions: a candidate that predicts NaN or Inf for any
//     holdout tree is rejected, whatever its aggregate error.
//  3. Regression: the candidate's mean absolute error (in the model's
//     log-latency space, so one scale covers microseconds to minutes)
//     must not exceed the incumbent's by more than maxRegress. Skipped
//     when there is no incumbent (first fit), the holdout is smaller than
//     minSamples, or the incumbent's own error is non-finite.
//
// Thompson sampling makes individual draws deliberately noisy — each fit
// is a bootstrap, not a best-effort point estimate — so maxRegress bounds
// catastrophic regressions rather than demanding monotone improvement.
func ValidateCandidate(cand, incumbent Predictor, trees []*nn.Tree, secs []float64) Verdict {
	v := Verdict{Samples: len(trees)}
	if wc, ok := cand.(weightChecker); ok {
		if err := wc.WeightsFinite(); err != nil {
			v.Reason = "non-finite weights: " + err.Error()
			return v
		}
	}
	if len(trees) == 0 {
		v.OK = true
		v.Reason = "no-holdout"
		return v
	}
	preds := cand.Predict(trees)
	for i, p := range preds {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			v.Reason = fmt.Sprintf("non-finite prediction (sample %d)", i)
			return v
		}
	}
	if incumbent == nil || len(trees) < minSamples || len(secs) != len(trees) {
		v.OK = true
		v.Reason = "insufficient-holdout"
		return v
	}
	v.CandidateErr = meanLogError(preds, secs)
	v.IncumbentErr = meanLogError(incumbent.Predict(trees), secs)
	if math.IsNaN(v.IncumbentErr) || math.IsInf(v.IncumbentErr, 0) {
		// A broken incumbent is no bar to clear; any finite candidate is
		// an improvement.
		v.OK = true
		v.Reason = "incumbent-degenerate"
		return v
	}
	if v.CandidateErr > v.IncumbentErr*maxRegress+1e-9 {
		v.Reason = fmt.Sprintf("validation regressed: candidate %.4f vs incumbent %.4f (max %.1fx)",
			v.CandidateErr, v.IncumbentErr, maxRegress)
		return v
	}
	v.OK = true
	v.Reason = "passed"
	return v
}

// meanLogError is the mean absolute error between predictions and
// observations in log1p(milliseconds) space — the same transform the
// TCNN trains under, so validation judges the model on its own turf.
func meanLogError(preds, obs []float64) float64 {
	var sum float64
	for i, p := range preds {
		if p < 0 {
			p = 0
		}
		sum += math.Abs(math.Log1p(p*1000) - math.Log1p(obs[i]*1000))
	}
	return sum / float64(len(preds))
}
