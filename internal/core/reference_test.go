package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"bao/internal/model"
	"bao/internal/nn"
	"bao/internal/obs"
	"bao/internal/planner"
	"bao/internal/workload"
)

// retrainInPlace is the inline Retrain body as it stood before retrains
// became fit-and-swap, kept as the oracle: it fits the LIVE model under
// the write lock (each Fit stepping that one model's seed) and republishes
// it. Only safe single-threaded, which is why it is no longer product code.
func retrainInPlace(b *Bao) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.trainingSampleLocked()
	// The inline path has no hot-swap to gate, so the holdout (if the
	// validation config carved one out) folds back into the training set
	// rather than going unused.
	trees := append(s.trees, s.valTrees...)
	secs := append(s.secs, s.valSecs...)
	if len(trees) == 0 {
		return
	}
	start := time.Now()
	epochs := b.Model.Fit(trees, secs)
	extra, _ := enforceCriticalOn(b.Model, trees, secs, s.crit)
	epochs += extra
	wall := time.Since(start).Seconds()
	b.finishRetrainLocked(b.Model, len(trees), fitResult{epochs: epochs, wall: wall})
	b.observer.Emit(obs.Event{Kind: obs.EventSwapAccepted,
		Detail: fmt.Sprintf("samples=%d epochs=%d (inline)", len(trees), epochs),
		Secs:   wall})
}

// TestRetrainMatchesInPlaceReference drives two optimizers over the same
// stream, one retraining through Retrain and one through the in-place
// oracle, and requires the same model after every retrain and the same arm
// for every query: a fresh model seeded Cfg.Seed + (Fit calls so far) is
// bit-for-bit the model a single instance refitted in place becomes. One
// query is critical, so enforcement refits advance the seed too.
func TestRetrainMatchesInPlaceReference(t *testing.T) {
	const crit = "SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id AND t.kind_id = 7 AND t.votes > 200000"
	stream := workload.IMDb(workload.Config{Scale: 0.12, Queries: 120, Seed: 42}).Queries
	for _, tc := range []struct {
		name     string
		newModel func(seed int64) model.Model
	}{
		{"tcnn", nil},
		{"forest", func(seed int64) model.Model { return model.NewForest(seed) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var due [2]bool
			var opts [2]*Bao
			for i := range opts {
				cfg := FastConfig()
				cfg.Arms = TopArms(6)
				cfg.RetrainEvery = 20
				cfg.Train.MaxEpochs = 5
				cfg.NewModel = tc.newModel
				cfg.Observer = obs.Disabled()
				b := New(buildIMDbEngine(t), cfg)
				b.MarkCritical(crit)
				if _, err := b.ExploreCritical(); err != nil {
					t.Fatal(err)
				}
				i := i
				b.SetRetrainHook(func(obs.Cause) { due[i] = true })
				opts[i] = b
			}
			got, ref := opts[0], opts[1]
			retrains := 0
			for qi, q := range stream {
				var arms [2]int
				for i, b := range opts {
					_, sel, err := b.Run(q.SQL)
					if err != nil {
						t.Fatalf("query %d: %v", qi, err)
					}
					arms[i] = sel.ArmID
				}
				if arms[0] != arms[1] {
					t.Fatalf("query %d: arm %d, the in-place reference chose %d", qi, arms[0], arms[1])
				}
				if due[0] != due[1] {
					t.Fatalf("query %d: retrain due %v, reference %v", qi, due[0], due[1])
				}
				if !due[0] {
					continue
				}
				due = [2]bool{}
				got.Retrain()
				retrainInPlace(ref)
				retrains++
				if tc.newModel == nil {
					var a, b bytes.Buffer
					if err := got.SaveModel(&a); err != nil {
						t.Fatal(err)
					}
					if err := ref.SaveModel(&b); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(a.Bytes(), b.Bytes()) {
						t.Fatalf("retrain %d (query %d): saved model differs from the in-place reference", retrains, qi)
					}
				}
				probe := ref.Experiences()
				trees := make([]*nn.Tree, len(probe))
				for i, e := range probe {
					trees[i] = e.Tree
				}
				if a, b := got.Model.Predict(trees), ref.Model.Predict(trees); !reflect.DeepEqual(a, b) {
					t.Fatalf("retrain %d (query %d): predictions differ from the in-place reference", retrains, qi)
				}
			}
			if retrains < 4 {
				t.Fatalf("only %d retrains: the stream does not exercise the seed sequence", retrains)
			}
			if tc.newModel == nil && got.fits <= retrains {
				t.Fatalf("%d Fit calls over %d retrains: no enforcement refit ran, so the test cannot see them miscounted", got.fits, retrains)
			}
		})
	}
}

// pickArmTwoPass is the argmin as it stood when the cost-sanity filter
// first built a slice of the sane arms and fell back to every candidate
// when it came out empty — the oracle for pickArm's one pass.
func pickArmTwoPass(plans []*planner.Node, preds []float64, candidates []int) int {
	minCost := plans[candidates[0]].EstCost
	for _, i := range candidates {
		if plans[i].EstCost < minCost {
			minCost = plans[i].EstCost
		}
	}
	sane := candidates[:0:0]
	for _, i := range candidates {
		if plans[i].EstCost <= minCost*100 {
			sane = append(sane, i)
		}
	}
	if len(sane) > 0 {
		candidates = sane
	}
	best := candidates[0]
	for _, i := range candidates[1:] {
		if preds[i] < preds[best] ||
			(preds[i] == preds[best] && plans[i].EstCost < plans[best].EstCost) {
			best = i
		}
	}
	return best
}

// TestPickArmMatchesTwoPassReference draws candidate sets, costs and
// predictions — ties, costs around the 100× line, negative, infinite and
// NaN values — and requires pickArm to choose the oracle's arm every time.
func TestPickArmMatchesTwoPassReference(t *testing.T) {
	costs := []float64{0, 1, 1, 2, 99, 100, 101, 250, -1, -300, math.Inf(1), math.Inf(-1), math.NaN()}
	preds := []float64{0.1, 0.1, 0.2, 0.5, math.MaxFloat64, math.Inf(1), math.NaN()}
	rng := rand.New(rand.NewSource(3))
	b := &Bao{observer: obs.Disabled()}
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(8)
		plans, p := make([]*planner.Node, n), make([]float64, n)
		for i := range plans {
			plans[i] = &planner.Node{EstCost: costs[rng.Intn(len(costs))]}
			p[i] = preds[rng.Intn(len(preds))]
		}
		cands := rng.Perm(n)[:1+rng.Intn(n)]
		r := &selectReq{b: b, sel: &Selection{Plans: plans, Preds: p}, st: &banditState{arms: cands}}
		r.pickArm()
		if want := pickArmTwoPass(plans, p, cands); r.sel.ArmID != want {
			t.Fatalf("trial %d: candidates %v, costs/preds %v/%v: arm %d, the two-pass reference chose %d",
				trial, cands, costsOf(plans), p, r.sel.ArmID, want)
		}
	}
}

func costsOf(plans []*planner.Node) []float64 {
	c := make([]float64, len(plans))
	for i, p := range plans {
		c[i] = p.EstCost
	}
	return c
}

// residencyFromPlans is the residency sample as it stood when a hit built
// it as a slice and compared that with floatsEqual — the oracle for
// residencyMatches.
func (f *Featurizer) residencyFromPlans(uniq []*planner.Node) []float64 {
	if f.CacheFrac == nil {
		return nil
	}
	var sig []float64
	var walk func(n *planner.Node)
	walk = func(n *planner.Node) {
		if n == nil {
			return
		}
		if n.IsScan() {
			sig = append(sig, f.CacheFrac(n.Table, n.Op == planner.OpIndexOnlyScan))
		}
		walk(n.Left)
		walk(n.Right)
	}
	for _, p := range uniq {
		walk(p)
	}
	return sig
}

// TestResidencyMatchesReference compares residencyMatches with building
// the signature and comparing slices, over every query's distinct plans,
// under a residency that tells each table and access path apart, against
// the plans' own signature and ones that differ in a value or a length.
func TestResidencyMatchesReference(t *testing.T) {
	cfg := FastConfig()
	cfg.Observer = obs.Disabled()
	b := New(buildIMDbEngine(t), cfg)
	frac := map[string]float64{}
	b.Feat.CacheFrac = func(table string, indexOnly bool) float64 {
		k := fmt.Sprint(table, indexOnly)
		if _, ok := frac[k]; !ok {
			frac[k] = float64(len(frac)+1) / 64
		}
		return frac[k]
	}
	var oblivious Featurizer
	for _, q := range workload.IMDb(workload.Config{Scale: 0.12, Queries: 40, Seed: 42}).Queries {
		sel, err := b.Select(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		var uniq []*planner.Node
		for _, p := range sel.Plans {
			if !slices.Contains(uniq, p) {
				uniq = append(uniq, p)
			}
		}
		sig := b.Feat.residencyFromPlans(uniq)
		sigs := [][]float64{sig, nil, sig[:len(sig)-1], append(slices.Clone(sig), 0.5)}
		for i := range sig {
			s := slices.Clone(sig)
			s[i] += 1
			sigs = append(sigs, s)
		}
		for _, s := range sigs {
			if got, want := b.Feat.residencyMatches(uniq, s), floatsEqual(sig, s); got != want {
				t.Fatalf("%s: residencyMatches(%v) = %v against %v, want %v", q.Template, s, got, sig, want)
			}
			if got, want := oblivious.residencyMatches(uniq, s), len(s) == 0; got != want {
				t.Fatalf("%s: cache-oblivious residencyMatches(%v) = %v, want %v", q.Template, s, got, want)
			}
		}
	}
}
