package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"bao/internal/model"
	"bao/internal/nn"
	"bao/internal/obs"
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
