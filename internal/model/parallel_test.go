package model

import (
	"bytes"
	"sync"
	"testing"

	"bao/internal/nn"
)

// Pooled replicas alias the master network's weights, so a refit or a
// Load must retire them: after either, Predict must give exactly what a
// model that never predicted before (and so never pooled a replica)
// gives for the same weights.
func TestPredictReplicasFollowRefitAndLoad(t *testing.T) {
	trees, secs := syntheticData(120, 3)
	tc := nn.DefaultTrainConfig()
	tc.MaxEpochs = 3
	m := NewTCNN(4, tc, 7)
	m.Fit(trees[:60], secs[:60])
	before := m.Predict(trees[60:]) // pools a replica of the first network

	m.Fit(trees[:60], secs[:60])
	got := m.Predict(trees[60:])
	fresh := NewTCNN(4, tc, 7)
	fresh.Fit(trees[:60], secs[:60])
	fresh.Fit(trees[:60], secs[:60])
	want := fresh.Predict(trees[60:])
	changed := false
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after refit Predict[%d] = %g, a never-pooled model gives %g", i, got[i], want[i])
		}
		changed = changed || got[i] != before[i]
	}
	if !changed {
		t.Fatal("refit left every prediction unchanged; the check cannot tell stale replicas apart")
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := NewTCNN(4, tc, 11)
	m2.Fit(trees[60:], secs[60:])
	_ = m2.Predict(trees[60:]) // pools a replica of the network Load replaces
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded := m2.Predict(trees[60:])
	for i := range want {
		if reloaded[i] != want[i] {
			t.Fatalf("after Load Predict[%d] = %g, the saved model gives %g", i, reloaded[i], want[i])
		}
	}
}

// Concurrent Predict calls on one trained model must be race-free and
// agree with the sequential result (the serving layer's read-mostly fast
// path shares the current model across in-flight selects).
func TestPredictConcurrentCallers(t *testing.T) {
	trees, secs := syntheticData(64, 5)
	tc := nn.DefaultTrainConfig()
	tc.MaxEpochs = 2
	m := NewTCNN(4, tc, 13)
	m.Fit(trees[:40], secs[:40])
	want := m.Predict(trees[40:])
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				got := m.Predict(trees[40:])
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("concurrent Predict[%d] = %g, want %g", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
