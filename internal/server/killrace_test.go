package baoserver

import (
	"testing"

	"bao/internal/core"
)

// TestObserveRacingKillDoesNotPanic: an observation copies the retrain
// hook under the optimizer's lock and calls it later, so a Kill (or
// Shutdown) that detaches the hook in between cannot stop that call. The
// observation here is held inside its experience hook until Kill has
// returned, then signals a trainer that is gone: the signal must be
// dropped, not sent on a closed channel.
func TestObserveRacingKillDoesNotPanic(t *testing.T) {
	b := newTestBao(t, func(c *core.Config) { c.RetrainEvery = 1 })
	s, err := New(b, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := b.Select(testSQL)
	if err != nil {
		t.Fatal(err)
	}
	// Seed a window at the retrain floor, so the observation schedules one.
	seed := make([]core.Experience, 16)
	for i := range seed {
		seed[i] = core.Experience{Tree: sel.Trees[sel.ArmID], Secs: 0.01, ArmID: sel.ArmID, Key: testSQL}
	}
	b.RestoreExperiences(seed)
	entered, killed := make(chan struct{}), make(chan struct{})
	b.SetExperienceHook(func(core.Experience) {
		close(entered)
		<-killed
	})
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		b.ObserveLatency(sel, 0.02)
	}()
	<-entered
	s.Kill()
	close(killed)
	if r := <-done; r != nil {
		t.Fatalf("observation racing Kill panicked: %v", r)
	}
	if tc := b.TrainCount(); tc != 0 {
		t.Fatalf("a signal raised after Kill retrained (train count %d)", tc)
	}
}
