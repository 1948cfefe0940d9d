package baoserver

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"bao/internal/core"
	"bao/internal/guard"
	"bao/internal/model"
	"bao/internal/nn"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// driveQueries posts n /v1/query requests.
func driveQueries(t *testing.T, base string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var qr queryResponse
		if code := postJSON(t, base+"/v1/query", selectRequest{SQL: testSQL}, &qr); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
}

// newestCheckpoint returns the highest generation on disk.
func newestCheckpoint(t *testing.T, st *guard.CheckpointStore) uint64 {
	t.Helper()
	gens, err := st.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) == 0 {
		return 0
	}
	return gens[len(gens)-1]
}

// TestModelUploadForeignWidthRejected: POST /v1/model with a well-formed
// snapshot of a model built for another feature width must answer 400,
// publish nothing and checkpoint nothing — installed, it would fail every
// plan-cache miss, and its checkpoint would bring it back on restart —
// while /v1/select keeps answering with the incumbent model.
func TestModelUploadForeignWidthRejected(t *testing.T) {
	s := newTestServer(t, Config{CheckpointDir: t.TempDir()}, nil)
	base := "http://" + s.Addr()
	driveQueries(t, base, 16)
	waitFor(t, "first checkpoint", func() bool { return newestCheckpoint(t, s.Checkpoints()) >= 1 })

	trees := make([]*nn.Tree, 20)
	secs := make([]float64, len(trees))
	for i := range trees {
		tr := nn.NewTree(3, 4)
		tr.Left[0], tr.Right[0] = 1, 2
		for j := range tr.Feat {
			tr.Feat[j] = float64((i*7+j)%10) / 10
		}
		trees[i], secs[i] = tr, 0.01*float64(1+i%5)
	}
	tc := nn.DefaultTrainConfig()
	tc.MaxEpochs = 2
	narrow := model.NewTCNN(4, tc, 1)
	narrow.Fit(trees, secs)
	var snap bytes.Buffer
	if err := narrow.Save(&snap); err != nil {
		t.Fatal(err)
	}

	gensBefore, err := s.Checkpoints().Generations()
	if err != nil {
		t.Fatal(err)
	}
	var before statusResponse
	getJSON(t, base+"/v1/status", &before)
	resp, err := http.Post(base+"/v1/model", "application/octet-stream", &snap)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("foreign-width model upload: status %d, want 400", resp.StatusCode)
	}
	gensAfter, err := s.Checkpoints().Generations()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gensAfter, gensBefore) {
		t.Fatalf("rejected upload changed the checkpoint generations: %v -> %v", gensBefore, gensAfter)
	}
	var after statusResponse
	getJSON(t, base+"/v1/status", &after)
	if after.ModelVersion != before.ModelVersion || after.ModelGeneration != before.ModelGeneration {
		t.Fatalf("rejected upload moved the model: version %d -> %d, generation %d -> %d",
			before.ModelVersion, after.ModelVersion, before.ModelGeneration, after.ModelGeneration)
	}
	for _, sql := range []string{testSQL, strings.Replace(testSQL, "1990", "1975", 1)} {
		var sel selectResponse
		if code := postJSON(t, base+"/v1/select", selectRequest{SQL: sql}, &sel); code != http.StatusOK {
			t.Fatalf("select after rejected upload: status %d", code)
		}
		if !sel.UsedModel {
			t.Fatal("select after rejected upload did not use the model")
		}
	}
}

// TestCheckpointRestartRollback is the crash-restart test over the
// checkpoint directory: a server trains through two checkpoint
// generations and "crashes" (shuts down); the newest generation is
// corrupted on disk; a restarted server over the same directories must
// roll back to the older generation, replay its experience window from
// the durable log, surface the rollback on /v1/status, and write its next
// checkpoint under a generation number past the corrupt one — never
// reusing it.
func TestCheckpointRestartRollback(t *testing.T) {
	dir := t.TempDir()
	scfg := Config{
		CheckpointDir: filepath.Join(dir, "ckpt"),
		LogPath:       filepath.Join(dir, "exp.log"),
	}

	s1 := newTestServer(t, scfg, nil)
	base := "http://" + s1.Addr()
	driveQueries(t, base, 16)
	waitFor(t, "first checkpoint", func() bool { return newestCheckpoint(t, s1.Checkpoints()) >= 1 })
	driveQueries(t, base, 16)
	waitFor(t, "second checkpoint", func() bool { return newestCheckpoint(t, s1.Checkpoints()) >= 2 })
	replayWant := s1.Bao().ExperienceSize()
	shutdownServer(t, s1)

	// Corrupt the newest generation: flip a payload byte (survives the
	// rename-atomicity guarantee, so only the CRC can catch it).
	gens, err := s1.Checkpoints().Generations()
	if err != nil {
		t.Fatal(err)
	}
	newest := gens[len(gens)-1]
	path := filepath.Join(scfg.CheckpointDir, checkpointFileName(newest))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart: the corrupt newest generation must be rolled back past.
	s2 := newTestServer(t, scfg, nil)
	base2 := "http://" + s2.Addr()
	if !s2.Bao().Trained() {
		t.Fatal("restarted server did not restore a model from the surviving checkpoint")
	}
	if got := s2.Bao().ExperienceSize(); got != replayWant {
		t.Fatalf("replayed window = %d, want %d", got, replayWant)
	}
	var st statusResponse
	if code := getJSON(t, base2+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.CheckpointRollbacks != 1 {
		t.Fatalf("checkpoint_rollbacks = %d, want 1", st.CheckpointRollbacks)
	}
	if st.ModelGeneration != newest-1 {
		t.Fatalf("model_generation = %d, want %d (the surviving generation)", st.ModelGeneration, newest-1)
	}

	// The next accepted retrain must checkpoint past the corrupt
	// generation, not overwrite it.
	driveQueries(t, base2, 16)
	waitFor(t, "post-rollback checkpoint", func() bool {
		return newestCheckpoint(t, s2.Checkpoints()) > newest
	})
}

// checkpointFileName mirrors the store's naming so the test can corrupt a
// specific generation on disk.
func checkpointFileName(gen uint64) string {
	return fmt.Sprintf("model-%016d.ckpt", gen)
}

// shutdownServer shuts a server down immediately (the registered cleanup
// is idempotent).
func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRejectedCandidateKeepsIncumbent: with the validation gate on, an
// injected NaN fit on the second retrain attempt is rejected — the
// incumbent keeps serving, the rejection is counted on /v1/status, and
// the serving loop never notices.
func TestRejectedCandidateKeepsIncumbent(t *testing.T) {
	s := newTestServer(t, Config{}, func(cfg *core.Config) {
		cfg.Validate = guard.ValidateConfig{Enabled: true}
		cfg.Fault = &guard.Fault{NaNOnFit: 2}
	})
	base := "http://" + s.Addr()
	driveQueries(t, base, 16)
	waitTrainCount(t, s.Bao(), 1)
	driveQueries(t, base, 16)
	waitFor(t, "candidate rejection", func() bool {
		return s.Bao().Observer().RetrainRejected.Value() >= 1
	})

	if !s.Bao().Trained() {
		t.Fatal("incumbent lost after a rejected candidate")
	}
	var st statusResponse
	if code := getJSON(t, base+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.RetrainRejected != 1 {
		t.Fatalf("retrain_rejected = %d, want 1", st.RetrainRejected)
	}
	// Serving continues on the incumbent.
	var qr queryResponse
	if code := postJSON(t, base+"/v1/query", selectRequest{SQL: testSQL}, &qr); code != http.StatusOK {
		t.Fatalf("post-rejection query: status %d", code)
	}
}

// TestTrainerPanicTripsBreakerAndServerStaysUp: an injected panic in the
// first fit is recovered into a breaker model-failure (here tuned to trip
// immediately); the server keeps serving — on the default arm — and
// reports the outage on /v1/status.
func TestTrainerPanicTripsBreakerAndServerStaysUp(t *testing.T) {
	s := newTestServer(t, Config{}, func(cfg *core.Config) {
		cfg.Fault = &guard.Fault{PanicOnFit: 1}
		cfg.Breaker = guard.BreakerConfig{
			Enabled:       true,
			ModelFailures: 1, // first trainer panic trips
			Cooldown:      4,
		}
	})
	base := "http://" + s.Addr()
	driveQueries(t, base, 16)
	waitFor(t, "trainer panic", func() bool {
		return s.Bao().Observer().TrainerPanics.Value() >= 1
	})

	if s.Bao().Trained() {
		t.Fatal("panicked fit produced a model")
	}
	if s.Bao().Breaker().State() != guard.Open {
		t.Fatalf("breaker = %v after trainer panic with ModelFailures=1, want Open", s.Bao().Breaker().State())
	}
	var st statusResponse
	if code := getJSON(t, base+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.BreakerState != "open" || st.BreakerTrips != 1 {
		t.Fatalf("status breaker = %q/%d, want open/1", st.BreakerState, st.BreakerTrips)
	}
	// The server still serves — default plans — through the outage.
	var qr queryResponse
	if code := postJSON(t, base+"/v1/query", selectRequest{SQL: testSQL}, &qr); code != http.StatusOK {
		t.Fatalf("query during outage: status %d", code)
	}
	if qr.ArmID != 0 {
		t.Fatalf("outage query served arm %d, want default arm 0", qr.ArmID)
	}
}

// TestMetricsExposeGuardSeries: the guard metrics are registered and
// rendered on /metrics, and /v1/status reports a closed breaker by name.
func TestMetricsExposeGuardSeries(t *testing.T) {
	s := newTestServer(t, Config{CheckpointDir: t.TempDir()}, func(cfg *core.Config) {
		cfg.Breaker = guard.BreakerConfig{Enabled: true}
	})
	base := "http://" + s.Addr()

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, m := range []string{
		"bao_breaker_state",
		"bao_breaker_trips_total",
		"bao_breaker_default_served_total",
		"bao_model_generation",
		"bao_retrain_rejected_total",
		"bao_checkpoints_saved_total",
		"bao_checkpoint_rollbacks_total",
		"bao_nonfinite_targets_total",
		"bao_nonfinite_predictions_total",
		"bao_trainer_panics_total",
		"bao_planner_panics_total",
	} {
		if !strings.Contains(body, m) {
			t.Fatalf("/metrics missing %s", m)
		}
	}

	var st statusResponse
	if code := getJSON(t, base+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.BreakerState != "closed" {
		t.Fatalf("breaker_state = %q, want closed", st.BreakerState)
	}
}
