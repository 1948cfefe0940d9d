package baoserver

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"bao/internal/core"
)

// Concurrent selects with the plan cache enabled, racing the trainer's
// hot-swaps: every response must stay well-formed, the cache must both
// hit and invalidate (model publications flush it), and the
// generation/version linkage must hold — run under -race in CI.
func TestServerPlanCacheConcurrentHotSwap(t *testing.T) {
	s := newTestServer(t, Config{CheckpointDir: t.TempDir()}, func(c *core.Config) {
		c.PlanCache = true
		c.PlanCacheSize = 64
		c.RetrainEvery = 12
	})
	base := "http://" + s.Addr()

	shapes := make([]string, 4)
	for i := range shapes {
		shapes[i] = fmt.Sprintf(
			"SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id AND t.production_year > %d",
			1950+10*i)
	}
	const clients, rounds = 8, 25
	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var sel selectResponse
				if code := postJSON(t, base+"/v1/select",
					selectRequest{SQL: shapes[(c+r)%len(shapes)]}, &sel); code != http.StatusOK {
					errs <- fmt.Sprintf("client %d round %d: select status %d", c, r, code)
					return
				}
				if sel.UniquePlans < 1 {
					errs <- fmt.Sprintf("client %d round %d: empty selection", c, r)
					return
				}
				if code := postJSON(t, base+"/v1/observe", map[string]any{
					"selection_id": sel.SelectionID,
					"secs":         0.01 + float64(c%3)*0.01,
				}, nil); code != http.StatusOK {
					errs <- fmt.Sprintf("client %d round %d: observe status %d", c, r, code)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	waitTrainCount(t, s.bao, 1)

	var st statusResponse
	if code := getJSON(t, base+"/v1/status", &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.PlanCacheHits == 0 {
		t.Fatal("repeated shapes never hit the plan cache")
	}
	if st.PlanCacheEntries > 64 {
		t.Fatalf("plan cache holds %d entries, cap is 64", st.PlanCacheEntries)
	}
	// Model publications and checkpoint generations move in lockstep: every
	// accepted retrain bumps the version (flushing the cache) and writes a
	// generation. A version of zero here would mean selections could have
	// served predictions across a swap unnoticed.
	if st.ModelVersion == 0 {
		t.Fatal("retrains landed but the model version never advanced")
	}
	if st.ModelGeneration == 0 {
		t.Fatal("retrains landed but no checkpoint generation was written")
	}
	if st.ModelVersion < st.ModelGeneration {
		t.Fatalf("model version %d behind checkpoint generation %d: a cached prediction could outlive its model",
			st.ModelVersion, st.ModelGeneration)
	}
}

// Hot-swapping a model through POST /v1/model must bump the version, bump
// the checkpoint generation, and flush the plan cache, so the next repeat
// of a cached shape re-predicts under the restored model.
func TestServerPlanCacheModelPostFlushes(t *testing.T) {
	s := newTestServer(t, Config{CheckpointDir: t.TempDir()}, func(c *core.Config) {
		c.PlanCache = true
	})
	base := "http://" + s.Addr()

	// Train through the serving loop first (GET /v1/model 409s untrained);
	// the retrain flushes whatever these selections cached. Exactly
	// RetrainEvery observations raise exactly one retrain signal: one
	// more, landing while the first fit runs, would schedule a second
	// retrain that could publish between the two status reads below.
	for i := 0; i < s.bao.Cfg.RetrainEvery; i++ {
		var sel selectResponse
		if code := postJSON(t, base+"/v1/select", selectRequest{SQL: testSQL}, &sel); code != http.StatusOK {
			t.Fatalf("warm-up select %d: status %d", i, code)
		}
		if code := postJSON(t, base+"/v1/observe", map[string]any{
			"selection_id": sel.SelectionID, "secs": 0.01,
		}, nil); code != http.StatusOK {
			t.Fatalf("warm-up observe %d: status %d", i, code)
		}
	}
	waitTrainCount(t, s.bao, 1)

	for i := 0; i < 2; i++ {
		var sel selectResponse
		if code := postJSON(t, base+"/v1/select", selectRequest{SQL: testSQL}, &sel); code != http.StatusOK {
			t.Fatalf("select %d: status %d", i, code)
		}
	}
	var before statusResponse
	getJSON(t, base+"/v1/status", &before)
	if before.PlanCacheEntries == 0 {
		t.Fatal("selects did not populate the plan cache")
	}
	if before.PlanCacheHits == 0 {
		t.Fatal("repeat select did not hit the plan cache")
	}

	// Round-trip the current model through the hot-swap endpoint.
	resp, err := http.Get(base + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("model download: %v status %d", err, resp.StatusCode)
	}
	post, err := http.Post(base+"/v1/model", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusOK {
		t.Fatalf("model upload: status %d", post.StatusCode)
	}

	var after statusResponse
	getJSON(t, base+"/v1/status", &after)
	if after.ModelVersion != before.ModelVersion+1 {
		t.Fatalf("model version %d after swap, want %d", after.ModelVersion, before.ModelVersion+1)
	}
	if after.ModelGeneration <= before.ModelGeneration {
		t.Fatalf("checkpoint generation did not advance (%d -> %d)",
			before.ModelGeneration, after.ModelGeneration)
	}
	if after.PlanCacheEntries != 0 {
		t.Fatalf("plan cache holds %d entries after a hot-swap, want 0", after.PlanCacheEntries)
	}
	missesBefore := after.PlanCacheMisses
	var sel selectResponse
	if code := postJSON(t, base+"/v1/select", selectRequest{SQL: testSQL}, &sel); code != http.StatusOK {
		t.Fatalf("post-swap select: status %d", code)
	}
	var final statusResponse
	getJSON(t, base+"/v1/status", &final)
	if final.PlanCacheMisses != missesBefore+1 {
		t.Fatalf("post-swap select did not miss (misses %d -> %d)", missesBefore, final.PlanCacheMisses)
	}
}
