package baoserver

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bao/internal/core"
	"bao/internal/engine"
	"bao/internal/obs"
	"bao/internal/workload"
)

// microSQL joins the Micro workload's two tables — enough plan-space for
// arm choice to be real without IMDb-scale setup cost per tenant.
const microSQL = "SELECT COUNT(*) FROM orders o, users u WHERE o.user_id = u.id AND u.id < 5"

// microFactory returns a TenantOptions.NewBao building cheap per-tenant
// optimizers over the Micro workload, all sharing one observer (the
// shard arrangement).
func microFactory(o *obs.Observer, workers int) func(string) (*core.Bao, error) {
	return func(tenant string) (*core.Bao, error) {
		e := engine.New(engine.GradePostgreSQL, 256)
		inst := workload.Micro(workload.Config{Scale: 1, Queries: 1, Seed: 42})
		if err := inst.Setup(e); err != nil {
			return nil, err
		}
		cfg := core.FastConfig()
		cfg.Arms = core.TopArms(3)
		cfg.ArmWarmup = 0
		cfg.RetrainEvery = 8
		cfg.Train.MaxEpochs = 2
		cfg.Train.Workers = workers
		cfg.Observer = o
		return core.New(e, cfg), nil
	}
}

// queryTenant runs one /v1/query through a pinned tenant's handler
// in-process and reports the HTTP status.
func queryTenant(e *tenantEntry) int {
	req := httptest.NewRequest(http.MethodPost, "/v1/query",
		strings.NewReader(fmt.Sprintf("{\"sql\": %q}", microSQL)))
	rec := httptest.NewRecorder()
	e.handler.ServeHTTP(rec, req)
	return rec.Code
}

// TestTenantConcurrentActivationEvictionRace hammers a registry whose
// residency bound (2) is far below its tenant count (5) with concurrent
// query traffic, so activations, evictions, and requests race
// constantly. The correctness claim under test: eviction flushes a
// tenant's explog before releasing residency, so after the storm every
// tenant's replayed experience covers every acknowledged query — nothing
// an eviction raced away.
func TestTenantConcurrentActivationEvictionRace(t *testing.T) {
	o := obs.NewObserver(obs.NewRegistry(), nil)
	reg, err := NewTenantRegistry(TenantOptions{
		Dir:         t.TempDir(),
		NewBao:      microFactory(o, 2),
		MaxResident: 2,
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	const tenants = 5
	const goroutines = 8
	const perG = 12
	var acked [tenants]atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ti := (g + i) % tenants
				e, err := reg.Acquire(ctx, fmt.Sprintf("tenant-%d", ti))
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				if queryTenant(e) == http.StatusOK {
					acked[ti].Add(1)
				}
				reg.Release(e)
			}
		}(g)
	}
	wg.Wait()

	if n, _ := reg.Stats(); n > 2 {
		t.Fatalf("resident count %d exceeds bound 2 at quiesce", n)
	}
	// Flush everyone out, then rehydrate each tenant purely from its
	// namespace: the replayed window must cover every acked query.
	if _, err := reg.EvictAll(ctx); err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < tenants; ti++ {
		name := fmt.Sprintf("tenant-%d", ti)
		e, err := reg.Acquire(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		got := e.srv.Bao().ExperienceSize()
		if want := int(acked[ti].Load()); got < want {
			t.Errorf("%s: replayed experience %d < %d acked queries (eviction lost frames)", name, got, want)
		}
		replayed, skipped := e.srv.Log().Replayed()
		if skipped != 0 {
			t.Errorf("%s: %d corrupt frames skipped after clean evictions", name, skipped)
		}
		if replayed == 0 && acked[ti].Load() > 0 {
			t.Errorf("%s: nothing replayed despite %d acked queries", name, acked[ti].Load())
		}
		reg.Release(e)
	}
	if err := reg.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestTenantEvictionWaitsForPins verifies a pinned tenant is never
// evicted: the bound is exceeded transiently instead, and eviction
// proceeds once the pin drops.
func TestTenantEvictionWaitsForPins(t *testing.T) {
	o := obs.NewObserver(obs.NewRegistry(), nil)
	reg, err := NewTenantRegistry(TenantOptions{
		Dir:         t.TempDir(),
		NewBao:      microFactory(o, 1),
		MaxResident: 1,
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a, err := reg.Acquire(ctx, "pinned")
	if err != nil {
		t.Fatal(err)
	}
	// Activating a second tenant overflows the bound, but the only
	// candidate is pinned — both must stay resident.
	b, err := reg.Acquire(ctx, "other")
	if err != nil {
		t.Fatal(err)
	}
	reg.Release(b)
	if reg.Peek("pinned") == nil {
		t.Fatal("pinned tenant was evicted while acquired")
	}
	reg.Release(a)
	reg.Release(mustAcquire(t, reg, "third")) // trigger enforcement past the bound
	if n, _ := reg.Stats(); n > 1 {
		t.Fatalf("resident count %d exceeds bound 1 after pins released", n)
	}
	if err := reg.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestTenantKillActivationRace hammers the crash path against in-flight
// activations: Kill snapshots entries whose activation has not finished
// and must tear each down exactly once — the old code could close a
// tenant's gone channel from both Kill and the activation's own
// teardown, panicking with "close of closed channel" precisely in the
// chaos scenario Kill exists for. The test passes by not panicking and
// by leaving every namespace reopenable (fences released).
func TestTenantKillActivationRace(t *testing.T) {
	for round := 0; round < 8; round++ {
		o := obs.NewObserver(obs.NewRegistry(), nil)
		inner := microFactory(o, 1)
		factory := func(tenant string) (*core.Bao, error) {
			time.Sleep(time.Duration(1+round%3) * time.Millisecond) // widen the race window
			return inner(tenant)
		}
		reg, err := NewTenantRegistry(TenantOptions{
			Dir:    t.TempDir(),
			NewBao: factory,
		}, o)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				e, err := reg.Acquire(context.Background(), fmt.Sprintf("racer-%d", g))
				if err != nil {
					return // losing to Kill is fine; panicking is not
				}
				reg.Release(e)
			}(g)
		}
		time.Sleep(time.Duration(round%4) * time.Millisecond)
		reg.Kill()
		wg.Wait()
		// Every fence must be released: a fresh registry over the same
		// dirs (per-round TempDir) would block otherwise — asserted
		// implicitly by TestTenantNamespaceFencing's Kill leg; here the
		// absence of a panic under -race is the claim.
	}
}

func mustAcquire(t *testing.T, reg *TenantRegistry, name string) *tenantEntry {
	t.Helper()
	e, err := reg.Acquire(context.Background(), name)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestServerHealthEndpoint covers the single-tenant server's probe: a
// server that finished New (replay + rollback done) is ready, the
// liveness flavor agrees, and a server that is not ready yet is live
// with a 503 readiness.
func TestServerHealthEndpoint(t *testing.T) {
	s := newTestServer(t, Config{}, nil)
	base := "http://" + s.Addr()
	var h healthResponse
	if code := getJSON(t, base+"/v1/health", &h); code != http.StatusOK {
		t.Fatalf("readiness: code %d", code)
	}
	if !h.Live || !h.Ready {
		t.Fatalf("health = %+v, want live and ready", h)
	}
	if code := getJSON(t, base+"/v1/health?probe=live", &h); code != http.StatusOK || !h.Live {
		t.Fatalf("liveness: code %d, %+v", code, h)
	}
	// Live but not ready (startup durability work still running) is what
	// keeps the router's health checker from sending traffic: readiness
	// answers 503, liveness still 200.
	s.ready.Store(false)
	defer s.ready.Store(true)
	if code := getJSON(t, base+"/v1/health", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readiness while not ready: code %d, want 503", code)
	}
	if code := getJSON(t, base+"/v1/health?probe=live", &h); code != http.StatusOK || !h.Live {
		t.Fatalf("liveness while not ready: code %d, %+v", code, h)
	}
}
