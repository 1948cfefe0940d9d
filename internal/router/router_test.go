package baorouter

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"bao/internal/core"
	"bao/internal/engine"
	"bao/internal/obs"
	baoserver "bao/internal/server"
	"bao/internal/workload"
)

const microSQL = "SELECT COUNT(*) FROM orders o, users u WHERE o.user_id = u.id AND u.id < 5"

// microFactory builds cheap per-tenant optimizers over the Micro
// workload — the same shape cmd/baorouter's -local mode uses.
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

// fleet is an in-process router + shards test fixture sharing one
// tenant namespace root, so any shard can rebuild any tenant.
type fleet struct {
	router *Router
	shards map[string]*baoserver.Shard
	base   string // router base URL
}

// newTestFleet starts n shards over a shared namespace dir and a router
// in front of them. Health polling is off: failover must work from
// transport errors alone, which also keeps the tests deterministic.
func newTestFleet(t *testing.T, n, workers int, mutate func(*RouterConfig)) *fleet {
	t.Helper()
	dir := t.TempDir()
	f := &fleet{shards: map[string]*baoserver.Shard{}}
	var infos []ShardInfo
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("shard-%d", i)
		o := obs.NewObserver(obs.NewRegistry(), nil)
		s, err := baoserver.NewShard(baoserver.ShardConfig{
			Name: name,
			Tenants: baoserver.TenantOptions{
				Dir:    dir,
				NewBao: microFactory(o, workers),
				// A tiny segment bound so the chaos drill exercises
				// rotation and snapshot compaction within its short
				// streams, keeping activation replay O(tail).
				Server: baoserver.Config{SegmentBytes: 2 << 10},
			},
			Observer: o,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		f.shards[name] = s
		infos = append(infos, ShardInfo{Name: name, URL: "http://" + s.Addr()})
	}
	cfg := RouterConfig{Shards: infos, Observer: obs.NewObserver(obs.NewRegistry(), nil)}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	f.router = rt
	f.base = "http://" + rt.Addr()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		rt.Shutdown(ctx) //nolint:errcheck // teardown
		for _, s := range f.shards {
			s.Shutdown(ctx) //nolint:errcheck // chaos tests kill some shards first
		}
	})
	return f
}

// query posts one /v1/query for tenant through the router, returning
// the response and its decoded body.
func (f *fleet) query(t *testing.T, tenant string, hdr map[string]string) (*http.Response, map[string]any) {
	t.Helper()
	body := fmt.Sprintf("{\"sql\": %q}", microSQL)
	req, err := http.NewRequest(http.MethodPost, f.base+"/v1/query", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Bao-Tenant", tenant)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // test read side
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	json.Unmarshal(data, &out) //nolint:errcheck // non-JSON error bodies are fine
	return resp, out
}

// TestRouterTenantResolution covers how a request names its tenant:
// header first, then a "tenant" JSON body field, and a tenant-less
// request is rejected when no default is configured.
func TestRouterTenantResolution(t *testing.T) {
	f := newTestFleet(t, 2, 1, nil)

	resp, out := f.query(t, "acme", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("header tenant: status %d (%v)", resp.StatusCode, out)
	}

	body := fmt.Sprintf("{\"tenant\": \"bodyco\", \"sql\": %q}", microSQL)
	r2, err := http.Post(f.base+"/v1/query", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body) //nolint:errcheck // drain
	r2.Body.Close()              //nolint:errcheck // test read side
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("body tenant: status %d", r2.StatusCode)
	}
	if got, want := r2.Header.Get("X-Bao-Shard"), f.router.Owner("bodyco"); got != want {
		t.Fatalf("body tenant served by %q, ring owner is %q", got, want)
	}

	resp3, _ := f.query(t, "", nil)
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("tenant-less request: status %d, want 400", resp3.StatusCode)
	}
}

// TestRouterDefaultTenant lets legacy single-tenant clients hit a fleet
// unmodified.
func TestRouterDefaultTenant(t *testing.T) {
	f := newTestFleet(t, 2, 1, func(c *RouterConfig) { c.DefaultTenant = "solo" })
	resp, out := f.query(t, "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default tenant: status %d (%v)", resp.StatusCode, out)
	}
	if got, want := resp.Header.Get("X-Bao-Shard"), f.router.Owner("solo"); got != want {
		t.Fatalf("served by %q, owner is %q", got, want)
	}
}

// TestRouterRequestIDAndShardHeaders pins the tracing contract: a
// client-supplied X-Bao-Request-Id survives the router → shard hop and
// comes back on the response; an absent one is minted; and every routed
// response names its shard.
func TestRouterRequestIDAndShardHeaders(t *testing.T) {
	f := newTestFleet(t, 2, 1, nil)

	resp, _ := f.query(t, "acme", map[string]string{"X-Bao-Request-Id": "trace-me-7"})
	if got := resp.Header.Get("X-Bao-Request-Id"); got != "trace-me-7" {
		t.Fatalf("request id not echoed across the hop: %q", got)
	}
	if got := resp.Header.Get("X-Bao-Shard"); got != f.router.Owner("acme") {
		t.Fatalf("X-Bao-Shard = %q, want ring owner %q", got, f.router.Owner("acme"))
	}

	resp2, _ := f.query(t, "acme", nil)
	if got := resp2.Header.Get("X-Bao-Request-Id"); len(got) != 16 {
		t.Fatalf("minted request id %q, want 16 hex chars", got)
	}
}

// TestRouterFailover kills a shard and asserts the very next request
// for one of its tenants lands on a survivor — no health-poll delay,
// the transport error itself demotes the shard and rehashes.
func TestRouterFailover(t *testing.T) {
	f := newTestFleet(t, 2, 1, nil)
	// Find a tenant owned by shard-0 so the kill is guaranteed relevant.
	tenant := ""
	for i := 0; i < 100; i++ {
		tn := fmt.Sprintf("tenant-%d", i)
		if f.router.Owner(tn) == "shard-0" {
			tenant = tn
			break
		}
	}
	if tenant == "" {
		t.Fatal("no tenant hashed to shard-0 in 100 tries")
	}
	if resp, out := f.query(t, tenant, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-kill query: status %d (%v)", resp.StatusCode, out)
	}

	f.shards["shard-0"].Kill()
	resp, out := f.query(t, tenant, nil)
	if resp.StatusCode == http.StatusBadGateway {
		// The first post-crash POST may ride a stale pooled connection;
		// the mid-exchange error demotes the shard but is not replayed
		// (POST is not idempotent — a replay could double-append
		// experience), so the client retries, landing on the survivor.
		resp, out = f.query(t, tenant, nil)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover query: status %d (%v)", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-Bao-Shard"); got != "shard-1" {
		t.Fatalf("failover served by %q, want shard-1", got)
	}
	if got := f.router.Owner(tenant); got != "shard-1" {
		t.Fatalf("ring still routes %s to %q after failover", tenant, got)
	}

	var fleetResp struct {
		Shards []struct {
			Name    string `json:"name"`
			Healthy bool   `json:"healthy"`
		} `json:"shards"`
	}
	r, err := http.Get(f.base + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close() //nolint:errcheck // test read side
	if err := json.NewDecoder(r.Body).Decode(&fleetResp); err != nil {
		t.Fatal(err)
	}
	for _, s := range fleetResp.Shards {
		if s.Name == "shard-0" && s.Healthy {
			t.Fatal("dead shard still reported healthy")
		}
	}
}

// TestRouterDrain exercises planned rebalancing: draining a shard stops
// routing to it and flushes its tenants, whose next request activates
// them — log replayed, checkpoint restored — on the survivor.
func TestRouterDrain(t *testing.T) {
	f := newTestFleet(t, 2, 1, nil)
	tenant := ""
	for i := 0; i < 100; i++ {
		tn := fmt.Sprintf("tenant-%d", i)
		if f.router.Owner(tn) == "shard-0" {
			tenant = tn
			break
		}
	}
	if tenant == "" {
		t.Fatal("no tenant hashed to shard-0")
	}
	// Warm the tenant on shard-0 with enough traffic to fill a window.
	for i := 0; i < 5; i++ {
		if resp, out := f.query(t, tenant, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm query %d: status %d (%v)", i, resp.StatusCode, out)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := f.router.Drain(ctx, "shard-0"); err != nil {
		t.Fatal(err)
	}
	if reg := f.shards["shard-0"].Registry(); len(reg.Resident()) != 0 {
		t.Fatalf("drained shard still has residents: %v", reg.Resident())
	}
	resp, out := f.query(t, tenant, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain query: status %d (%v)", resp.StatusCode, out)
	}
	if got := resp.Header.Get("X-Bao-Shard"); got != "shard-1" {
		t.Fatalf("post-drain served by %q, want shard-1", got)
	}
	// The survivor rehydrated the tenant from its namespace: the drained
	// traffic is in its replayed window (5 warm + 1 post-drain ≥ 6).
	srv := f.shards["shard-1"].Registry().Peek(tenant)
	if srv == nil {
		t.Fatal("tenant not resident on survivor after post-drain query")
	}
	if got := srv.Bao().ExperienceSize(); got < 6 {
		t.Fatalf("survivor window has %d experiences, want ≥6 (replay lost the drained history)", got)
	}
}
