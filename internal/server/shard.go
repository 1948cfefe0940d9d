package baoserver

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"

	"bao/internal/obs"
)

// ShardConfig configures one serving shard of a bao fleet.
type ShardConfig struct {
	// Name identifies the shard in routing tables and the X-Bao-Shard
	// response header. Required.
	Name string
	// Tenants configures the tenant registry (namespace root, factory,
	// residency bounds).
	Tenants TenantOptions
	// DefaultTenant is assumed when a request names no tenant ("" =
	// reject tenant-less requests with 400).
	DefaultTenant string
	// Observer receives fleet metrics and is shared by every tenant
	// server on this shard (nil = obs.Default()).
	Observer *obs.Observer
}

// Shard is a multi-tenant baoserver: an HTTP front door that dispatches
// /v1/* requests to per-tenant Servers held in a TenantRegistry. Each
// tenant keeps the full single-tenant machinery — optimizer, trainer,
// experience log, checkpoint store — in its own durable namespace, so a
// shard is just a residency host: killing it loses nothing that replay
// cannot rebuild elsewhere.
type Shard struct {
	cfg ShardConfig
	o   *obs.Observer
	reg *TenantRegistry

	httpSrv  *http.Server
	ln       net.Listener
	shutOnce sync.Once
}

// NewShard validates cfg and builds the shard. Tenants are not yet
// activated; Start (or ServeHTTP traffic) does that.
func NewShard(cfg ShardConfig) (*Shard, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("baoserver: ShardConfig.Name is required")
	}
	if cfg.Observer == nil {
		cfg.Observer = obs.Default()
	}
	reg, err := NewTenantRegistry(cfg.Tenants, cfg.Observer)
	if err != nil {
		return nil, err
	}
	return &Shard{cfg: cfg, o: cfg.Observer, reg: reg}, nil
}

// Registry exposes the tenant registry for tests and benchmarks.
func (s *Shard) Registry() *TenantRegistry { return s.reg }

// Name returns the shard's configured name.
func (s *Shard) Name() string { return s.cfg.Name }

// Handler returns the shard's HTTP surface:
//
//	/v1/health    liveness/readiness (ready once listening)
//	/v1/tenants   GET resident-tenant listing
//	/v1/drain     POST flush-evict every tenant (pre-shutdown handoff)
//	/v1/evict     POST {"tenant": ...} flush-evict one tenant
//	/v1/*         per-tenant dispatch by X-Bao-Tenant
//	/metrics, /debug/vars  fleet-wide observability
//
// Every response carries X-Bao-Shard so clients and the router can see
// which shard actually served them.
func (s *Shard) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/health", healthHandler(s.probe))
	mux.HandleFunc("/v1/tenants", s.handleTenants)
	mux.HandleFunc("/v1/drain", s.handleDrain)
	mux.HandleFunc("/v1/evict", s.handleEvict)
	mux.HandleFunc("/v1/", s.dispatch)
	mux.Handle("/", obs.Handler(s.o))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Bao-Shard", s.cfg.Name)
		mux.ServeHTTP(w, r)
	})
}

// dispatch resolves the tenant, pins it resident (activating on first
// touch), and forwards to the tenant server's own handler — which
// applies the per-tenant admission gate, timeout, and request-id
// middleware exactly as a single-tenant baoserver would.
func (s *Shard) dispatch(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get("X-Bao-Tenant")
	if tenant == "" {
		tenant = s.cfg.DefaultTenant
	}
	if tenant == "" {
		http.Error(w, "missing X-Bao-Tenant header", http.StatusBadRequest)
		return
	}
	if !ValidTenant(tenant) {
		http.Error(w, "invalid tenant name", http.StatusBadRequest)
		return
	}
	e, err := s.reg.Acquire(r.Context(), tenant)
	if err != nil {
		status := http.StatusInternalServerError
		if r.Context().Err() != nil {
			status = http.StatusServiceUnavailable
		}
		http.Error(w, err.Error(), status)
		return
	}
	defer s.reg.Release(e)
	s.o.TenantRequests.With(tenant).Inc()
	e.handler.ServeHTTP(w, r)
}

// probe builds the shard's health body: ready as soon as it answers,
// since tenants activate on first touch. Durability aggregates over the
// resident tenants: "degraded" when any resident tenant's experience log
// has gone read-only, "ok" otherwise. A degraded tenant never fails the
// probe — the shard still serves selections for it.
func (s *Shard) probe() healthResponse {
	resp := healthResponse{Ready: true, Durability: "ok"}
	if n := s.reg.Degraded(); n > 0 {
		resp.Durability = "degraded"
		resp.Detail = fmt.Sprintf("%d tenant experience logs read-only", n)
	}
	return resp
}

func (s *Shard) handleTenants(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	count, bytes := s.reg.Stats()
	resp := struct {
		Shard    string   `json:"shard"`
		Resident []string `json:"resident"`
		Count    int      `json:"count"`
		Bytes    int64    `json:"bytes"`
	}{s.cfg.Name, s.reg.Resident(), count, bytes}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp) //nolint:errcheck // best effort over HTTP
}

// handleDrain flushes every tenant off the shard. The router calls this
// after it stops routing here, so the namespaces are cleanly synced
// before new owners open them.
func (s *Shard) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	n, err := s.reg.EvictAll(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"evicted\":%d}\n", n)
}

func (s *Shard) handleEvict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req struct {
		Tenant string `json:"tenant"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Tenant == "" {
		http.Error(w, "body must be {\"tenant\": ...}", http.StatusBadRequest)
		return
	}
	evicted := s.reg.EvictTenant(r.Context(), req.Tenant)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"evicted\":%v}\n", evicted)
}

// Start listens on addr and serves in the background. Returns once the
// listener is bound (use Addr).
func (s *Shard) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("baoserver: shard listen: %w", err)
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.Handler()}
	go s.httpSrv.Serve(ln) //nolint:errcheck // Serve always returns on close
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Shard) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully stops the shard: HTTP drains first, then every
// tenant flushes out of residency.
func (s *Shard) Shutdown(ctx context.Context) error {
	var err error
	s.shutOnce.Do(func() {
		if s.httpSrv != nil {
			err = s.httpSrv.Shutdown(ctx)
		}
		if cerr := s.reg.Close(ctx); err == nil {
			err = cerr
		}
	})
	return err
}

// Kill crashes the shard: the listener slams shut and every tenant
// server dies without flushing, exactly as a machine loss would leave
// things. Tenant namespaces are safe to reopen elsewhere once Kill
// returns (every tenant trainer has drained).
func (s *Shard) Kill() {
	s.shutOnce.Do(func() {
		if s.httpSrv != nil {
			s.httpSrv.Close() //nolint:errcheck // abrupt by design
		}
		s.reg.Kill()
	})
}
