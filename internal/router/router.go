package baorouter

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"bao/internal/obs"
)

// ShardInfo names one shard and where to reach it.
type ShardInfo struct {
	Name string `json:"name"`
	URL  string `json:"url"` // base URL, e.g. http://10.0.0.7:2332
}

// RouterConfig configures the fleet front door.
type RouterConfig struct {
	// Shards is the initial fleet membership. Required, non-empty.
	Shards []ShardInfo
	// DefaultTenant is assumed when a request names no tenant ("" =
	// reject with 400). Lets single-tenant clients talk to a fleet
	// unmodified.
	DefaultTenant string
	// Client issues shard requests (nil = a client with a 30s timeout).
	Client *http.Client
	// HealthInterval is the readiness-poll period for marking dead
	// shards down and recovered shards back up (0 = disabled; transport
	// errors still fail shards over immediately, so the poller is a
	// recovery mechanism, not a liveness dependency).
	HealthInterval time.Duration
	// Observer receives router metrics (nil = obs.Default()).
	Observer *obs.Observer
}

// maxBodyBytes bounds how much request body the router buffers for
// failover replay. Larger bodies are rejected with 413.
const maxBodyBytes = 1 << 20

// shardState tracks one shard's reachability and administrative state.
type shardState struct {
	info ShardInfo
	down bool
	// draining marks an operator decision (Drain) that outlives health
	// probes: the shard may answer 200 — its readiness stays true after
	// a drain — but it is being decommissioned, so
	// the health poller must not re-admit it. Only an explicit MarkUp
	// clears it.
	draining bool
}

// Router consistent-hashes tenants onto shards and reverse-proxies
// /v1/* traffic to the owner, buffering request bodies so a transport
// failure can fail over to the tenant's next owner on the rehashed ring
// within the same client request. It mints or forwards X-Bao-Request-Id
// so one ID traces the client → router → shard → optimizer path, and
// every response carries X-Bao-Shard naming who actually served it.
type Router struct {
	cfg    RouterConfig
	o      *obs.Observer
	ring   *Ring
	client *http.Client

	mu     sync.Mutex
	shards map[string]*shardState

	httpSrv    *http.Server
	ln         net.Listener
	shutOnce   sync.Once
	stopHealth chan struct{}
}

// New validates cfg and builds a router with every shard initially up.
func New(cfg RouterConfig) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("baorouter: at least one shard is required")
	}
	if cfg.Client == nil {
		// The default transport keeps only 2 idle connections per host,
		// which makes every concurrent burst re-dial the shard; a proxy
		// lives or dies on connection reuse.
		cfg.Client = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	if cfg.Observer == nil {
		cfg.Observer = obs.Default()
	}
	r := &Router{
		cfg:        cfg,
		o:          cfg.Observer,
		ring:       NewRing(),
		client:     cfg.Client,
		shards:     map[string]*shardState{},
		stopHealth: make(chan struct{}),
	}
	for _, si := range cfg.Shards {
		if si.Name == "" || si.URL == "" {
			return nil, fmt.Errorf("baorouter: shard needs name and url: %+v", si)
		}
		if _, dup := r.shards[si.Name]; dup {
			return nil, fmt.Errorf("baorouter: duplicate shard name %q", si.Name)
		}
		r.shards[si.Name] = &shardState{info: si}
		r.ring.Add(si.Name)
	}
	r.o.RouterHealthy.Set(float64(len(cfg.Shards)))
	return r, nil
}

// Owner returns the shard currently owning tenant ("" if none healthy).
func (rt *Router) Owner(tenant string) string { return rt.ring.Owner(tenant) }

// MarkDown removes a shard from rotation, rehashing its tenants onto
// the survivors. Idempotent.
func (rt *Router) MarkDown(name string) {
	rt.mu.Lock()
	s := rt.shards[name]
	if s == nil || s.down {
		rt.mu.Unlock()
		return
	}
	s.down = true
	rt.mu.Unlock()
	rt.ring.Remove(name)
	rt.o.RouterRehashes.Inc()
	rt.o.RouterHealthy.Set(float64(rt.ring.Len()))
}

// MarkUp returns a shard to rotation, rehashing its tenants back. This
// is the operator action that also ends a Drain: it clears the draining
// flag, so a passing health probe can never undo a drain on its own.
// Idempotent.
func (rt *Router) MarkUp(name string) {
	rt.mu.Lock()
	if s := rt.shards[name]; s != nil {
		s.draining = false
	}
	rt.mu.Unlock()
	rt.markUpFromProbe(name)
}

// markUpFromProbe promotes a shard back into the ring unless it is
// draining — the health poller's re-admission path, which must never
// override an operator's drain.
func (rt *Router) markUpFromProbe(name string) {
	rt.mu.Lock()
	s := rt.shards[name]
	if s == nil || s.draining || !s.down {
		rt.mu.Unlock()
		return
	}
	s.down = false
	rt.mu.Unlock()
	rt.ring.Add(name)
	rt.o.RouterRehashes.Inc()
	rt.o.RouterHealthy.Set(float64(rt.ring.Len()))
}

// Drain removes a shard from rotation, then asks it to flush every
// resident tenant so their namespaces are cleanly synced before the
// survivors activate them. This is planned rebalancing; MarkDown alone
// is the unplanned (crash) path, where replay absorbs the missing flush.
// The shard stays out of rotation — even if its health probe passes —
// until an explicit MarkUp, which is what ends the drain.
func (rt *Router) Drain(ctx context.Context, name string) error {
	rt.mu.Lock()
	s := rt.shards[name]
	if s != nil {
		s.draining = true
	}
	rt.mu.Unlock()
	if s == nil {
		return fmt.Errorf("baorouter: unknown shard %q", name)
	}
	rt.MarkDown(name)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.info.URL+"/v1/drain", nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return fmt.Errorf("baorouter: drain %s: %w", name, err)
	}
	defer resp.Body.Close() //nolint:errcheck // read-side close
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("baorouter: drain %s: %s: %s", name, resp.Status, bytes.TrimSpace(body))
	}
	return nil
}

// Handler returns the router's HTTP surface:
//
//	/v1/health  router liveness/readiness (ready while ≥1 shard healthy)
//	/v1/fleet   GET fleet membership and health
//	/v1/*       tenant-routed proxy to the owning shard
//	/metrics    router metrics
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/health", rt.handleHealth)
	mux.HandleFunc("/v1/fleet", rt.handleFleet)
	mux.HandleFunc("/v1/", rt.proxy)
	mux.Handle("/", obs.Handler(rt.o))
	return mux
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	healthy := rt.ring.Len()
	resp := struct {
		Live    bool   `json:"live"`
		Ready   bool   `json:"ready"`
		Healthy int    `json:"healthy_shards"`
		Detail  string `json:"detail,omitempty"`
	}{Live: true, Ready: healthy > 0, Healthy: healthy}
	if !resp.Ready {
		resp.Detail = "no healthy shards"
	}
	w.Header().Set("Content-Type", "application/json")
	if r.URL.Query().Get("probe") != "live" && !resp.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(resp) //nolint:errcheck // best effort over HTTP
}

func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	type row struct {
		Name     string `json:"name"`
		URL      string `json:"url"`
		Healthy  bool   `json:"healthy"`
		Draining bool   `json:"draining,omitempty"`
	}
	rt.mu.Lock()
	rows := make([]row, 0, len(rt.shards))
	for _, s := range rt.shards {
		rows = append(rows, row{s.info.Name, s.info.URL, !s.down, s.draining})
	}
	rt.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct { //nolint:errcheck // best effort over HTTP
		Shards []row `json:"shards"`
	}{rows})
}

// tenantOf resolves the request's tenant: header, then a "tenant" field
// in a JSON body, then the configured default.
func (rt *Router) tenantOf(r *http.Request, body []byte) string {
	if t := r.Header.Get("X-Bao-Tenant"); t != "" {
		return t
	}
	if len(body) > 0 && body[0] == '{' {
		var peek struct {
			Tenant string `json:"tenant"`
		}
		if json.Unmarshal(body, &peek) == nil && peek.Tenant != "" {
			return peek.Tenant
		}
	}
	return rt.cfg.DefaultTenant
}

// statusClientClosedRequest mirrors nginx's 499: the client went away
// (or its deadline fired) before the shard answered. Distinct from 502
// so dashboards never conflate impatient clients with dead shards.
const statusClientClosedRequest = 499

// proxy forwards one /v1/* request to the tenant's owning shard. The
// body is buffered up front so a dial failure — the one transport error
// that proves the shard never saw the request — can mark the shard
// down, rehash, and replay the identical request against the next owner
// within the same client call. Errors caused by the client's own
// context (disconnect, deadline) or by a merely-slow shard (the proxy
// client's timeout) never demote anyone: a cancelled request must not
// be able to empty the ring. A failure mid-exchange demotes the shard
// but replays only idempotent methods, because the shard may already
// have applied the request (/v1/query appends experience; /v1/feedback
// is not idempotent) and a replay would double-apply it — a POST that
// dies mid-exchange answers 502 once, and the client's retry lands on
// the new owner.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		http.Error(w, "reading request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > maxBodyBytes {
		http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
		return
	}
	tenant := rt.tenantOf(r, body)
	if tenant == "" {
		http.Error(w, "missing tenant: set X-Bao-Tenant or a \"tenant\" body field", http.StatusBadRequest)
		return
	}
	reqID := r.Header.Get("X-Bao-Request-Id")
	if reqID == "" {
		reqID = obs.MintRequestID()
	}
	w.Header().Set("X-Bao-Request-Id", reqID)

	// One failover attempt per fleet member is enough to either land the
	// request or prove the fleet dark.
	attempts := len(rt.cfg.Shards)
	var lastErr error
	for i := 0; i < attempts; i++ {
		owner := rt.ring.Owner(tenant)
		if owner == "" {
			break
		}
		rt.mu.Lock()
		s := rt.shards[owner]
		rt.mu.Unlock()
		if s == nil {
			break
		}
		resp, err := rt.forward(r, s, tenant, reqID, body)
		if err != nil {
			rt.o.RouterErrors.With(owner).Inc()
			switch classifyProxyError(r, err) {
			case proxyErrClient:
				// The client hung up or its own deadline fired; the shard
				// did nothing wrong. No demotion, no retry.
				http.Error(w, "client closed request: "+err.Error(), statusClientClosedRequest)
			case proxyErrSlow:
				// The proxy client's timeout on a merely-slow shard. Slow
				// is not dead: demoting here would let one overloaded
				// request storm blackhole the fleet.
				http.Error(w, "shard timed out: "+err.Error(), http.StatusGatewayTimeout)
			case proxyErrDial:
				// Connection establishment failed: the shard never saw the
				// request, so replaying it on the next owner is safe. Take
				// the shard out of the ring (rehashing its tenants) and
				// retry.
				lastErr = err
				rt.MarkDown(owner)
				rt.o.RouterFailovers.Inc()
				continue
			default:
				// Mid-exchange failure (reset, EOF): a genuine shard-side
				// fault, so demote — but the shard may have applied the
				// request before dying, so only provably idempotent
				// methods replay. A POST answers 502 and the client's own
				// retry lands on the new owner.
				rt.MarkDown(owner)
				if idempotentMethod(r.Method) {
					lastErr = err
					rt.o.RouterFailovers.Inc()
					continue
				}
				http.Error(w, "shard failed mid-request: "+err.Error(), http.StatusBadGateway)
			}
			return
		}
		rt.o.RouterRequests.With(owner).Inc()
		rt.relay(w, resp, owner)
		rt.o.RouterSeconds.Observe(time.Since(start).Seconds())
		return
	}
	if lastErr != nil {
		http.Error(w, "no reachable shard for tenant: "+lastErr.Error(), http.StatusBadGateway)
		return
	}
	http.Error(w, "no healthy shards", http.StatusServiceUnavailable)
}

// proxyError kinds, in blame order: the client, a slow shard, a shard
// that was never reached, a shard that died mid-exchange.
type proxyError int

const (
	proxyErrClient    proxyError = iota // client ctx canceled / deadline fired
	proxyErrSlow                        // proxy client timeout; shard alive but slow
	proxyErrDial                        // connection never established; replay is safe
	proxyErrMidstream                   // failed after the shard may have seen the request
)

// classifyProxyError decides who to blame for a forward failure. The
// client's own context is checked first: when the inbound request is
// canceled, every downstream error is just its echo. Dial failures are
// checked before timeouts because a dial timeout (blackholed host)
// still proves the request never reached the shard.
func classifyProxyError(r *http.Request, err error) proxyError {
	if r.Context().Err() != nil {
		return proxyErrClient
	}
	var op *net.OpError
	if errors.As(err, &op) && op.Op == "dial" {
		return proxyErrDial
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return proxyErrSlow
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return proxyErrSlow
	}
	return proxyErrMidstream
}

// idempotentMethod reports whether a request may be replayed even when
// the first attempt might already have been applied (RFC 9110 §9.2.2's
// idempotent set, minus PUT/DELETE which this API does not use).
func idempotentMethod(m string) bool {
	switch m {
	case http.MethodGet, http.MethodHead, http.MethodOptions, http.MethodTrace:
		return true
	}
	return false
}

// forward issues the shard-side copy of the client request.
func (rt *Router) forward(r *http.Request, s *shardState, tenant, reqID string, body []byte) (*http.Response, error) {
	url := s.info.URL + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	req.Header.Set("X-Bao-Tenant", tenant)
	req.Header.Set("X-Bao-Request-Id", reqID)
	return rt.client.Do(req)
}

// relay copies the shard response to the client, preserving the shard's
// headers (X-Bao-Shard, X-Bao-Request-Id) and stamping the owner in
// case an older shard build omitted it.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, owner string) {
	defer resp.Body.Close() //nolint:errcheck // read-side close
	for k, vs := range resp.Header {
		if k == "X-Bao-Request-Id" {
			// Already stamped on the response before the attempt loop; the
			// shard echoes the same ID, and Add would duplicate the header.
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	if w.Header().Get("X-Bao-Shard") == "" {
		w.Header().Set("X-Bao-Shard", owner)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // client may hang up mid-body
}

// healthLoop polls every shard's readiness probe, marking unreachable
// or unready shards down and recovered ones back up. Failover does not
// depend on it — transport errors demote a shard inline — so this is
// the re-admission path for shards that come back. Draining shards are
// skipped entirely: a drained shard keeps answering 200, but the drain
// is an operator decision that only an operator MarkUp reverses.
func (rt *Router) healthLoop() {
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stopHealth:
			return
		case <-t.C:
		}
		rt.mu.Lock()
		infos := make([]ShardInfo, 0, len(rt.shards))
		for _, s := range rt.shards {
			if s.draining {
				continue
			}
			infos = append(infos, s.info)
		}
		rt.mu.Unlock()
		for _, si := range infos {
			if rt.probe(si) {
				rt.markUpFromProbe(si.Name)
			} else {
				rt.MarkDown(si.Name)
			}
		}
	}
}

func (rt *Router) probe(si ShardInfo) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, si.URL+"/v1/health", nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close() //nolint:errcheck // read-side close
	return resp.StatusCode == http.StatusOK
}

// Start listens on addr and serves in the background, starting the
// health poller when configured.
func (rt *Router) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("baorouter: listen: %w", err)
	}
	rt.ln = ln
	rt.httpSrv = &http.Server{Handler: rt.Handler()}
	go rt.httpSrv.Serve(ln) //nolint:errcheck // Serve always returns on close
	if rt.cfg.HealthInterval > 0 {
		go rt.healthLoop()
	}
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (rt *Router) Addr() string {
	if rt.ln == nil {
		return ""
	}
	return rt.ln.Addr().String()
}

// Shutdown stops the health poller and drains the HTTP server.
func (rt *Router) Shutdown(ctx context.Context) error {
	var err error
	rt.shutOnce.Do(func() {
		close(rt.stopHealth)
		if rt.httpSrv != nil {
			err = rt.httpSrv.Shutdown(ctx)
		}
	})
	return err
}
