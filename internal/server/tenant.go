package baoserver

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"time"

	"bao/internal/core"
	"bao/internal/obs"
)

// TenantOptions configures a shard's tenant registry: where the durable
// per-tenant namespaces live, how a tenant's optimizer is built, and the
// residency bounds the LRU enforces.
type TenantOptions struct {
	// Dir is the root of the per-tenant durable namespaces. Each tenant
	// owns Dir/<tenant>/bao.explog and Dir/<tenant>/checkpoints/ — the
	// complete state needed to rebuild it anywhere, which is what makes
	// shard rebuild-by-replay work: a new owner just activates the tenant
	// against the same namespace.
	Dir string
	// NewBao builds a fresh optimizer (engine + config) for a tenant
	// being activated. It runs once per activation, so rebuild cost is
	// Setup + explog replay + checkpoint restore. Required.
	NewBao func(tenant string) (*core.Bao, error)
	// Server is the per-tenant serving config template. LogPath,
	// CheckpointDir, and EventLogPath are overridden per tenant; the
	// admission and request-timeout knobs apply to every tenant. The
	// per-query deadline is the core.Config.QueryTimeout each tenant's
	// NewBao sets.
	Server Config
	// MaxResident bounds how many tenants hold their model in memory at
	// once (0 = 8). MaxResidentBytes additionally bounds the approximate
	// resident model bytes (0 = 256 MiB). The LRU evicts — flushing the
	// tenant's explog and leaving its newest checkpoint on disk — until
	// both bounds hold; tenants pinned by in-flight requests are never
	// evicted, so the bounds can be exceeded transiently under load.
	MaxResident      int
	MaxResidentBytes int64
	// LockTimeout bounds how long an activation waits for the tenant's
	// namespace fence — the exclusive per-namespace file lock that
	// guarantees one live writer per explog even when ownership moves
	// between shards (0 = 5s). An activation that cannot acquire the
	// fence fails rather than opening a namespace another owner is
	// still writing.
	LockTimeout time.Duration
}

const (
	// tenantBaseBytes is the per-tenant accounting floor covering the
	// engine and window memory a tenant holds beyond its serialized model.
	tenantBaseBytes = 1 << 20
	// evictTimeout bounds one eviction's flush.
	evictTimeout = 30 * time.Second
)

// tenantNameRe is the path-safe tenant grammar: no separators, no dot
// prefixes, bounded length — a tenant name becomes a directory name.
var tenantNameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// ValidTenant reports whether name is an acceptable tenant identifier.
func ValidTenant(name string) bool { return tenantNameRe.MatchString(name) }

// tenantEntry is one tenant's residency record. Lifecycle: created in
// the registry map with ready open → activated (srv set, ready closed) →
// possibly evicting (new acquires wait on gone) → removed (gone closed).
// refs counts in-flight requests pinning residency; eviction only ever
// selects entries with refs == 0, and marks them evicting under the
// registry lock before flushing, so a tenant can never serve a request
// while its explog is being flushed out from under it.
type tenantEntry struct {
	name    string
	refs    int
	lastUse uint64
	bytes   int64

	ready    chan struct{} // closed when activation finished (srv or err set)
	gone     chan struct{} // closed when the entry left the registry
	goneOnce sync.Once     // evict and Kill may race on one entry; gone closes once
	lock     *namespaceLock
	srv      *Server
	handler  http.Handler
	err      error

	active   bool // srv is usable (set under the registry lock)
	evicting bool
}

// markGone releases the entry's namespace fence and closes gone,
// exactly once. Both teardown paths — evict's flush and Kill's crash —
// can reach the same entry when a Kill races an in-flight activation;
// the Once makes the overlap harmless instead of a double-close panic.
// The fence is released only here, after the path that ran has stopped
// the tenant's Server, so a new owner can never acquire the namespace
// while this one might still write.
func (e *tenantEntry) markGone() {
	e.goneOnce.Do(func() {
		e.lock.Unlock() //nolint:errcheck // fence release; close error is unactionable
		close(e.gone)
	})
}

// TenantRegistry owns a shard's resident tenants: one headless Server
// (optimizer + trainer + explog + checkpoint store) per active tenant,
// activated lazily on first use and evicted least-recently-used when the
// count or byte bound is exceeded. Eviction is a full flush — the
// tenant's Server shuts down, syncing its explog, before residency is
// released — so an evicted tenant's next activation (here or on another
// shard) replays a complete log.
type TenantRegistry struct {
	opts TenantOptions
	o    *obs.Observer

	mu       sync.Mutex
	resident map[string]*tenantEntry
	clock    uint64
	bytes    int64
	closed   bool
}

// NewTenantRegistry builds a registry. o may be nil (metrics dropped).
func NewTenantRegistry(opts TenantOptions, o *obs.Observer) (*TenantRegistry, error) {
	if opts.NewBao == nil {
		return nil, fmt.Errorf("baoserver: TenantOptions.NewBao is required")
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("baoserver: TenantOptions.Dir is required")
	}
	if opts.MaxResident <= 0 {
		opts.MaxResident = 8
	}
	if opts.MaxResidentBytes <= 0 {
		opts.MaxResidentBytes = 256 << 20
	}
	if opts.LockTimeout <= 0 {
		opts.LockTimeout = 5 * time.Second
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("baoserver: tenant dir: %w", err)
	}
	if o == nil {
		o = obs.Disabled()
	}
	return &TenantRegistry{opts: opts, o: o, resident: map[string]*tenantEntry{}}, nil
}

// Acquire pins tenant into residency, activating it (namespace open,
// explog replay, checkpoint restore) when absent, and returns its entry.
// The caller must Release exactly once. Acquire blocks while the tenant
// is mid-eviction — the flush must finish before a new residency starts,
// or two instances would append to one explog.
func (r *TenantRegistry) Acquire(ctx context.Context, tenant string) (*tenantEntry, error) {
	if !ValidTenant(tenant) {
		return nil, fmt.Errorf("baoserver: invalid tenant name %q", tenant)
	}
	for {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return nil, fmt.Errorf("baoserver: tenant registry is closed")
		}
		e := r.resident[tenant]
		if e == nil {
			r.clock++
			e = &tenantEntry{name: tenant, refs: 1, lastUse: r.clock,
				ready: make(chan struct{}), gone: make(chan struct{})}
			r.resident[tenant] = e
			r.mu.Unlock()
			r.activate(e)
			if e.err != nil {
				return nil, e.err
			}
			r.enforce()
			return e, nil
		}
		if e.evicting {
			r.mu.Unlock()
			select {
			case <-e.gone:
				continue // residency released; re-activate fresh
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		e.refs++
		e.lastUse = r.clock + 1
		r.clock++
		r.mu.Unlock()
		<-e.ready // activation is bounded work; no ctx escape hatch needed
		if e.err != nil {
			// Failed activations leave the registry inside activate; the
			// pin was never real.
			return nil, e.err
		}
		return e, nil
	}
}

// Release unpins an acquired tenant and gives the LRU a chance to
// enforce its bounds.
func (r *TenantRegistry) Release(e *tenantEntry) {
	if e == nil {
		return
	}
	r.mu.Lock()
	e.refs--
	r.mu.Unlock()
	r.enforce()
}

// activate builds the tenant's Server against its durable namespace:
// the namespace fence (an exclusive file lock) is acquired first, then
// Dir/<tenant>/bao.explog is replayed into the window and the newest
// valid checkpoint generation under Dir/<tenant>/checkpoints/ restores
// the model — the same startup path a single-tenant baoserver runs,
// which is exactly why a dead shard's tenants rebuild anywhere. The
// fence guarantees the rebuild never overlaps a previous owner that is
// still writing (partitioned, not dead).
func (r *TenantRegistry) activate(e *tenantEntry) {
	start := time.Now()
	dir := filepath.Join(r.opts.Dir, e.name)
	var srv *Server
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		e.lock, err = lockNamespace(dir, r.opts.LockTimeout)
	}
	if err == nil {
		var b *core.Bao
		if b, err = r.opts.NewBao(e.name); err == nil {
			cfg := r.opts.Server
			cfg.LogPath = filepath.Join(dir, "bao.explog")
			cfg.CheckpointDir = filepath.Join(dir, "checkpoints")
			cfg.EventLogPath = "" // the shard-level journal covers lifecycle events
			srv, err = New(b, cfg)
		}
	}
	r.mu.Lock()
	if err != nil {
		e.err = fmt.Errorf("baoserver: activate tenant %s: %w", e.name, err)
		delete(r.resident, e.name)
		r.mu.Unlock()
		close(e.ready)
		// markGone, not close(e.gone): a concurrent Kill snapshotted this
		// entry (it entered the map in Acquire) and will also tear it
		// down after <-e.ready; the Once keeps that overlap safe.
		e.markGone()
		return
	}
	e.srv = srv
	e.handler = srv.Handler()
	e.bytes = tenantBaseBytes + modelBytes(srv.bao)
	e.active = true
	r.bytes += e.bytes
	r.o.TenantActivations.Inc()
	r.o.TenantsResident.Set(float64(len(r.resident)))
	r.o.TenantBytes.Set(float64(r.bytes))
	r.o.TenantActivateSec.Observe(time.Since(start).Seconds())
	if replayed, _ := srv.Log().Replayed(); replayed > 0 {
		r.o.TenantRehydrated.Inc()
	}
	r.mu.Unlock()
	close(e.ready)
	// If a Kill raced this activation (it set closed and emptied the map
	// after our Acquire inserted the entry), teardown belongs to Kill:
	// its snapshot necessarily includes this entry, and its loop is
	// blocked on <-e.ready right now. Tearing down here as well would
	// run two teardowns on one entry — the double-close panic the crash
	// path used to have.
}

// modelBytes sizes a tenant's resident model by serializing it through a
// counting writer (0 when untrained) — the honest input to the byte
// bound without holding a second copy.
func modelBytes(b *core.Bao) int64 {
	if !b.Trained() {
		return 0
	}
	var cw countWriter
	if err := b.SaveModel(&cw); err != nil {
		return 0
	}
	return cw.n
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// enforce evicts least-recently-used unpinned tenants until both
// residency bounds hold. Runs to completion; each flush happens outside
// the registry lock with the victim marked evicting, so concurrent
// acquires of that tenant wait for the flush instead of racing it.
func (r *TenantRegistry) enforce() {
	for {
		r.mu.Lock()
		if r.closed ||
			(len(r.resident) <= r.opts.MaxResident && r.bytes <= r.opts.MaxResidentBytes) {
			r.mu.Unlock()
			return
		}
		var victim *tenantEntry
		for _, e := range r.resident {
			if !e.active || e.evicting || e.refs > 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			r.mu.Unlock()
			return // everything pinned or in flight; bounds exceeded transiently
		}
		victim.evicting = true
		r.mu.Unlock()
		r.evict(victim)
	}
}

// evict flushes one tenant out of residency: its Server shuts down
// (trainer drains, explog syncs, checkpoints already on disk), then the
// entry leaves the registry, its namespace fence drops, and waiters on
// gone may re-activate.
func (r *TenantRegistry) evict(e *tenantEntry) {
	ctx, cancel := context.WithTimeout(context.Background(), evictTimeout)
	e.srv.Shutdown(ctx) //nolint:errcheck // flush is best effort under the timeout
	cancel()
	r.mu.Lock()
	if _, resident := r.resident[e.name]; resident {
		// A Kill racing this eviction empties the map and zeroes the byte
		// ledger itself; adjusting it again here would drive it negative.
		delete(r.resident, e.name)
		r.bytes -= e.bytes
		r.o.TenantEvictions.Inc()
		r.o.TenantsResident.Set(float64(len(r.resident)))
		r.o.TenantBytes.Set(float64(r.bytes))
	}
	r.mu.Unlock()
	e.markGone()
}

// Resident returns the names of currently resident tenants.
func (r *TenantRegistry) Resident() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.resident))
	for n, e := range r.resident {
		if e.active && !e.evicting {
			names = append(names, n)
		}
	}
	return names
}

// Degraded counts resident tenants whose experience log has entered
// read-only degradation — the shard-level durability signal aggregated
// into /v1/health.
func (r *TenantRegistry) Degraded() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.resident {
		if e.active && !e.evicting && e.srv != nil {
			if l := e.srv.Log(); l != nil && l.Degraded() {
				n++
			}
		}
	}
	return n
}

// Stats reports the resident tenant count and approximate bytes.
func (r *TenantRegistry) Stats() (tenants int, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.resident), r.bytes
}

// Peek returns a resident tenant's Server without activating or pinning
// it (nil when not resident) — introspection for tests and benchmarks.
func (r *TenantRegistry) Peek(tenant string) *Server {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.resident[tenant]; e != nil && e.active && !e.evicting {
		return e.srv
	}
	return nil
}

// EvictTenant flushes one named tenant out of residency, waiting for
// in-flight pins to drain first. Reports whether the tenant was resident.
func (r *TenantRegistry) EvictTenant(ctx context.Context, tenant string) bool {
	for {
		r.mu.Lock()
		e := r.resident[tenant]
		if e == nil || r.closed {
			r.mu.Unlock()
			return false
		}
		if e.active && !e.evicting && e.refs == 0 {
			e.evicting = true
			r.mu.Unlock()
			r.evict(e)
			return true
		}
		r.mu.Unlock()
		select {
		case <-ctx.Done():
			return false
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// EvictAll flushes every resident tenant (the drain path: the router
// stops routing to this shard first, then drains it, then may kill it).
// Tenants pinned by in-flight requests are waited for. The registry
// stays open: tenants can re-activate afterwards.
func (r *TenantRegistry) EvictAll(ctx context.Context) (int, error) {
	evicted := 0
	for {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return evicted, nil
		}
		var victim *tenantEntry
		var waiting *tenantEntry
		for _, e := range r.resident {
			switch {
			case e.evicting || !e.active:
				waiting = e
			case e.refs > 0:
				waiting = e
			case victim == nil:
				victim = e
			}
		}
		if victim == nil && waiting == nil {
			r.mu.Unlock()
			return evicted, nil
		}
		if victim != nil {
			victim.evicting = true
			r.mu.Unlock()
			r.evict(victim)
			evicted++
			continue
		}
		r.mu.Unlock()
		select {
		case <-ctx.Done():
			return evicted, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Close evicts everything and refuses further acquires. Used by the
// shard's graceful shutdown after the HTTP layer has drained.
func (r *TenantRegistry) Close(ctx context.Context) error {
	if _, err := r.EvictAll(ctx); err != nil {
		return err
	}
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	return nil
}

// Kill abruptly stops every resident tenant without flushing — the
// chaos-test crash path, mirroring Server.Kill per tenant. Once it
// returns, nothing on this registry writes to any tenant namespace
// again (each tenant's trainer has drained), so a new owner may open
// those namespaces.
func (r *TenantRegistry) Kill() {
	r.mu.Lock()
	r.closed = true
	entries := make([]*tenantEntry, 0, len(r.resident))
	for _, e := range r.resident {
		entries = append(entries, e)
	}
	r.resident = map[string]*tenantEntry{}
	r.bytes = 0
	r.mu.Unlock()
	for _, e := range entries {
		<-e.ready // an in-flight activation must finish before we can kill its server
		if e.srv != nil {
			e.srv.Kill()
		}
		// markGone: an entry mid-eviction (or a failed activation) may
		// have torn itself down concurrently; the Once on gone makes the
		// overlap safe, and the namespace fence drops only after the
		// Server stopped writing, whichever path got here first.
		e.markGone()
	}
}
