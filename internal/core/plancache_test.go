package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"bao/internal/catalog"
	"bao/internal/obs"
	"bao/internal/sqlparser"
)

func mustParse(t *testing.T, sql string) *sqlparser.SelectStmt {
	t.Helper()
	stmt, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return stmt
}

// Literal-only variants of one query shape must share a fingerprint (they
// land in the same cache chain), while structural changes — different
// table, column, operator, or literal magnitude class — must not.
func TestQueryFingerprintBucketsLiterals(t *testing.T) {
	base := mustParse(t, "SELECT COUNT(*) FROM title t WHERE t.votes > 1200")
	sameBucket := mustParse(t, "SELECT COUNT(*) FROM title t WHERE t.votes > 1500")
	if queryFingerprint(base) != queryFingerprint(sameBucket) {
		t.Fatal("same-magnitude literal variants got different fingerprints")
	}
	cases := map[string]string{
		"literal magnitude": "SELECT COUNT(*) FROM title t WHERE t.votes > 1200000",
		"operator":          "SELECT COUNT(*) FROM title t WHERE t.votes < 1200",
		"column":            "SELECT COUNT(*) FROM title t WHERE t.kind_id > 1200",
		"table":             "SELECT COUNT(*) FROM cast_info t WHERE t.votes > 1200",
		"output":            "SELECT MIN(t.votes) FROM title t WHERE t.votes > 1200",
	}
	for what, sql := range cases {
		if queryFingerprint(base) == queryFingerprint(mustParse(t, sql)) {
			t.Fatalf("%s change not reflected in fingerprint", what)
		}
	}
}

// cachedWorkload is the repeated-shape select mix the cache tests drive:
// a few templates, several literal variants each.
func cachedWorkload() []string {
	out := []string{}
	for _, v := range []int{500, 1000, 2000, 4000} {
		out = append(out,
			fmt.Sprintf("SELECT COUNT(*) FROM title t, cast_info ci WHERE t.id = ci.movie_id AND t.kind_id = 3 AND t.votes > %d", v),
			fmt.Sprintf("SELECT COUNT(*) FROM title t WHERE t.production_year > 1990 AND t.votes > %d", v),
		)
	}
	return out
}

// The determinism contract: with the plan cache and micro-batching on,
// repeated selects must produce byte-identical predictions and arm
// choices to an uncached Bao, at any worker count.
func TestPlanCacheDeterminism(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			mk := func(cache bool) (*Bao, *obs.Observer) {
				cfg := FastConfig()
				cfg.Observer = obs.NewObserver(obs.NewRegistry(), nil)
				cfg.Workers = workers
				if cache {
					cfg.PlanCache = true
					cfg.InferBatch = 64
				}
				return trainedBao(t, cfg), cfg.Observer
			}
			cached, co := mk(true)
			plain, _ := mk(false)
			queries := cachedWorkload()
			for round := 0; round < 3; round++ {
				for _, sql := range queries {
					a, err := cached.Select(sql)
					if err != nil {
						t.Fatal(err)
					}
					b, err := plain.Select(sql)
					if err != nil {
						t.Fatal(err)
					}
					if a.ArmID != b.ArmID {
						t.Fatalf("round %d %q: cached arm %d != uncached %d", round, sql, a.ArmID, b.ArmID)
					}
					if len(a.Preds) != len(b.Preds) {
						t.Fatalf("round %d %q: pred lengths differ", round, sql)
					}
					for i := range a.Preds {
						if math.Float64bits(a.Preds[i]) != math.Float64bits(b.Preds[i]) {
							t.Fatalf("round %d %q arm %d: cached pred %x != uncached %x",
								round, sql, i, math.Float64bits(a.Preds[i]), math.Float64bits(b.Preds[i]))
						}
					}
				}
			}
			snap := co.Snapshot()
			if hits := snap.Counter("bao_plancache_hits_total"); hits == 0 {
				t.Fatal("repeated selects never hit the plan cache")
			}
			if misses := snap.Counter("bao_plancache_misses_total"); misses < float64(len(queries)) {
				t.Fatalf("misses = %v, want at least one per distinct query (%d)", misses, len(queries))
			}
		})
	}
}

// The LRU must respect both bounds, and the published gauges must never
// read above the caps — eviction happens before publication.
func TestPlanCacheEvictionBounds(t *testing.T) {
	cfg := FastConfig()
	cfg.Observer = obs.NewObserver(obs.NewRegistry(), nil)
	cfg.PlanCache = true
	cfg.PlanCacheSize = 3
	cfg.PlanCacheBytes = 1 << 20
	b := trainedBao(t, cfg)

	queries := []string{}
	for y := 1950; y < 1970; y++ {
		queries = append(queries,
			fmt.Sprintf("SELECT COUNT(*) FROM title t WHERE t.production_year = %d AND t.votes > %d", y, y*10))
	}
	for _, sql := range queries {
		if _, err := b.Select(sql); err != nil {
			t.Fatal(err)
		}
		snap := cfg.Observer.Snapshot()
		if n := snap.Gauge("bao_plancache_entries"); n > float64(cfg.PlanCacheSize) {
			t.Fatalf("entries gauge %v exceeds cap %d", n, cfg.PlanCacheSize)
		}
		if by := snap.Gauge("bao_plancache_bytes"); by > float64(cfg.PlanCacheBytes) {
			t.Fatalf("bytes gauge %v exceeds cap %d", by, cfg.PlanCacheBytes)
		}
	}
	snap := cfg.Observer.Snapshot()
	if ev := snap.Counter("bao_plancache_evictions_total"); ev == 0 {
		t.Fatal("distinct shapes past the entry cap never evicted")
	}

	// A tight byte cap must bound resident bytes the same way: rebuild with
	// a cap small enough that tensors, not the entry count, evict.
	cfg2 := FastConfig()
	cfg2.Observer = obs.NewObserver(obs.NewRegistry(), nil)
	cfg2.PlanCache = true
	cfg2.PlanCacheSize = 1024
	cfg2.PlanCacheBytes = 8 << 10
	b2 := trainedBao(t, cfg2)
	for _, sql := range queries {
		if _, err := b2.Select(sql); err != nil {
			t.Fatal(err)
		}
		if by := cfg2.Observer.Snapshot().Gauge("bao_plancache_bytes"); by > float64(cfg2.PlanCacheBytes) {
			t.Fatalf("bytes gauge %v exceeds byte cap %d", by, cfg2.PlanCacheBytes)
		}
	}
	if ev := cfg2.Observer.Snapshot().Counter("bao_plancache_evictions_total"); ev == 0 {
		t.Fatal("byte cap never forced an eviction")
	}
}

// Every invalidation source must flush or miss the cache: an accepted
// retrain (hot-swap), a checkpoint restore (LoadModel), a statistics
// rebuild, and a DDL change.
func TestPlanCacheInvalidation(t *testing.T) {
	sql := "SELECT COUNT(*) FROM title t WHERE t.kind_id = 3 AND t.votes > 1000"

	setup := func(t *testing.T) (*Bao, *obs.Observer) {
		cfg := FastConfig()
		cfg.Observer = obs.NewObserver(obs.NewRegistry(), nil)
		cfg.PlanCache = true
		b := trainedBao(t, cfg)
		if _, err := b.Select(sql); err != nil {
			t.Fatal(err)
		}
		if n, _ := b.PlanCacheStats(); n == 0 {
			t.Fatal("select did not populate the cache")
		}
		return b, cfg.Observer
	}
	missesAfter := func(t *testing.T, b *Bao, o *obs.Observer) {
		t.Helper()
		before := o.Snapshot().Counter("bao_plancache_misses_total")
		if _, err := b.Select(sql); err != nil {
			t.Fatal(err)
		}
		if after := o.Snapshot().Counter("bao_plancache_misses_total"); after != before+1 {
			t.Fatalf("select after invalidation hit the cache (misses %v -> %v)", before, after)
		}
	}

	t.Run("retrain flushes", func(t *testing.T) {
		b, o := setup(t)
		v := b.ModelVersion()
		b.Retrain()
		if b.ModelVersion() != v+1 {
			t.Fatalf("retrain did not bump model version (%d -> %d)", v, b.ModelVersion())
		}
		if n, by := b.PlanCacheStats(); n != 0 || by != 0 {
			t.Fatalf("cache not flushed on retrain: %d entries, %d bytes", n, by)
		}
		missesAfter(t, b, o)
	})
	t.Run("checkpoint restore flushes", func(t *testing.T) {
		b, o := setup(t)
		var buf bytes.Buffer
		if err := b.SaveModel(&buf); err != nil {
			t.Fatal(err)
		}
		v := b.ModelVersion()
		if err := b.LoadModel(&buf); err != nil {
			t.Fatal(err)
		}
		if b.ModelVersion() != v+1 {
			t.Fatal("model restore did not bump the version")
		}
		if n, _ := b.PlanCacheStats(); n != 0 {
			t.Fatal("cache not flushed on model restore")
		}
		missesAfter(t, b, o)
	})
	t.Run("stats epoch misses", func(t *testing.T) {
		b, o := setup(t)
		b.Eng.AnalyzeTable("title")
		missesAfter(t, b, o)
	})
	t.Run("catalog version misses", func(t *testing.T) {
		b, o := setup(t)
		if err := b.Eng.CreateIndex(catalog.Index{
			Name: "ix_title_votes_pc", Table: "title", Column: "votes"}); err != nil {
			t.Fatal(err)
		}
		missesAfter(t, b, o)
	})
}

// A cache entry carrying predictions from a superseded model must never
// serve them: simulate a select that raced a hot-swap and published
// old-version predictions after the flush, then verify the next select
// re-predicts with the live model.
func TestPlanCacheStaleGenerationRepredicts(t *testing.T) {
	sql := "SELECT COUNT(*) FROM title t WHERE t.kind_id = 3 AND t.votes > 1000"
	cfg := FastConfig()
	cfg.Observer = obs.NewObserver(obs.NewRegistry(), obs.NewTraceRing(8))
	cfg.PlanCache = true
	b := trainedBao(t, cfg)

	if _, err := b.Select(sql); err != nil {
		t.Fatal(err)
	}
	// Corrupt the cached predictions while keeping their (current) version
	// tag: a version-matched hit would serve these poisoned values.
	b.pcache.mu.Lock()
	var poisoned *cacheVariant
	for _, chain := range b.pcache.chains {
		for _, e := range chain {
			nv := *e.variant
			nv.preds = make([]float64, len(e.variant.preds))
			for i := range nv.preds {
				nv.preds[i] = 1e9
			}
			e.variant = &nv
			poisoned = &nv
		}
	}
	b.pcache.mu.Unlock()
	if poisoned == nil || poisoned.preds == nil {
		t.Fatal("no cached predictions to poison")
	}
	// While the version still matches, the poisoned predictions ARE served
	// (that is what a version-matched hit means).
	sel, err := b.Select(sql)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Preds[sel.ArmID] != 1e9 {
		t.Skip("cache entry was refeaturized; version-match path not exercised")
	}
	// Publish a new model: the version moves, so even if the poisoned entry
	// survived (it does not — publication flushes — but re-poison to prove
	// the version check alone suffices), predictions must be recomputed.
	var buf bytes.Buffer
	if err := b.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	if err := b.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Select(sql); err != nil { // repopulate
		t.Fatal(err)
	}
	staleVer := b.ModelVersion() - 1
	b.pcache.mu.Lock()
	for _, chain := range b.pcache.chains {
		for _, e := range chain {
			nv := *e.variant
			nv.preds = make([]float64, len(e.variant.trees))
			for i := range nv.preds {
				nv.preds[i] = 1e9
			}
			nv.finite = len(nv.preds)
			nv.predsVer = staleVer
			e.variant = &nv
		}
	}
	b.pcache.mu.Unlock()
	sel, err = b.Select(sql)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range sel.Preds {
		if p == 1e9 {
			t.Fatalf("arm %d served a stale-generation cached prediction", i)
		}
	}
	if tr := sel.Trace; tr != nil && tr.Cache != "hit-repredict" {
		t.Fatalf("cache verdict = %q, want hit-repredict", tr.Cache)
	}
}
