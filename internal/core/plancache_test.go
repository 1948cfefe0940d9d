package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bao/internal/catalog"
	"bao/internal/obs"
	"bao/internal/planner"
)

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
	// Eviction drops the text key with the entry: exactly the newest
	// texts stay keyed, and an evicted one misses again.
	resident := queries[len(queries)-cfg.PlanCacheSize:]
	if got := cachedTexts(t, b); !slices.Equal(got, resident) {
		t.Fatalf("keyed texts %q, want the newest %q", got, resident)
	}
	misses := func() float64 { return cfg.Observer.Snapshot().Counter("bao_plancache_misses_total") }
	before := misses()
	if _, err := b.Select(queries[0]); err != nil {
		t.Fatal(err)
	}
	if misses() != before+1 {
		t.Fatal("an evicted text hit the cache")
	}
	// A hit's replacement takes the place of the entry it hit, once: a
	// second write-back from the same hit finds it already replaced.
	held := b.pcache.get(queries[0], b.Eng.CatalogVersion(), b.Eng.StatsEpoch())
	refreshed := func(e *planCacheEntry) *planCacheEntry {
		c := *e
		c.predsVer++
		return &c
	}
	first := refreshed(held)
	b.pcache.put(first, held)
	b.pcache.put(refreshed(held), held)
	if got := b.pcache.get(queries[0], b.Eng.CatalogVersion(), b.Eng.StatsEpoch()); got != first {
		t.Fatal("the text is not keyed by the first replacement of the entry it hit")
	}
	// So does a flush: no text stays keyed, a selection still holding a
	// flushed entry cannot write a replacement back into the byte count,
	// and the next repeat misses.
	b.FlushPlanCache()
	if got := cachedTexts(t, b); len(got) != 0 {
		t.Fatalf("texts %q still keyed after a flush", got)
	}
	b.pcache.put(refreshed(first), first)
	if n, by := b.PlanCacheStats(); n != 0 || by != 0 {
		t.Fatalf("a flushed entry's write-back left %d entries, %d bytes", n, by)
	}
	before = misses()
	if _, err := b.Select(queries[0]); err != nil {
		t.Fatal(err)
	}
	if misses() != before+1 {
		t.Fatal("a flushed text hit the cache")
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

	setup := func(t *testing.T) (*Bao, *obs.Observer, *planner.Query) {
		cfg := FastConfig()
		cfg.Observer = obs.NewObserver(obs.NewRegistry(), nil)
		cfg.PlanCache = true
		b := trainedBao(t, cfg)
		sel, err := b.Select(sql)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := b.PlanCacheStats(); n == 0 {
			t.Fatal("select did not populate the cache")
		}
		return b, cfg.Observer, sel.Query
	}
	// missesAfter selects text after an invalidation: it must miss and be
	// analyzed afresh rather than reuse stale, the analyzed query an
	// invalidated entry held, and its repeat must hit and share the new one.
	missesAfter := func(t *testing.T, b *Bao, o *obs.Observer, text string, stale *planner.Query) {
		t.Helper()
		misses := func() float64 { return o.Snapshot().Counter("bao_plancache_misses_total") }
		before := misses()
		sel, err := b.Select(text)
		if err != nil {
			t.Fatal(err)
		}
		if after := misses(); after != before+1 {
			t.Fatalf("select after invalidation hit the cache (misses %v -> %v)", before, after)
		}
		if sel.Query == stale {
			t.Fatal("the miss reused the invalidated entry's analyzed query")
		}
		again, err := b.Select(text)
		if err != nil {
			t.Fatal(err)
		}
		if misses() != before+1 || again.Query != sel.Query {
			t.Fatal("the repeat did not hit the repopulated entry")
		}
	}

	t.Run("text key", func(t *testing.T) {
		b, o, q := setup(t)
		sel, err := b.Select(sql)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Query != q {
			t.Fatal("a hit analyzed the text again instead of sharing the cached query")
		}
		// The key is the text as sent: a formatting variant is its own entry.
		n0, _ := b.PlanCacheStats()
		missesAfter(t, b, o, strings.Replace(sql, " AND ", "  AND ", 1), q)
		if n, _ := b.PlanCacheStats(); n != n0+1 {
			t.Fatalf("%d entries after caching a formatting variant, want %d", n, n0+1)
		}
	})
	// Residency drift keeps the entry but not its tensors: the hit
	// vectorizes afresh, and the next one reuses the new tensors.
	t.Run("residency drift refeaturizes", func(t *testing.T) {
		b, _, _ := setup(t)
		hit, err := b.Select(sql)
		if err != nil {
			t.Fatal(err)
		}
		if b.Feat.CacheFrac("title", false) == 0 {
			t.Fatal("title has no resident pages: clearing the pool would not drift")
		}
		b.Eng.Pool.Clear()
		drifted, err := b.Select(sql)
		if err != nil {
			t.Fatal(err)
		}
		again, err := b.Select(sql)
		if err != nil {
			t.Fatal(err)
		}
		if drifted.Trees[0] == hit.Trees[0] || again.Trees[0] != drifted.Trees[0] {
			t.Fatal("residency drift did not refeaturize exactly once")
		}
	})
	t.Run("retrain flushes", func(t *testing.T) {
		b, o, q := setup(t)
		v := b.ModelVersion()
		b.Retrain()
		if b.ModelVersion() != v+1 {
			t.Fatalf("retrain did not bump model version (%d -> %d)", v, b.ModelVersion())
		}
		if n, by := b.PlanCacheStats(); n != 0 || by != 0 {
			t.Fatalf("cache not flushed on retrain: %d entries, %d bytes", n, by)
		}
		missesAfter(t, b, o, sql, q)
	})
	t.Run("checkpoint restore flushes", func(t *testing.T) {
		b, o, q := setup(t)
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
		missesAfter(t, b, o, sql, q)
	})
	t.Run("stats epoch misses", func(t *testing.T) {
		b, o, q := setup(t)
		b.Eng.AnalyzeTable("title")
		missesAfter(t, b, o, sql, q)
	})
	t.Run("catalog version misses", func(t *testing.T) {
		b, o, q := setup(t)
		if err := b.Eng.CreateIndex(catalog.Index{
			Name: "ix_title_votes_pc", Table: "title", Column: "votes"}); err != nil {
			t.Fatal(err)
		}
		missesAfter(t, b, o, sql, q)
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
	poison := func(ver uint64) {
		e := b.pcache.get(sql, b.Eng.CatalogVersion(), b.Eng.StatsEpoch())
		if e == nil || e.preds == nil {
			t.Fatal("no cached predictions to poison")
		}
		c := *e
		c.preds = make([]float64, len(e.preds))
		for i := range c.preds {
			c.preds[i] = 1e9
		}
		c.finite, c.predsVer = len(c.preds), ver
		b.pcache.put(&c, e)
	}
	poison(b.ModelVersion())
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
	poison(b.ModelVersion() - 1)
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

// cachedTexts returns the texts the plan cache is keyed by, oldest first,
// after checking the key map and the LRU hold the same entries.
func cachedTexts(t *testing.T, b *Bao) []string {
	t.Helper()
	c := b.pcache
	c.mu.Lock()
	defer c.mu.Unlock()
	var texts []string
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*planCacheEntry)
		if c.entries[e.sql] != e {
			t.Fatalf("LRU entry %q is not keyed by its text", e.sql)
		}
		texts = append(texts, e.sql)
	}
	if len(texts) != len(c.entries) {
		t.Fatalf("%d keyed entries, %d in the LRU", len(c.entries), len(texts))
	}
	return texts
}

// Concurrent selects of one resident text while the breaker is open all
// plan the default arm from the one analyzed query the cache holds. Under
// -race this checks that planning only reads a shared query.
func TestPlanCacheSharedQueryUnderOpenBreaker(t *testing.T) {
	cfg := guardTestConfig(1, nil)
	cfg.PlanCache = true
	cfg.Breaker.Cooldown = 1 << 30 // open for the whole test
	b := New(buildIMDbEngine(t), cfg)
	sql := cachedWorkload()[0]
	first, err := b.Select(sql)
	if err != nil {
		t.Fatal(err)
	}
	b.Breaker().Trip("test")
	counts := func() (float64, float64) {
		s := cfg.Observer.Snapshot()
		return s.Counter("bao_plancache_hits_total"), s.Counter("bao_plancache_misses_total")
	}
	hits, misses := counts()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				sel, err := b.Select(sql)
				if err != nil {
					t.Error(err)
					return
				}
				if sel.Query != first.Query || sel.ArmID != 0 || sel.UsedModel || sel.Plans[0] == nil {
					t.Errorf("breaker-open select: shared query %v, arm %d, used model %v",
						sel.Query == first.Query, sel.ArmID, sel.UsedModel)
					return
				}
			}
		}()
	}
	wg.Wait()
	if h, m := counts(); h != hits || m != misses {
		t.Fatalf("breaker-open selects moved the hit/miss counters: %v/%v -> %v/%v", hits, misses, h, m)
	}
}

// A full hit — resident text, unchanged residency, predictions cached
// under the live model — runs no lexer, parser or analyzer and builds no
// per-arm scratch: it allocates little more than the selection it returns.
func TestPlanCacheHitAllocs(t *testing.T) {
	cfg := FastConfig()
	cfg.Observer = obs.NewObserver(obs.NewRegistry(), nil)
	cfg.PlanCache = true
	b := trainedBao(t, cfg)
	sql := cachedWorkload()[0]
	for i := 0; i < 2; i++ { // the miss, then a hit
		if _, err := b.Select(sql); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 50
	hits := cfg.Observer.PlanCacheHits.Value()
	entry := b.pcache.entries[sql]
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := b.Select(sql); err != nil {
			t.Fatal(err)
		}
	})
	if got := cfg.Observer.PlanCacheHits.Value() - hits; got != runs+1 {
		t.Fatalf("%v of %d selects hit the cache", got, runs+1)
	}
	if b.pcache.entries[sql] != entry {
		t.Fatal("a full hit stored a new entry: it has nothing newer to store")
	}
	if allocs > 10 {
		t.Fatalf("a full plan-cache hit allocates %v times, want <= 10", allocs)
	}
}

// Four goroutines select one resident text while a fifth clears the
// buffer pool and executes a plan, 200 times: every drift makes hits
// refeaturize, re-predict and replace the entry beside readers of it.
// Under -race this checks a published entry is only ever read; once
// quiet, the resident entry's tensors are what vectorizing now gives.
func TestPlanCacheConcurrentRefresh(t *testing.T) {
	cfg := FastConfig()
	cfg.Observer = obs.NewObserver(obs.NewRegistry(), nil)
	cfg.PlanCache = true
	b := trainedBao(t, cfg)
	sql := cachedWorkload()[0]
	first, err := b.Select(sql)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := b.Select(sql); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		b.Eng.Pool.Clear()
		if _, err := b.execute(context.Background(), first.Plans[0]); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if cfg.Observer.PlanCacheHits.Value() == 0 {
		t.Fatal("no select hit the cache")
	}
	sel, err := b.Select(sql)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range sel.Plans {
		if !slices.Equal(sel.Trees[i].Feat, b.Feat.Vectorize(p).Feat) {
			t.Fatalf("arm %d: the resident tensor is not the live residency's", i)
		}
	}
	var sum int64
	for _, text := range cachedTexts(t, b) {
		sum += entryBytes(b.pcache.entries[text])
	}
	if _, by := b.PlanCacheStats(); by != sum {
		t.Fatalf("cache counts %d bytes, its entries %d", by, sum)
	}
}

// A selection looks its text up before it loads the bandit state, so the
// state it predicts under is never older than the entry it hit, and the
// entry that replaces the hit never carries an older prediction version.
// Readers run the lookup while a writer publishes model after model and
// repopulates the cache under each.
func TestPlanCacheConcurrentVersionOrder(t *testing.T) {
	cfg := FastConfig()
	cfg.Observer = obs.NewObserver(obs.NewRegistry(), nil)
	cfg.PlanCache = true
	b := trainedBao(t, cfg)
	sql := cachedWorkload()[0]
	var saved bytes.Buffer
	if err := b.SaveModel(&saved); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var hits atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				r := &selectReq{b: b}
				if err := r.parse(context.Background(), sql); err != nil {
					t.Error(err)
					return
				}
				if r.hit == nil {
					continue
				}
				hits.Add(1)
				if r.hit.predsVer > r.st.version {
					t.Errorf("hit an entry predicted under version %d with state version %d", r.hit.predsVer, r.st.version)
					return
				}
			}
		}()
	}
	for i := 0; i < 30; i++ {
		if err := b.LoadModel(bytes.NewReader(saved.Bytes())); err != nil {
			t.Error(err)
			break
		}
		if _, err := b.Select(sql); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if hits.Load() == 0 {
		t.Fatal("no lookup hit the cache")
	}
}
