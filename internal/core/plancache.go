package core

import (
	"container/list"
	"sync"

	"bao/internal/nn"
	"bao/internal/obs"
	"bao/internal/planner"
)

// planCacheEntry is the work SelectCtx would otherwise redo on every
// repeat of one SQL text: the analyzed query, the planned arm set, dedup
// groups, the featurized tensors and, once a trained select has made
// them, the predictions. Entries are validated against the catalog
// version and statistics epoch they were analyzed and planned under and
// dropped when either moves. An entry is never written after put: a hit
// that refeaturizes (residency drift) or re-predicts (the model moved)
// stores a new entry in its place, so hits share every field lock-free.
// The tensors are the only record of the buffer-pool residency they were
// built under (Featurizer.residencyMatches reads it back).
type planCacheEntry struct {
	sql        string         // the exact SQL text: the cache key
	query      *planner.Query // sql analyzed under schemaVer
	schemaVer  uint64
	statsEpoch uint64

	plans    []*planner.Node
	cands    []int
	armGroup []int
	uniq     []*planner.Node // representative plan per dedup group
	trees    []*nn.Tree      // one tensor per dedup group
	// preds are the clamped per-group predictions computed under model
	// version predsVer; nil until a trained select populates them (and
	// left nil when no prediction was finite — degenerate outputs are
	// never cached). finite is the finite-prediction count that went with
	// preds, reused by the breaker's degenerate-output check.
	preds    []float64
	predsVer uint64
	finite   int

	// Owned by the cache, under its lock.
	bytes int64
	elem  *list.Element
}

// planCache is the text-keyed plan cache: an LRU bounded by entry count
// and by the approximate resident bytes of the cached tensors. The key is
// the exact SQL text, so a hit is one map lookup and never runs the
// lexer, parser or analyzer; it additionally requires matching catalog
// and statistics epochs. All methods are safe for concurrent use.
type planCache struct {
	maxEntries int
	maxBytes   int64
	o          *obs.Observer

	mu      sync.Mutex
	entries map[string]*planCacheEntry // by SQL text
	lru     *list.List                 // of *planCacheEntry; front = most recent
	bytes   int64
}

func newPlanCache(maxEntries int, maxBytes int64, o *obs.Observer) *planCache {
	if maxEntries <= 0 {
		maxEntries = 512
	}
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &planCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		o:          o,
		entries:    make(map[string]*planCacheEntry),
		lru:        list.New(),
	}
}

// get returns the entry for sql if present and still valid under the
// given catalog version and statistics epoch. A stale entry is removed
// and the lookup misses, so invalidation needs no sweep: the next repeat
// of an invalidated text reanalyzes, replans and repopulates. Counting
// the hit or miss is the caller's job (a miss here is followed by a put,
// and the caller holds the trace).
func (c *planCache) get(sql string, schemaVer, statsEpoch uint64) *planCacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[sql]
	switch {
	case e == nil:
		return nil
	case e.schemaVer != schemaVer || e.statsEpoch != statsEpoch:
		c.removeLocked(e)
		c.publishLocked()
		return nil
	}
	c.lru.MoveToFront(e.elem)
	return e
}

// put inserts an entry and evicts from the LRU tail until both bounds
// hold. An entry bigger than the byte cap on its own is not cached.
// Eviction runs before the gauges are published, so the bytes gauge never
// reads above the cap. prev is the entry the selection hit (nil on a
// miss): e replaces it only while it is still the resident entry for the
// text, so an entry flushed, evicted or already replaced since the lookup
// is never written back. A miss replaces whatever entry the text has.
func (c *planCache) put(e, prev *planCacheEntry) {
	e.bytes = entryBytes(e)
	if e.bytes > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.entries[e.sql]
	if prev != nil && old != prev {
		return
	}
	if old != nil {
		c.removeLocked(old)
	}
	e.elem = c.lru.PushFront(e)
	c.entries[e.sql] = e
	c.bytes += e.bytes
	for c.lru.Len() > c.maxEntries || c.bytes > c.maxBytes {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		c.removeLocked(tail.Value.(*planCacheEntry))
		c.o.PlanCacheEvictions.Inc()
	}
	c.publishLocked()
}

// flush drops every entry (used when invalidation must be immediate
// rather than lazy, e.g. tests forcing a cold cache). Dropped entries are
// detached, so a selection still holding one cannot write a replacement
// back (put finds it no longer resident).
func (c *planCache) flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		el.Value.(*planCacheEntry).elem = nil
	}
	c.entries = make(map[string]*planCacheEntry) // not clear: that keeps the buckets
	c.lru.Init()
	c.bytes = 0
	c.publishLocked()
}

// stats returns the resident entry count and approximate bytes.
func (c *planCache) stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len(), c.bytes
}

func (c *planCache) removeLocked(e *planCacheEntry) {
	if e.elem == nil {
		return
	}
	c.lru.Remove(e.elem)
	e.elem = nil
	delete(c.entries, e.sql)
	c.bytes -= e.bytes
}

func (c *planCache) publishLocked() {
	c.o.PlanCacheEntries.Set(float64(c.lru.Len()))
	c.o.PlanCacheBytes.Set(float64(c.bytes))
}

// entryBytes approximates an entry's resident footprint: the featurized
// tensors dominate (N nodes × feature-dim float64s per unique plan), so
// the estimate counts tensor and prediction payloads plus a small fixed
// overhead for the plan skeletons, analyzed query and bookkeeping.
func entryBytes(e *planCacheEntry) int64 {
	const overhead = 512
	b := int64(overhead)
	b += int64(len(e.plans))*16 + int64(len(e.cands)+len(e.armGroup)+len(e.uniq)+len(e.preds))*8
	for _, t := range e.trees {
		b += int64(len(t.Feat))*8 + int64(len(t.Left)+len(t.Right))*8
	}
	return b
}
