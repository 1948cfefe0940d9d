package core

import (
	"container/list"
	"sync"
	"unsafe"

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
// and by the approximate resident bytes of its entries (entryBytes). The
// key is the exact SQL text, so a hit is one map lookup and never runs
// the lexer, parser or analyzer; it additionally requires matching
// catalog and statistics epochs. All methods are safe for concurrent use.
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

// Struct sizes entryBytes charges; strings inside them (table, alias and
// column names) are shared with the catalog and not counted.
const (
	nodeBytes    = int64(unsafe.Sizeof(planner.Node{}))
	filterBytes  = int64(unsafe.Sizeof(planner.Filter{}))
	outColBytes  = int64(unsafe.Sizeof(planner.OutCol{}))
	aggSpecBytes = int64(unsafe.Sizeof(planner.AggSpec{}))
	treeBytes    = int64(unsafe.Sizeof(nn.Tree{}))
	// The entry itself, its LRU element and its map slot.
	entryOverhead = int64(unsafe.Sizeof(planCacheEntry{})) + 128
	// queryBytesPerSQLByte prices the analyzed query (statement, scans,
	// edges, outputs) per byte of its SQL text: about 4 over the IMDb
	// templates.
	queryBytesPerSQLByte = 4
)

// entryBytes approximates an entry's resident footprint. The plan nodes
// weigh most, then the tensors. The arms' plans share subtrees (the
// planner hash-conses them), so each distinct node is counted once, at
// its struct size plus its slices' payloads. The per-arm and per-group
// slices, the SQL text and, roughly, the analyzed query make up the rest
// (TestPlanCacheEntryBytes holds the estimate to a heap measurement).
func entryBytes(e *planCacheEntry) int64 {
	b := entryOverhead + (1+queryBytesPerSQLByte)*int64(len(e.sql))
	b += 8 * int64(len(e.plans)+len(e.cands)+len(e.armGroup)+len(e.uniq)+len(e.trees)+len(e.preds))
	for _, t := range e.trees {
		b += treeBytes + 8*int64(len(t.Feat)+len(t.Left)+len(t.Right))
	}
	seen := make(map[*planner.Node]struct{}, 64)
	var walk func(n *planner.Node)
	walk = func(n *planner.Node) {
		if _, ok := seen[n]; n == nil || ok {
			return
		}
		seen[n] = struct{}{}
		b += nodeBytes + filterBytes*int64(len(n.Filters)) + outColBytes*int64(len(n.Cols)) +
			aggSpecBytes*int64(len(n.Aggs)) + int64(len(n.SortDesc)) +
			8*int64(len(n.LeftKeys)+len(n.RightKeys)+len(n.SortCols)+len(n.GroupCols)+len(n.Projection))
		if n.IndexFilter != nil {
			b += filterBytes
		}
		walk(n.Left)
		walk(n.Right)
	}
	for _, p := range e.plans {
		walk(p)
	}
	return b
}
