package core

import (
	"container/list"
	"sync"

	"bao/internal/nn"
	"bao/internal/obs"
	"bao/internal/planner"
)

// cacheVariant is the buffer-pool-dependent half of a cache entry: the
// featurized tensors and (when the entry has been predicted under the
// current model) the clamped predictions. Residency drift or a model
// swap replaces the whole variant rather than mutating it, so concurrent
// readers always see an internally consistent (signature, trees, preds)
// triple.
type cacheVariant struct {
	// resSig is the buffer-pool residency baked into trees: the
	// cache-residency feature of every scan node across the unique plans,
	// in tree order. A hit compares the current residency against it and
	// reuses trees only on exact match, so cached featurization is
	// byte-identical to what fresh vectorization would produce.
	resSig []float64
	trees  []*nn.Tree // one tensor per dedup group
	// preds are the clamped per-group predictions computed under model
	// version predsVer; nil until a trained select populates them (and
	// left nil when no prediction was finite — degenerate outputs are
	// never cached). finite is the finite-prediction count that went with
	// preds, reused by the breaker's degenerate-output check.
	preds    []float64
	predsVer uint64
	finite   int
}

// planCacheEntry is the work SelectCtx would otherwise redo on every
// repeat of one SQL text: the analyzed query, the planned arm set, dedup
// groups, and (via variant) the featurized tensors and predictions.
// Entries are validated against the catalog version and statistics epoch
// they were analyzed and planned under and dropped when either moves.
// Everything but variant is immutable once stored; hits share it.
type planCacheEntry struct {
	sql        string         // the exact SQL text: the cache key
	query      *planner.Query // sql analyzed under schemaVer
	schemaVer  uint64
	statsEpoch uint64

	plans    []*planner.Node
	cands    []int
	armGroup []int
	uniq     []*planner.Node // representative plan per dedup group

	variant *cacheVariant
	bytes   int64
	elem    *list.Element
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

// put inserts an entry, replacing any existing entry for the same text
// and evicting from the LRU tail until both bounds hold. An entry bigger
// than the byte cap on its own is not cached. Eviction runs before the
// gauges are published, so the bytes gauge never reads above the cap.
func (c *planCache) put(e *planCacheEntry) {
	e.bytes = entryBytes(e)
	if e.bytes > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.entries[e.sql]; old != nil {
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

// replaceVariant swaps in a recomputed variant for a resident entry,
// keeping the planned-arm half. Versions only move forward: a slow
// request publishing predictions for a model that has since been swapped
// out loses to the request that already published newer ones. The
// entry's byte accounting follows the variant, evicting if the new
// tensors push the cache over its cap.
func (c *planCache) replaceVariant(e *planCacheEntry, v *cacheVariant) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.elem == nil { // evicted since the lookup
		return
	}
	cur := e.variant
	if v.predsVer < cur.predsVer {
		return
	}
	if v.predsVer == cur.predsVer && v.preds == nil && cur.preds != nil &&
		floatsEqual(v.resSig, cur.resSig) {
		return // nothing new: same residency, and we'd drop predictions
	}
	e.variant = v
	nb := entryBytes(e)
	c.bytes += nb - e.bytes
	e.bytes = nb
	for c.bytes > c.maxBytes {
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
// detached, so a selection still holding one cannot write a variant back
// into the byte count.
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
// the estimate counts tensor, prediction, and signature payloads plus a
// small fixed overhead for the plan skeletons, analyzed query and
// bookkeeping.
func entryBytes(e *planCacheEntry) int64 {
	const overhead = 512
	b := int64(overhead)
	b += int64(len(e.plans))*16 + int64(len(e.cands)+len(e.armGroup)+len(e.uniq))*8
	v := e.variant
	if v == nil {
		return b
	}
	for _, t := range v.trees {
		b += int64(len(t.Feat))*8 + int64(len(t.Left)+len(t.Right))*8
	}
	b += int64(len(v.preds)+len(v.resSig)) * 8
	return b
}

// floatsEqual reports bitwise equality of two float64 slices (the
// residency-signature comparison; NaN never appears in residency
// fractions, and bit-level comparison is what the byte-identical
// determinism contract needs anyway).
func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// residencyFromTrees reads back the buffer-pool residency baked into the
// cached tensors: the cache-residency feature of every scan-node row, in
// tree order. Extracting from the tensors themselves (rather than
// re-sampling the pool at store time) makes the signature exactly
// consistent with the features it guards.
func residencyFromTrees(trees []*nn.Tree) []float64 {
	var sig []float64
	for _, t := range trees {
		for n := 0; n < t.N; n++ {
			row := t.Feat[n*t.D : (n+1)*t.D]
			if rowIsScan(row) {
				sig = append(sig, row[int(planner.NumOps)+3])
			}
		}
	}
	return sig
}

// rowIsScan reports whether a feature row's operator one-hot marks a
// base-relation scan (mirrors planner.Node.IsScan over the encoding laid
// down by Featurizer.Vectorize).
func rowIsScan(row []float64) bool {
	return row[int(planner.OpSeqScan)] == 1 ||
		row[int(planner.OpIndexScan)] == 1 ||
		row[int(planner.OpIndexOnlyScan)] == 1
}

// residencyMatches reports whether the current buffer-pool residency of
// every scan node across the unique plans, visited in the pre-order the
// tensor encoding uses, equals sig bit for bit. A cache-oblivious
// featurizer has no residency in its features, so no drift to detect.
func (f *Featurizer) residencyMatches(uniq []*planner.Node, sig []float64) bool {
	if f.CacheFrac == nil {
		return len(sig) == 0
	}
	i := 0
	for _, p := range uniq {
		i = f.matchScans(p, sig, i)
	}
	return i == len(sig)
}

// matchScans compares the scans under n, in pre-order, against sig from
// index i. It returns the index after them, or -1 from the first
// mismatch on.
func (f *Featurizer) matchScans(n *planner.Node, sig []float64, i int) int {
	if n == nil || i < 0 {
		return i
	}
	if n.IsScan() {
		if i == len(sig) || f.CacheFrac(n.Table, n.Op == planner.OpIndexOnlyScan) != sig[i] {
			return -1
		}
		i++
	}
	return f.matchScans(n.Right, sig, f.matchScans(n.Left, sig, i))
}
