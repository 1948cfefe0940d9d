package core

import (
	"container/list"
	"math/bits"
	"sync"

	"bao/internal/nn"
	"bao/internal/obs"
	"bao/internal/planner"
	"bao/internal/sqlparser"
)

// queryFingerprint hashes the analyzed statement into a stable shape key:
// the fnv64 writer dedup.go hashes physical plans with, lifted to the
// query AST. Structure — tables, join graph, filter columns and
// operators, output shape — hashes exactly; literals are bucketed by
// magnitude so the repeated parameterized queries a real workload sends
// ("... WHERE votes > 1500" vs "> 1800") land in the same cache chain.
// Bucketing only widens the chain a lookup scans: a hit additionally
// requires canonical-SQL equality (see planCache.get), so two literal
// variants of one shape are distinct entries that merely share a slot.
func queryFingerprint(stmt *sqlparser.SelectStmt) uint64 {
	h := newFNV64()
	col := func(c sqlparser.ColRef) {
		h.str(c.Table)
		h.str(c.Column)
	}
	flag := func(b bool) {
		if b {
			h.tag(1)
		} else {
			h.tag(0)
		}
	}
	for _, t := range stmt.From {
		h.tag(1)
		h.str(t.Name)
		h.str(t.Alias)
	}
	for _, s := range stmt.Select {
		h.tag(2)
		h.u64(uint64(s.Agg))
		flag(s.Star)
		col(s.Col)
	}
	for _, p := range stmt.Where {
		switch p := p.(type) {
		case sqlparser.JoinPred:
			h.tag(3)
			col(p.Left)
			col(p.Right)
		case sqlparser.FilterPred:
			h.tag(4)
			col(p.Col)
			h.u64(uint64(p.Op))
			h.u64(literalBucket(p.Val))
		case sqlparser.BetweenPred:
			h.tag(5)
			col(p.Col)
			h.u64(literalBucket(p.Lo))
			h.u64(literalBucket(p.Hi))
		case sqlparser.InPred:
			h.tag(6)
			col(p.Col)
			h.u64(uint64(len(p.Vals)))
			for _, v := range p.Vals {
				h.u64(literalBucket(v))
			}
		default:
			h.tag(7)
		}
	}
	for _, g := range stmt.GroupBy {
		h.tag(8)
		col(g)
	}
	for _, o := range stmt.OrderBy {
		h.tag(9)
		col(o.Col)
		flag(o.Desc)
	}
	if stmt.Limit > 0 {
		h.tag(10)
		h.u64(uint64(bits.Len64(uint64(stmt.Limit))))
	}
	return uint64(h)
}

// literalBucket collapses a literal to its type and order of magnitude
// (bit length for ints, length bit-width for strings), so literal-only
// variants of one query shape share a fingerprint.
func literalBucket(l sqlparser.Literal) uint64 {
	switch {
	case l.Null:
		return 1 << 16
	case l.IsStr:
		return 1<<17 | uint64(bits.Len(uint(len(l.Str))))
	case l.Int < 0:
		return 1<<18 | uint64(bits.Len64(uint64(-l.Int)))
	default:
		return uint64(bits.Len64(uint64(l.Int)))
	}
}

// cacheVariant is the buffer-pool-dependent half of a cache entry: the
// featurized tensors and (when the entry has been predicted under the
// current model) the clamped predictions. Residency drift or a model
// swap replaces the whole variant rather than mutating it, so concurrent
// readers always see an internally consistent (signature, trees, preds)
// triple.
type cacheVariant struct {
	// resSig is the buffer-pool residency baked into trees: the
	// cache-residency feature of every scan node across the unique plans,
	// in tree order. A lookup recomputes the current residency and reuses
	// trees only on exact match, so cached featurization is byte-identical
	// to what fresh vectorization would produce.
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

// planCacheEntry is the per-shape work SelectCtx would otherwise redo on
// every repeat: the planned arm set, dedup groups, and (via variant) the
// featurized tensors and predictions. Entries are validated against the
// catalog version and statistics epoch they were planned under and
// dropped when either moves.
type planCacheEntry struct {
	fp         uint64
	canon      string // canonical SQL — exact-match key within a fingerprint chain
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

// planCache is the query-fingerprint plan cache: an LRU bounded by entry
// count and by the approximate resident bytes of the cached tensors.
// Fingerprint collisions (including deliberate ones from literal
// bucketing) chain; a hit requires canonical-SQL equality plus matching
// catalog and statistics epochs. All methods are safe for concurrent
// use.
type planCache struct {
	maxEntries int
	maxBytes   int64
	o          *obs.Observer

	mu     sync.Mutex
	chains map[uint64][]*planCacheEntry
	lru    *list.List // of *planCacheEntry; front = most recent
	bytes  int64
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
		chains:     make(map[uint64][]*planCacheEntry),
		lru:        list.New(),
	}
}

// get returns the entry for (fp, canon) if present and still valid under
// the given catalog version and statistics epoch. A stale entry is
// removed and the lookup misses, so invalidation needs no sweep: the
// next repeat of an invalidated shape replans and repopulates. Counting
// the hit or miss is the caller's job (a miss here is followed by a put,
// and the caller holds the trace).
func (c *planCache) get(fp uint64, canon string, schemaVer, statsEpoch uint64) *planCacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.chains[fp] {
		if e.canon != canon {
			continue
		}
		if e.schemaVer != schemaVer || e.statsEpoch != statsEpoch {
			c.removeLocked(e)
			c.publishLocked()
			return nil
		}
		c.lru.MoveToFront(e.elem)
		return e
	}
	return nil
}

// put inserts an entry, replacing any existing entry with the same
// (fp, canon) and evicting from the LRU tail until both bounds hold. An
// entry bigger than the byte cap on its own is not cached. Eviction runs
// before the gauges are published, so the bytes gauge never reads above
// the cap.
func (c *planCache) put(e *planCacheEntry) {
	e.bytes = entryBytes(e)
	if e.bytes > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, old := range c.chains[e.fp] {
		if old.canon == e.canon {
			c.removeLocked(old)
			break
		}
	}
	e.elem = c.lru.PushFront(e)
	c.chains[e.fp] = append(c.chains[e.fp], e)
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
// rather than lazy, e.g. tests forcing a cold cache).
func (c *planCache) flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.chains = make(map[uint64][]*planCacheEntry)
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
	chain := c.chains[e.fp]
	for i, x := range chain {
		if x == e {
			chain[i] = chain[len(chain)-1]
			chain = chain[:len(chain)-1]
			break
		}
	}
	if len(chain) == 0 {
		delete(c.chains, e.fp)
	} else {
		c.chains[e.fp] = chain
	}
	c.bytes -= e.bytes
}

func (c *planCache) publishLocked() {
	c.o.PlanCacheEntries.Set(float64(c.lru.Len()))
	c.o.PlanCacheBytes.Set(float64(c.bytes))
}

// entryBytes approximates an entry's resident footprint: the featurized
// tensors dominate (N nodes × feature-dim float64s per unique plan), so
// the estimate counts tensor, prediction, and signature payloads plus a
// small fixed overhead for the plan skeletons and bookkeeping.
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

// residencyFromPlans samples the current buffer-pool residency of every
// scan node across the unique plans, in the same pre-order the tensor
// encoding visits them, for comparison against a cached variant's
// signature. Nil when the featurizer is cache-oblivious (no residency in
// the features, so no drift to detect).
func (f *Featurizer) residencyFromPlans(uniq []*planner.Node) []float64 {
	if f.CacheFrac == nil {
		return nil
	}
	var sig []float64
	var walk func(n *planner.Node)
	walk = func(n *planner.Node) {
		if n == nil {
			return
		}
		if n.IsScan() {
			sig = append(sig, f.CacheFrac(n.Table, n.Op == planner.OpIndexOnlyScan))
		}
		walk(n.Left)
		walk(n.Right)
	}
	for _, p := range uniq {
		walk(p)
	}
	return sig
}
