// Package bufferpool simulates a database buffer cache: a fixed-capacity
// LRU over page identities with hit/miss accounting. It serves three roles
// in the reproduction: (1) it is the physical-I/O counter behind the
// simulated clock and the Figure 16b I/O-regret experiment, (2) its
// per-table cached fractions are the optional cache features Bao's
// vectorizer reads (§3.1.1), and (3) its capacity scales with the VM
// profile's RAM, which is how bigger VMs get faster.
package bufferpool

import (
	"container/list"
	"sync"
)

// PageID identifies one page of a table heap or index.
type PageID struct {
	Table string
	Index bool // true for index pages
	Page  int32
}

// Stats counts page accesses since the last ResetStats.
type Stats struct {
	Hits   int64
	Misses int64
}

// Total returns the number of page accesses counted.
func (s Stats) Total() int64 { return s.Hits + s.Misses }

// HitRate returns the hit fraction, zero when nothing was accessed.
func (s Stats) HitRate() float64 {
	if t := s.Total(); t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// Pool is an LRU page cache. It is safe for concurrent use: executions are
// serialized at query granularity by the layer above (the serving layer's
// execution lane, or the single-threaded harness), but cache-aware plan
// featurization reads per-table residency concurrently with executions, so
// reads take a shared lock and mutations an exclusive one.
type Pool struct {
	mu       sync.RWMutex
	capacity int
	lru      *list.List // front = most recent; values are PageID
	pages    map[PageID]*list.Element
	perTable map[string]int // resident heap pages per table
	perIndex map[string]int // resident index pages per table
	stats    Stats
}

// New creates a pool holding up to capacity pages. A capacity of 0 disables
// caching (every access is a miss), modeling a cold-only device.
func New(capacity int) *Pool {
	return &Pool{
		capacity: capacity,
		lru:      list.New(),
		pages:    make(map[PageID]*list.Element),
		perTable: make(map[string]int),
		perIndex: make(map[string]int),
	}
}

// Capacity returns the configured page capacity.
func (p *Pool) Capacity() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.capacity
}

// Len returns the number of resident pages.
func (p *Pool) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.lru.Len()
}

// Access touches a page, returning true on a cache hit. Misses insert the
// page, evicting the least recently used page if at capacity.
func (p *Pool) Access(id PageID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.pages[id]; ok {
		p.lru.MoveToFront(el)
		p.stats.Hits++
		return true
	}
	p.stats.Misses++
	if p.capacity == 0 {
		return false
	}
	if p.lru.Len() >= p.capacity {
		back := p.lru.Back()
		old := back.Value.(PageID)
		p.lru.Remove(back)
		delete(p.pages, old)
		p.uncount(old)
	}
	p.pages[id] = p.lru.PushFront(id)
	if id.Index {
		p.perIndex[id.Table]++
	} else {
		p.perTable[id.Table]++
	}
	return false
}

// Contains reports residency without touching LRU order or stats.
func (p *Pool) Contains(id PageID) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, ok := p.pages[id]
	return ok
}

// uncount decrements the residency counter for an evicted page.
func (p *Pool) uncount(id PageID) {
	if id.Index {
		p.perIndex[id.Table]--
	} else {
		p.perTable[id.Table]--
	}
}

// CachedFraction returns the fraction of a table's heap pages currently
// resident, given the table's total page count. This is the cache feature
// Bao's vectorizer attaches to scan nodes.
func (p *Pool) CachedFraction(table string, totalPages int) float64 {
	if totalPages <= 0 {
		return 0
	}
	p.mu.RLock()
	resident := p.perTable[table]
	p.mu.RUnlock()
	f := float64(resident) / float64(totalPages)
	if f > 1 {
		f = 1
	}
	return f
}

// CachedIndexFraction is CachedFraction for a table's index pages, used by
// the vectorizer for index-only scans (whose I/O never touches the heap).
func (p *Pool) CachedIndexFraction(table string, totalPages int) float64 {
	if totalPages <= 0 {
		return 0
	}
	p.mu.RLock()
	resident := p.perIndex[table]
	p.mu.RUnlock()
	f := float64(resident) / float64(totalPages)
	if f > 1 {
		f = 1
	}
	return f
}

// Stats returns accumulated hit/miss counts.
func (p *Pool) Stats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.stats
}

// ResetStats zeroes the counters without evicting pages.
func (p *Pool) ResetStats() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats = Stats{}
}

// Clear evicts everything and zeroes counters (cold-cache experiments).
func (p *Pool) Clear() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lru.Init()
	p.pages = make(map[PageID]*list.Element)
	p.perTable = make(map[string]int)
	p.perIndex = make(map[string]int)
	p.stats = Stats{}
}

// Resize changes capacity, evicting LRU pages if shrinking. Used when an
// experiment switches VM profiles.
func (p *Pool) Resize(capacity int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.capacity = capacity
	for p.lru.Len() > capacity {
		back := p.lru.Back()
		old := back.Value.(PageID)
		p.lru.Remove(back)
		delete(p.pages, old)
		p.uncount(old)
	}
}
