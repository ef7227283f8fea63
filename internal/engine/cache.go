package engine

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/sql"
)

// PlanCache is a bounded LRU cache of compiled bindings keyed on
// sql.Normalize'd statement text. A binding carries its executable plans
// (sql.Binding.Plan), so a hit skips lex/parse/bind and planning; what is
// left is plan.Catalog.Pin. Bindings are immutable after compilation, so one
// cached entry may be executed by any number of sessions concurrently.
//
// Each entry records the schema epochs of the tables the binding depends
// on (see store.Table.SchemaEpoch). The engine re-validates them on every
// hit and drops entries whose tables were dropped or re-created — a stale
// binding would otherwise execute against replaced columns with the old
// scales.
type PlanCache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recently used; values are *cacheEntry
	byKey map[string]*list.Element

	hits, misses, evictions, invalidations int64
}

type cacheEntry struct {
	key  string
	b    *sql.Binding
	deps map[string]uint64 // table name -> schema epoch at compile time
}

// NewPlanCache returns a cache holding up to capacity bindings. A zero or
// negative capacity disables caching (every Get misses, Put is a no-op).
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{cap: capacity, lru: list.New(), byKey: make(map[string]*list.Element)}
}

// Get returns the cached binding for key — bytes, so a caller can normalize
// into a reused buffer and the lookup allocates nothing — marking it most
// recently used. valid re-checks the entry's recorded table epochs against
// the catalog; an entry whose dependencies changed is removed and reported
// as a miss (counted as an invalidation).
func (p *PlanCache) Get(key []byte, valid func(deps map[string]uint64) bool) (*sql.Binding, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	el, ok := p.byKey[string(key)]
	if !ok {
		p.misses++
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if valid != nil && !valid(e.deps) {
		p.lru.Remove(el)
		delete(p.byKey, e.key)
		p.invalidations++
		p.misses++
		return nil, false
	}
	p.hits++
	p.lru.MoveToFront(el)
	return e.b, true
}

// Put inserts a binding with its table-epoch dependencies, evicting the
// least recently used entry when the cache is full. Re-putting an existing
// key refreshes its binding.
func (p *PlanCache) Put(key string, b *sql.Binding, deps map[string]uint64) {
	if p.cap <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.byKey[key]; ok {
		e := el.Value.(*cacheEntry)
		e.b, e.deps = b, deps
		p.lru.MoveToFront(el)
		return
	}
	if p.lru.Len() >= p.cap {
		oldest := p.lru.Back()
		p.lru.Remove(oldest)
		delete(p.byKey, oldest.Value.(*cacheEntry).key)
		p.evictions++
	}
	p.byKey[key] = p.lru.PushFront(&cacheEntry{key: key, b: b, deps: deps})
}

// CacheStats is a point-in-time snapshot of cache counters.
type CacheStats struct {
	Hits, Misses, Evictions int64
	Invalidations           int64
	Len, Cap                int
}

// Stats returns the current counters.
func (p *PlanCache) Stats() CacheStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return CacheStats{
		Hits: p.hits, Misses: p.misses, Evictions: p.evictions,
		Invalidations: p.invalidations,
		Len:           p.lru.Len(), Cap: p.cap,
	}
}

func (s CacheStats) String() string {
	return fmt.Sprintf("plan cache: %d hits, %d misses, %d evictions, %d invalidated, %d/%d entries",
		s.Hits, s.Misses, s.Evictions, s.Invalidations, s.Len, s.Cap)
}
