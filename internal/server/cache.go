package server

import (
	"container/list"
	"sync"
	"time"
)

// CacheKey is the raw SHA-256 of a spec's canonical encoding — the job's
// content address as a fixed-size array, so the hot path never allocates
// a hex string to index the cache.
type CacheKey [32]byte

// Cache is the content-addressed result store: canonical-spec key →
// finished Outcome, one LRU behind one mutex. Only successful outcomes
// are cached (failures and cancellations must re-run), and eviction is
// LRU, so sweeps larger than the capacity degrade to recomputation, never
// to an error. Entries and Outcomes are immutable once inserted — a
// replacement is a new entry, never an in-place write — so a reader
// holding an entry after the cache unlocks is always safe.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	entries   map[CacheKey]*list.Element
	order     *list.List // front = most recently used
	evictions uint64
}

// cacheEntry is one cached result. hexHash and spec are frozen at insert
// time so a cache hit can mint its response View without re-encoding.
type cacheEntry struct {
	key     CacheKey
	hexHash string
	spec    JobSpec
	outcome *Outcome
}

// hitView is the response for a request served straight from this entry:
// a terminal, cache-hit view that never touched the job table. It has no
// job ID — nothing was minted — and SubmittedAt doubles as the serve time.
func (e *cacheEntry) hitView(now time.Time) View {
	return View{
		Hash:        e.hexHash,
		Spec:        e.spec,
		State:       StateDone,
		Outcome:     e.outcome,
		CacheHit:    true,
		SubmittedAt: now,
	}
}

// NewCache builds a cache holding at most capacity outcomes; capacity
// <= 0 disables caching entirely (every lookup misses, every put drops).
func NewCache(capacity int) *Cache {
	return &Cache{capacity: capacity, entries: make(map[CacheKey]*list.Element), order: list.New()}
}

// lookup returns the cached entry for a key, refreshing its recency.
func (c *Cache) lookup(key CacheKey) (*cacheEntry, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.order.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	c.mu.Unlock()
	return ent, true
}

// put inserts a fully-formed entry, evicting the least recently used
// entries when full. An existing key is replaced with the new entry
// (never mutated in place — readers may hold the old one outside the lock).
func (c *Cache) put(ent *cacheEntry) {
	if c.capacity <= 0 || ent.outcome == nil {
		return
	}
	c.mu.Lock()
	if el, ok := c.entries[ent.key]; ok {
		el.Value = ent
		c.order.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.entries[ent.key] = c.order.PushFront(ent)
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.mu.Unlock()
}

// putOutcome caches a finished job's result under its content address.
func (c *Cache) putOutcome(job *Job, out *Outcome) {
	c.put(&cacheEntry{key: job.key, hexHash: job.Hash, spec: job.Spec, outcome: out})
}
