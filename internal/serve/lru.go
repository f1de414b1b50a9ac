package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// lru is a byte-budget LRU cache with build deduplication (singleflight):
// concurrent GetOrBuild calls for the same absent key run the build once
// and share its result. It backs both server caches — built Prepared
// systems and uploaded matrices.
//
// Entries are immutable once inserted (the cached values are read-only by
// construction), so eviction never waits for readers: a solve holding an
// evicted *fsaicomm.Prepared finishes on it while the cache forgets it.
// What an entry owns beyond memory is released through onEvict.
type lru struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	flights map[string]*flight
	// onEvict, when set, is handed every value the cache evicts or clears,
	// after the lock is released. It must not wait for the value's users.
	onEvict func(val any)

	hits, misses, evictions *atomic.Int64
}

type lruEntry struct {
	key   string
	val   any
	bytes int64
}

// flight is one in-progress build; waiters block on done.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// newLRU wires a cache to the metrics counters it reports into. budget ≤ 0
// means unbounded.
func newLRU(budget int64, hits, misses, evictions *atomic.Int64, onEvict func(val any)) *lru {
	return &lru{
		budget:  budget,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[string]*flight),
		onEvict: onEvict,
		hits:    hits, misses: misses, evictions: evictions,
	}
}

// release hands the values the cache has dropped to onEvict; called with the
// lock released.
func (c *lru) release(gone []any) {
	if c.onEvict != nil {
		for _, v := range gone {
			c.onEvict(v)
		}
	}
}

func (c *lru) Budget() int64 { return c.budget }

func (c *lru) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func (c *lru) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Get returns the cached value and marks it most recently used.
func (c *lru) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*lruEntry).val, true
	}
	c.misses.Add(1)
	return nil, false
}

// Find returns the most recently used value whose key match accepts. It is
// a look, not a use: recency and the hit and miss counters stand still.
func (c *lru) Find(match func(key string) bool) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if ent := el.Value.(*lruEntry); match(ent.key) {
			return ent.val, true
		}
	}
	return nil, false
}

// Add inserts (or refreshes) a value and evicts from the cold end until the
// budget holds again. The newest entry is never evicted, so a single value
// larger than the whole budget is still cached and served.
func (c *lru) Add(key string, val any, bytes int64) {
	c.mu.Lock()
	gone := c.add(key, val, bytes)
	c.mu.Unlock()
	c.release(gone)
}

// add inserts under the lock and returns the values it evicted.
func (c *lru) add(key string, val any, bytes int64) (gone []any) {
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*lruEntry)
		c.used += bytes - ent.bytes
		ent.val, ent.bytes = val, bytes
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val, bytes: bytes})
		c.used += bytes
	}
	return c.trim()
}

// trim evicts from the cold end until the budget holds, sparing the newest
// entry, and returns the evicted values.
func (c *lru) trim() (gone []any) {
	for c.budget > 0 && c.used > c.budget && c.ll.Len() > 1 {
		el := c.ll.Back()
		ent := el.Value.(*lruEntry)
		c.ll.Remove(el)
		delete(c.items, ent.key)
		c.used -= ent.bytes
		c.evictions.Add(1)
		gone = append(gone, ent.val)
	}
	return gone
}

// Recharge corrects what the entry holding val is charged — a value whose
// footprint changes after insertion reports it here — and evicts from the
// cold end if the budget no longer holds. A val the cache has let go of in
// the meantime is not put back.
func (c *lru) Recharge(key string, val any, bytes int64) {
	c.mu.Lock()
	var gone []any
	if el, ok := c.items[key]; ok {
		if ent := el.Value.(*lruEntry); ent.val == val && ent.bytes != bytes {
			c.used += bytes - ent.bytes
			ent.bytes = bytes
			gone = c.trim()
		}
	}
	c.mu.Unlock()
	c.release(gone)
}

// Clear empties the cache, handing every value to onEvict. These are not
// evictions: the counter stands still.
func (c *lru) Clear() {
	c.mu.Lock()
	var gone []any
	for el := c.ll.Front(); el != nil; el = el.Next() {
		gone = append(gone, el.Value.(*lruEntry).val)
	}
	c.ll.Init()
	clear(c.items)
	c.used = 0
	c.mu.Unlock()
	c.release(gone)
}

// GetOrBuild returns the cached value for key, building it at most once
// across concurrent callers. hit reports whether this caller avoided the
// build: true for cache hits and for callers that joined another caller's
// in-progress build (they paid no setup either — that is what the hit/miss
// split measures). Build errors are not cached; every waiter of the failed
// flight sees the error and the next call retries.
func (c *lru) GetOrBuild(key string, build func() (any, int64, error)) (val any, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		v := el.Value.(*lruEntry).val
		c.mu.Unlock()
		return v, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, false, f.err
		}
		c.hits.Add(1)
		return f.val, true, nil
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.misses.Add(1)
	c.mu.Unlock()

	v, bytes, err := build()
	c.mu.Lock()
	delete(c.flights, key)
	var gone []any
	if err == nil {
		gone = c.add(key, v, bytes)
	}
	c.mu.Unlock()
	c.release(gone)
	f.val, f.err = v, err
	close(f.done)
	if err != nil {
		return nil, false, err
	}
	return v, false, nil
}
