package engine

import (
	"container/list"
	"sync"
)

// lru is a mutex-guarded LRU keyed by request content hash, generic over
// the cached value. The engine keeps one instance, of analysis
// responses; a batch reads and fills it per file, under each file's own
// key. Stored values are immutable; hits hand back a
// deep defensive copy via the configured clone (fresh Findings slice AND
// fresh Notes backing arrays — see Response.clone) so one caller
// sorting, filtering, or appending to its response cannot race another's
// read of the shared cached value. Evictions are counted so /stats and
// /metrics can show cache pressure instead of hiding it.
type lru[V any] struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	clone     func(V) V
	evictions uint64
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int, clone func(V) V) *lru[V] {
	return &lru[V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
		clone: clone,
	}
}

func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return c.clone(el.Value.(*lruEntry[V]).val), true
}

func (c *lru[V]) put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry[V]).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
		c.evictions++
	}
}

func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func (c *lru[V]) evicted() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
