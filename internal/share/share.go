// Package share is the tree's one implementation of work sharing: Cache,
// a bounded LRU of finished values in front of a singleflight table of
// in-flight executions, FanOut, a fixed-size job pool, and Buffers, a
// pool of byte buffers. The engine's dataset cache and campaign dedup,
// the serve layer's study and strategy result caches, the fleet's probe
// and per-shard fan-outs, and both ends' shard record buffers all run on
// them. It depends on the standard library only.
package share

import (
	"container/list"
	"sync"
)

// Source labels how Cache.Do obtained a value, from cheapest to most
// expensive.
type Source string

const (
	// Cached: the key was in the LRU of finished values.
	Cached Source = "result-cache"
	// Coalesced: the call joined an identical in-flight execution and
	// shares its value.
	Coalesced Source = "coalesced"
	// Executed: this call ran the execution itself.
	Executed Source = "executed"
)

// Cache collapses work by a comparable key: a call first probes the LRU
// of finished values, then either joins an identical in-flight execution
// or becomes the executor itself; executions that report themselves
// cacheable populate the LRU on the way out. Create with New; safe for
// concurrent use.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	inflight map[K]*flight[V]
	// LRU: entries maps keys to elements of order, whose front is the
	// most recently used. cap <= 0 disables caching.
	cap       int
	entries   map[K]*list.Element
	order     *list.List
	evictions int64
}

// flight is one in-flight execution; joiners block on done.
type flight[V any] struct {
	done chan struct{}
	res  V
}

// item is one cached value with its key for back-removal.
type item[K comparable, V any] struct {
	key K
	res V
}

// New returns a cache holding at most capacity finished values;
// capacity <= 0 caches nothing (calls still coalesce).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{
		inflight: map[K]*flight[V]{},
		cap:      capacity,
		entries:  map[K]*list.Element{},
		order:    list.New(),
	}
}

// Do returns the value for the key, along with how it was obtained. run
// is invoked at most once across all concurrent Do calls with the same
// key; its value is fanned out to every joiner and — when run reports
// it cacheable — stored for later calls. A value run reports
// uncacheable takes no slot and evicts nothing.
func (c *Cache[K, V]) Do(key K, run func() (V, bool)) (V, Source) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		res := el.Value.(*item[K, V]).res
		c.mu.Unlock()
		return res, Cached
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-f.done
		return f.res, Coalesced
	}
	f := &flight[V]{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	res, cacheable := run()
	f.res = res

	c.mu.Lock()
	delete(c.inflight, key)
	if cacheable && c.cap > 0 {
		c.entries[key] = c.order.PushFront(&item[K, V]{key: key, res: res})
		c.trimLocked()
	}
	c.mu.Unlock()
	close(f.done)
	return res, Executed
}

// SetCap rebounds the cache, evicting least recently used values past
// the new capacity; capacity <= 0 empties it and caches nothing more.
func (c *Cache[K, V]) SetCap(capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = capacity
	c.trimLocked()
}

// trimLocked evicts from the back until the cache fits its capacity.
// Callers must hold c.mu.
func (c *Cache[K, V]) trimLocked() {
	for c.order.Len() > max(c.cap, 0) {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*item[K, V]).key)
		c.evictions++
	}
}

// Len returns the number of cached values; in-flight executions do not
// count.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Evictions returns how many values the capacity has evicted over the
// cache's lifetime.
func (c *Cache[K, V]) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// FanOut runs fn(i) for every i in [0, n) across workers goroutines and
// waits for all of them. Jobs are handed out in index order.
func FanOut(n, workers int, fn func(int)) {
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// maxPooledBuffer is the largest buffer Buffers keeps: a paper-geometry
// trial's shard record is about 150 KiB, and a rare huge one is left to
// the collector rather than pinned.
const maxPooledBuffer = 1 << 20

// Buffers is a pool of byte buffers reused from one exchange to the
// next. The zero value is ready for use.
type Buffers struct{ pool sync.Pool }

// Get returns an empty buffer, with a pooled one's capacity when there
// is one.
func (b *Buffers) Get() []byte {
	if p, ok := b.pool.Get().(*[]byte); ok {
		return (*p)[:0]
	}
	return nil
}

// Put hands buf back for reuse, unless it is over maxPooledBuffer;
// nothing may use it afterwards.
func (b *Buffers) Put(buf []byte) {
	if cap(buf) > 0 && cap(buf) <= maxPooledBuffer {
		buf = buf[:0]
		b.pool.Put(&buf)
	}
}
