package par

import "sync"

// OnceMap caches one value per key, computed exactly once: the first
// caller of a key runs compute while later callers of that key wait for
// its result (error included), and callers of other keys proceed. The zero
// value is ready; a compute may Get other keys, never its own.
type OnceMap[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*onceEntry[V]
}

type onceEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// Get returns key's value, computing it on the first call.
func (c *OnceMap[K, V]) Get(key K, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = map[K]*onceEntry[V]{}
	}
	e := c.m[key]
	if e == nil {
		e = &onceEntry[V]{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v, e.err = compute() })
	return e.v, e.err
}
