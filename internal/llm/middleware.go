package llm

import (
	"container/list"
	"context"
	"crypto/sha256"
	"sync"
	"unsafe"
)

// --- caching ---

// CacheStats reports caching-middleware effectiveness.
type CacheStats struct {
	Hits      int
	Misses    int
	Evictions int
}

// CachingClient is an LRU completion cache. Identical requests (same
// messages and purpose) across drivers are served from memory without
// consulting — or billing — the underlying model. On the synthetic
// corpus no two requests of a full worklist are identical: `kernelgpt
// -stats` reports 0 hits for gpt-4 (0/413 driver and 0/329 socket
// requests), gpt-3.5 (0/389, 0/343) and gpt-4o (0/412, 0/327). Safe
// for concurrent use; two racing identical misses may both reach the
// inner client (the second result wins the cache slot), which is
// correct for deterministic models and merely wasteful otherwise.
type CachingClient struct {
	inner   Client
	mu      sync.Mutex
	entries map[string]*list.Element // guarded by mu
	order   *list.List               // guarded by mu; front = most recent
	max     int
	stats   CacheStats // guarded by mu
}

type cacheEntry struct {
	key  string
	resp Response
}

// NewCaching wraps a client with an LRU response cache holding up to
// max entries (max <= 0 selects a default of 1024).
func NewCaching(inner Client, max int) *CachingClient {
	if max <= 0 {
		max = 1024
	}
	return &CachingClient{
		inner:   inner,
		entries: map[string]*list.Element{},
		order:   list.New(),
		max:     max,
	}
}

// WithCache is the Middleware form of NewCaching.
func WithCache(max int) Middleware {
	return func(c Client) Client { return NewCaching(c, max) }
}

// cacheKey folds the request into a fixed-size deduplication key (a
// digest, so multi-KB prompts are not retained as map keys). The
// driver name is deliberately excluded: two drivers asking the
// identical question about the same source must share one
// completion.
func cacheKey(req Request) string {
	h := sha256.New()
	h.Write(stringBytes(req.Purpose))
	for _, m := range req.Messages {
		h.Write(keySep)
		h.Write(stringBytes(m.Role))
		h.Write(keySep)
		h.Write(stringBytes(m.Content))
	}
	return string(h.Sum(nil))
}

// keySep separates the fields cacheKey hashes.
var keySep = []byte{0}

// stringBytes views s as bytes without copying it, for a hash to read
// in place: a Writer must neither modify nor retain what it is given.
func stringBytes(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// Complete implements Client.
func (c *CachingClient) Complete(ctx context.Context, req Request) (Response, error) {
	key := cacheKey(req)
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		resp := el.Value.(*cacheEntry).resp
		c.stats.Hits++
		c.mu.Unlock()
		resp.Cached = true
		resp.Usage = Usage{}
		return resp, nil
	}
	c.stats.Misses++
	c.mu.Unlock()

	resp, err := c.inner.Complete(ctx, req)
	if err != nil {
		return resp, err
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).resp = resp
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, resp: resp})
		if c.order.Len() > c.max {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(*cacheEntry).key)
			c.stats.Evictions++
		}
	}
	c.mu.Unlock()
	return resp, nil
}

// Usage implements Client (cache hits cost nothing, so the inner
// totals are the true spend).
func (c *CachingClient) Usage() Usage { return c.inner.Usage() }

// Name implements Client.
func (c *CachingClient) Name() string { return c.inner.Name() }

// Unwrap exposes the wrapped client for chain walking.
func (c *CachingClient) Unwrap() Client { return c.inner }

// Stats returns a snapshot of hit/miss/eviction counts.
func (c *CachingClient) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// FindCache walks a middleware chain looking for a CachingClient, so
// callers holding only the outermost Client can still report cache
// effectiveness.
func FindCache(c Client) (*CachingClient, bool) {
	for c != nil {
		if cc, ok := c.(*CachingClient); ok {
			return cc, true
		}
		u, ok := c.(interface{ Unwrap() Client })
		if !ok {
			return nil, false
		}
		c = u.Unwrap()
	}
	return nil, false
}
