// Package cache provides the concurrency-safe, content-addressed result
// cache behind the partitioning service. The methodology is a pure
// function from (source hash, entry, profiling inputs, Options) to a
// partition, so results can be keyed by a canonical fingerprint of those
// inputs and shared across clients.
//
// The package is the coalescing layer: it owns singleflight — N identical
// in-flight requests cost one compile+profile+partition — and the
// hit/miss accounting, while the entry storage itself is a pluggable
// store.Backend beneath it (the bounded in-memory LRU by default, or the
// disk-backed store so a restarted replica comes back warm). The service
// instantiates the cache with encoded response bytes, which makes cache
// hits byte-identical to the miss that populated them by construction.
package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hybridpart/internal/obs"
	"hybridpart/internal/store"
)

// Stats is a point-in-time snapshot of the cache counters: the coalescing
// layer's hits/misses/coalesced merged with the backend's size, capacity
// and eviction counts.
type Stats = store.Stats

// Cache is a coalescing front over a store.Backend. The zero value is not
// usable; construct with New or NewBacked.
type Cache struct {
	be       store.Backend
	mu       sync.Mutex
	inflight map[string]*call
	stats    Stats // only the Hits/Misses/Coalesced fields are maintained here
}

// call is one in-flight computation; waiters block on done.
type call struct {
	done chan struct{}
	val  []byte
	err  error
}

// New returns a Cache over an in-memory LRU bounded to capacity entries
// (minimum 1) — the configuration the service has always defaulted to.
func New(capacity int) *Cache {
	return NewBacked(store.NewMemory(capacity))
}

// NewBacked returns a Cache over an explicit backend (e.g. a store.Disk
// so results survive restarts). The cache assumes sole ownership of the
// backend's keyspace; closing the backend remains the caller's job.
func NewBacked(be store.Backend) *Cache {
	return &Cache{
		be:       be,
		inflight: make(map[string]*call),
	}
}

// Get returns the stored value for key, marking it most recently used.
// It counts as neither hit nor miss: use GetOrCompute for the instrumented
// read path.
func (c *Cache) Get(key string) ([]byte, bool) { return c.be.Get(key) }

// GetOrCompute returns the value for key, computing and storing it on a
// miss. Concurrent callers for the same key are coalesced: exactly one runs
// compute, the rest block until it finishes and share its result. hit
// reports whether the caller was served without running compute itself
// (a stored entry or a joined in-flight call).
//
// A failed compute is not cached — waiters receive the error and the next
// lookup recomputes. Context failures are special-cased so one client
// cannot doom the others: a waiter whose own ctx is cancelled stops
// waiting and returns ctx.Err() (the computation keeps running for the
// rest), and a waiter whose leader died of the *leader's* context
// (cancelled or timed out) retries the lookup instead of inheriting the
// error, becoming — or joining — the next leader. The leader's compute
// decides its own cancellation, so callers that must abort pass a compute
// closed over the same ctx.
func (c *Cache) GetOrCompute(ctx context.Context, key string, compute func() ([]byte, error)) (v []byte, hit bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// One span covers the whole lookup whatever singleflight role this
	// caller ends up playing; the role lands as an attribute at the exit.
	ctx, span := obs.Start(ctx, "cache.lookup")
	var cl *call
	coalesced := false // count each caller at most once, however often it retries
	for {
		// A stored entry needs no in-flight record: probe the backend
		// first, outside the map lock so backend I/O (a disk read) never
		// serializes unrelated keys.
		if val, ok := c.probe(ctx, key); ok {
			c.hit(span)
			return val, true, nil
		}
		c.mu.Lock()
		waiting, ok := c.inflight[key]
		if !ok {
			// We lead for this key. Concurrent callers coalesce onto us from
			// here on; probe again, since a leader may have stored the entry
			// and left between our first probe and this registration.
			cl = &call{done: make(chan struct{})}
			c.inflight[key] = cl
			c.mu.Unlock()
			if val, ok := c.probe(ctx, key); ok {
				cl.val = val
				c.finish(ctx, key, cl, false) // already stored
				c.hit(span)
				return val, true, nil
			}
			c.mu.Lock()
			c.stats.Misses++
			c.mu.Unlock()
			break
		}
		if !coalesced {
			c.stats.Coalesced++
			coalesced = true
		}
		c.mu.Unlock()
		select {
		case <-waiting.done:
			if isContextErr(waiting.err) && ctx.Err() == nil {
				continue // the leader's cancellation, not ours: retry
			}
			endLookup(span, "waiter", true)
			return waiting.val, true, waiting.err
		case <-ctx.Done():
			if span != nil {
				span.Set(obs.String("role", "waiter"), obs.Bool("hit", false), obs.String("error", ctx.Err().Error()))
			}
			span.End()
			return nil, false, ctx.Err()
		}
	}

	// The call must always resolve, even if compute panics — a leaked
	// in-flight entry would hang every future caller of this key.
	completed := false
	defer func() {
		if !completed {
			cl.err = fmt.Errorf("cache: compute for %q panicked", key)
			c.finish(ctx, key, cl, false)
			endLookup(span, "leader", false)
		}
	}()
	cl.val, cl.err = compute()
	completed = true
	c.finish(ctx, key, cl, cl.err == nil)
	endLookup(span, "leader", false)
	return cl.val, false, cl.err
}

// probe reads key from the backend under a store.get span.
func (c *Cache) probe(ctx context.Context, key string) ([]byte, bool) {
	_, gs := obs.Start(ctx, "store.get")
	val, ok := c.be.Get(key)
	gs.Set(obs.Bool("hit", ok))
	gs.End()
	return val, ok
}

// hit counts a lookup served from a stored entry and ends its span.
func (c *Cache) hit(span *obs.Span) {
	c.mu.Lock()
	c.stats.Hits++
	c.mu.Unlock()
	endLookup(span, "stored", true)
}

// endLookup ends a cache.lookup span with its singleflight role. The
// attributes are built only on a live span: boxing them costs allocations
// that a disabled trace should not pay.
func endLookup(span *obs.Span, role string, hit bool) {
	if span != nil {
		span.Set(obs.String("role", role), obs.Bool("hit", hit))
	}
	span.End()
}

// isContextErr reports whether err is a context cancellation or deadline
// failure — the error class that belongs to one caller rather than to the
// computation itself.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// finish publishes a completed call: stores the value on success, removes
// the in-flight marker and releases the waiters. The value lands in the
// backend before the in-flight marker goes, so no caller can observe
// neither. ctx is for tracing only — the publish itself must not be
// cancellable.
func (c *Cache) finish(ctx context.Context, key string, cl *call, storeVal bool) {
	if storeVal {
		_, ps := obs.Start(ctx, "store.put", obs.Int("bytes", len(cl.val)))
		c.be.Put(key, cl.val)
		ps.End()
	}
	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(cl.done)
}

// Len returns the current number of stored entries.
func (c *Cache) Len() int { return c.be.Len() }

// Stats returns a snapshot of the cache counters: the backend's
// size/capacity/evictions merged with this layer's hits/misses/coalesced.
func (c *Cache) Stats() Stats {
	s := c.be.Stats()
	c.mu.Lock()
	s.Hits = c.stats.Hits
	s.Misses = c.stats.Misses
	s.Coalesced = c.stats.Coalesced
	c.mu.Unlock()
	return s
}
