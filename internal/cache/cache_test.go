package cache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hybridpart/internal/store"
)

func bs(s string) []byte { return []byte(s) }

func TestGetOrComputeBasics(t *testing.T) {
	c := New(4)
	calls := 0
	compute := func() ([]byte, error) { calls++; return bs("42"), nil }

	v, hit, err := c.GetOrCompute(context.Background(), "k", compute)
	if err != nil || hit || string(v) != "42" {
		t.Fatalf("miss: got (%q, %v, %v)", v, hit, err)
	}
	v, hit, err = c.GetOrCompute(context.Background(), "k", compute)
	if err != nil || !hit || string(v) != "42" {
		t.Fatalf("hit: got (%q, %v, %v)", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Size != 1 || s.Capacity != 4 {
		t.Fatalf("stats: %+v", s)
	}
	if v, ok := c.Get("k"); !ok || string(v) != "42" {
		t.Fatalf("Get: got (%q, %v)", v, ok)
	}
	if _, ok := c.Get("absent"); ok {
		t.Fatal("Get invented an entry")
	}
}

// TestBackedStats: the Stats snapshot merges the backend's entry counters
// with the coalescing layer's hit/miss counters, whatever the backend.
func TestBackedStats(t *testing.T) {
	be := store.NewMemory(2)
	c := NewBacked(be)
	for _, k := range []string{"a", "b", "c"} {
		k := k
		if _, _, err := c.GetOrCompute(nil, k, func() ([]byte, error) { return bs("v" + k), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.GetOrCompute(nil, "c", nil); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Misses != 3 || s.Hits != 1 || s.Evictions != 1 || s.Size != 2 || s.Capacity != 2 {
		t.Fatalf("merged stats: %+v", s)
	}
	if bst := be.Stats(); bst.Hits != 0 || bst.Misses != 0 {
		t.Fatalf("backend invented hit/miss counters: %+v", bst)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(4)
	boom := errors.New("boom")
	calls := 0
	if _, _, err := c.GetOrCompute(nil, "k", func() ([]byte, error) {
		calls++
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed compute was cached")
	}
	// The next lookup recomputes, and success is then stored.
	v, hit, err := c.GetOrCompute(nil, "k", func() ([]byte, error) { calls++; return bs("7"), nil })
	if err != nil || hit || string(v) != "7" || calls != 2 {
		t.Fatalf("recompute: got (%q, %v, %v), %d calls", v, hit, err, calls)
	}
}

// TestLRUEviction fills past capacity and checks the least-recently-used
// entry is the one dropped.
func TestLRUEviction(t *testing.T) {
	c := New(2)
	put := func(k string) {
		t.Helper()
		if _, _, err := c.GetOrCompute(nil, k, func() ([]byte, error) { return bs("v" + k), nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a")
	put("b")
	// Touch "a" so "b" becomes LRU, then insert "c": "b" must go.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	put("c")
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently-used entry evicted")
	}
	if s := c.Stats(); s.Evictions != 1 || s.Size != 2 {
		t.Fatalf("stats after eviction: %+v", s)
	}
}

// TestSingleflight is the coalescing acceptance test: 50 concurrent
// lookups of one key run the computation exactly once and all observe the
// same value.
func TestSingleflight(t *testing.T) {
	c := New(4)
	var calls atomic.Int64
	gate := make(chan struct{})

	const n = 50
	var wg sync.WaitGroup
	results := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.GetOrCompute(context.Background(), "key", func() ([]byte, error) {
				calls.Add(1)
				<-gate // hold the computation open until all callers queued
				return bs("99"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Wait until 49 callers have joined the in-flight call, then release.
	for {
		c.mu.Lock()
		queued := c.stats.Coalesced
		c.mu.Unlock()
		if queued == n-1 {
			break
		}
	}
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	for i, v := range results {
		if string(v) != "99" {
			t.Fatalf("caller %d saw %q", i, v)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Coalesced != n-1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestWaiterCancellation: a waiter whose context dies stops waiting with
// ctx.Err() while the leader's computation still completes and is cached.
func TestWaiterCancellation(t *testing.T) {
	c := New(4)
	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		if _, _, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
			<-gate
			return bs("5"), nil
		}); err != nil {
			t.Error(err)
		}
	}()
	// Wait for the leader's call to be in flight.
	for {
		c.mu.Lock()
		inflight := len(c.inflight)
		c.mu.Unlock()
		if inflight == 1 {
			break
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.GetOrCompute(ctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: want context.Canceled, got %v", err)
	}
	close(gate)
	<-leaderDone
	if v, ok := c.Get("k"); !ok || string(v) != "5" {
		t.Fatalf("leader's result lost: (%q, %v)", v, ok)
	}
}

// TestWaiterSurvivesLeaderCancellation: when the leader's computation dies
// of the leader's own context, live waiters retry (and one becomes the new
// leader) instead of inheriting a cancellation that was never theirs.
func TestWaiterSurvivesLeaderCancellation(t *testing.T) {
	c := New(4)
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	go func() {
		c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
			close(leaderIn)
			<-leaderGo
			return nil, context.Canceled // the engine aborted on the leader's ctx
		})
	}()
	<-leaderIn
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		v, hit, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) { return bs("7"), nil })
		if err != nil || string(v) != "7" || hit {
			t.Errorf("waiter after leader cancellation: got (%q, %v, %v), want fresh compute of 7", v, hit, err)
		}
	}()
	// Wait for the waiter to join the leader's call, then kill the leader.
	for {
		c.mu.Lock()
		queued := c.stats.Coalesced
		c.mu.Unlock()
		if queued >= 1 {
			break
		}
	}
	close(leaderGo)
	<-waiterDone
	if v, ok := c.Get("k"); !ok || string(v) != "7" {
		t.Fatalf("retried result not cached: (%q, %v)", v, ok)
	}
}

func TestComputePanicReleasesWaiters(t *testing.T) {
	c := New(4)
	func() {
		defer func() { recover() }()
		c.GetOrCompute(nil, "k", func() ([]byte, error) { panic("kaboom") })
	}()
	// The key must be retryable, not wedged.
	done := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(nil, "k", func() ([]byte, error) { return bs("1"), nil })
		done <- err
	}()
	if err := <-done; err != nil {
		t.Fatalf("key wedged after panic: %v", err)
	}
}

// TestConcurrentMixedKeys hammers the cache from many goroutines across
// more keys than the capacity, under -race.
func TestConcurrentMixedKeys(t *testing.T) {
	c := New(8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("key-%d", (g+i)%24)
				want := bs(fmt.Sprint((g + i) % 24))
				v, _, err := c.GetOrCompute(nil, k, func() ([]byte, error) { return want, nil })
				if err != nil || !bytes.Equal(v, want) {
					t.Errorf("key %s: got (%q, %v)", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Len(); got > 8 {
		t.Fatalf("capacity bound violated: %d entries", got)
	}
}

// TestDiskBackend drives the full coalescing layer over the disk store:
// a computed entry must round-trip through a reopen of the same directory
// as a byte-identical hit without recomputing.
func TestDiskBackend(t *testing.T) {
	dir := t.TempDir()
	be, err := store.OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c := NewBacked(be)
	calls := 0
	want := bs(`{"answer":42}` + "\n")
	v, hit, err := c.GetOrCompute(nil, "fp-1", func() ([]byte, error) { calls++; return want, nil })
	if err != nil || hit || !bytes.Equal(v, want) {
		t.Fatalf("miss: (%q, %v, %v)", v, hit, err)
	}
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}

	be2, err := store.OpenDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer be2.Close()
	c2 := NewBacked(be2)
	v, hit, err = c2.GetOrCompute(nil, "fp-1", func() ([]byte, error) { calls++; return nil, errors.New("must not run") })
	if err != nil || !hit || !bytes.Equal(v, want) {
		t.Fatalf("warm restart: (%q, %v, %v)", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times across restart, want 1", calls)
	}
	if s := c2.Stats(); s.Hits != 1 || s.Misses != 0 || s.Size != 1 {
		t.Fatalf("warm stats: %+v", s)
	}
}

// raceBackend runs a hook inside its first Get of each key, after the
// backend has been read: the window between a caller's probe and its
// in-flight registration.
type raceBackend struct {
	store.Backend
	hook func(key string)
	seen map[string]bool
}

func (b *raceBackend) Get(key string) ([]byte, bool) {
	v, ok := b.Backend.Get(key)
	if !b.seen[key] {
		b.seen[key] = true
		b.hook(key)
	}
	return v, ok
}

// TestStoreBetweenProbes: a leader that stores the entry and leaves between
// a caller's first probe and its registration leaves the caller a stored
// entry, which it serves as a hit without computing again.
func TestStoreBetweenProbes(t *testing.T) {
	be := &raceBackend{Backend: store.NewMemory(4), seen: map[string]bool{}}
	c := NewBacked(be)
	calls := 0
	compute := func() ([]byte, error) { calls++; return bs("v"), nil }
	be.hook = func(key string) {
		if _, hit, err := c.GetOrCompute(context.Background(), key, compute); hit || err != nil {
			t.Errorf("inner lookup: hit %v, err %v", hit, err)
		}
	}
	v, hit, err := c.GetOrCompute(context.Background(), "k", compute)
	if err != nil || !hit || string(v) != "v" {
		t.Fatalf("outer lookup: got (%q, %v, %v), want a hit on the stored entry", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats: %+v", s)
	}
}
