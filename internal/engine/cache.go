package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// AnalysisCache memoizes the deterministic per-design analyses the flow
// repeats on identical inputs: the minimum-period probe of a prepared
// base design (core.Config.minPeriod) and the multi-corner sign-off
// (mcmm). Callers compose the keys: the design's content fingerprint
// (netlist.Design.Fingerprint: SHA-256 over names, cells, connectivity
// and the exact bits of every coordinate) plus the analysis parameters,
// so a clone (or a re-run of the same circuit in a batch or benchmark)
// hits the cache even though every run works on its own Design instance,
// while a move of any size misses. Per-stage timing is not cached: every
// stage of a flow sees a different design state, so the flow carries
// incremental timers from stage to stage instead (core.FlowState).
// Activity estimation is not cached either, for the same reason: the
// flow's carried simulator keeps its own estimate while the logic is
// unchanged.
//
// The cache is safe for concurrent use and deduplicates in-flight
// computations: when two workers ask for the same key at once, one
// computes and the other blocks for the result. Entries are never
// evicted; call Reset between unrelated workloads if memory matters.
type AnalysisCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry

	hits   atomic.Uint64
	misses atomic.Uint64
}

type cacheEntry struct {
	ready chan struct{}
	val   any
	err   error
}

// NewAnalysisCache returns an empty cache.
func NewAnalysisCache() *AnalysisCache {
	return &AnalysisCache{entries: make(map[string]*cacheEntry)}
}

// runCompute converts a compute panic into a (cached) error: the ready
// channel must close no matter what, or every waiter on the key — and
// every future lookup — would block forever.
func runCompute(compute func() (any, error)) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: cached analysis panicked: %v", r)
		}
	}()
	return compute()
}

// Memo returns the memoized value for a caller-composed key, computing
// it at most once even under concurrent callers. Callers own the key
// namespace: prefix keys with a unique tag ("minp|" for the min-period
// probe, "mcmm-sig|"/"mcmm-hold|" for the sign-off) so independent
// subsystems cannot collide. The compute function must be deterministic:
// errors are cached like values, since a retry would fail identically.
func (c *AnalysisCache) Memo(key string, compute func() (any, error)) (any, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.ready
		c.hits.Add(1)
		return e.val, e.err
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.misses.Add(1)
	e.val, e.err = runCompute(compute)
	close(e.ready)
	return e.val, e.err
}

// Stats reports lifetime hit/miss counts.
func (c *AnalysisCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of cached entries.
func (c *AnalysisCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Reset drops every entry (hit/miss counters keep accumulating).
//
// Reset is safe against in-flight computations: a waiter blocked on an
// entry's ready channel holds the entry pointer itself, so it still
// receives the computed value — the map swap cannot strand it. The
// in-flight computation in turn writes only into that same pre-Reset
// entry, which no post-Reset lookup can reach, so a Memo issued after
// Reset always recomputes instead of observing a result from the
// dropped generation. (Two computations of one key may then briefly run
// concurrently — the documented cost of forgetting; computes are
// deterministic, so both produce the same value.)
func (c *AnalysisCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*cacheEntry)
}
