package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/sta"
)

// AnalysisCache memoizes the deterministic per-design analyses the flow
// repeats on identical inputs: the minimum-period probe of a prepared
// base design, and (through Memo) the multi-corner sign-off. Entries are
// keyed by the design's content fingerprint (netlist.Design.Fingerprint:
// SHA-256 over names, cells, connectivity and the exact bits of every
// coordinate) plus the analysis parameters, so a clone (or a re-run of
// the same circuit in a batch or benchmark) hits the cache even though
// every run works on its own Design instance, while a move of any size
// misses. Per-stage timing is not cached: every stage of a flow sees a
// different design state, so the flow carries incremental timers from
// stage to stage instead (core.FlowState). Activity estimation is not
// cached either, for the same reason: the flow's carried simulator keeps
// its own estimate while the logic is unchanged.
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

// do returns the memoized value for key, computing it at most once even
// under concurrent callers. Errors are cached too: the computations are
// deterministic, so a retry would fail identically.
func (c *AnalysisCache) do(key string, compute func() (any, error)) (any, error) {
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

// Memo returns the memoized value for an arbitrary caller-composed key,
// computing it at most once even under concurrent callers (the same
// in-flight deduplication the built-in analyses use). Callers own the key
// namespace: prefix keys with a unique tag so independent subsystems —
// the multi-corner sign-off keys its entries by (fingerprint, corner) —
// cannot collide with the built-in "minp|" entries. The
// compute function must be deterministic; errors are cached like values.
func (c *AnalysisCache) Memo(key string, compute func() (any, error)) (any, error) {
	return c.do(key, compute)
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

// preKey encodes every scalar field of a pre-route STA config. Only
// configs with no clock-arrival override and the estimate extractor are
// fully described by these scalars (the extractor is represented by its
// process, pointer identity matching the fingerprint's treatment of the
// library, so the fresh extractor struct each call site allocates still
// shares entries). Any other config returns ok=false and must not be
// cached: a clock-arrival function has no key, and an address-based key
// for another extractor type could go stale after garbage collection and
// alias a different extractor.
func preKey(d *netlist.Design, cfg sta.Config) (string, bool) {
	ee, ok := cfg.Extractor.(*parasitics.EstimateExtractor)
	if !ok || cfg.ClockArrival != nil {
		return "", false
	}
	return fmt.Sprintf("minp|%s|%g|%s|%g|%g|%g|%g|%p",
		d.Fingerprint(), cfg.ClockPeriodNs, cfg.ClockPort, cfg.InputSlewNs,
		cfg.InputDelayNs, cfg.OutputDelayNs, cfg.ClockSlewNs, ee.Proc), true
}

// MinPeriod runs the pre-route minimum-period probe and memoizes it.
// Configs the key cannot describe are computed directly, uncached.
func (c *AnalysisCache) MinPeriod(d *netlist.Design, cfg sta.Config) (float64, error) {
	probe := func() (any, error) { return sta.MinPeriod(d, cfg) }
	key, ok := preKey(d, cfg)
	var v any
	var err error
	if ok {
		v, err = c.do(key, probe)
	} else {
		v, err = probe()
	}
	if err != nil {
		return 0, err
	}
	return v.(float64), nil
}
