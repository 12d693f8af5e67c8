package sta

// Per-design compile cache. A design is interned (compile) once per
// revision: repeated Analyze calls on an unchanged design reuse the
// compiled graph and its shards and only re-run the zero-allocation
// propagation, then copy the per-net state into the caller's Result. The
// cache is a small checked-out-while-in-use LRU list bounded by both an
// entry count and an approximate resident byte size (a compiled
// 1M-instance graph is hundreds of MB; a long-running smtd session sees
// arbitrarily many uploaded designs), so concurrent Analyze calls on the
// same design never share a graph and the cache can't grow without limit.

import (
	"slices"
	"sync"

	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
)

// cacheEntry holds one design's compiled graph and its shards.
type cacheEntry struct {
	d         *netlist.Design
	rev       uint64
	clockPort string
	extractor parasitics.Extractor
	// partitions is part of the key: a graph clustered for
	// cfg.Partitions > 1 carries shards a one-shard caller must not
	// inherit, and vice versa. 0 means one shard.
	partitions int
	sg         *ShardedGraph
	bytes      int64 // approxBytes at store time
}

// Compile-cache default bounds: entries sized for MCMM sign-off (up to
// four corner clones in rotation), bytes sized so a handful of
// 100k-instance graphs fit but a parade of 1M-instance uploads cannot
// pin gigabytes.
const (
	defaultCacheEntries = 4
	defaultCacheBytes   = int64(2) << 30
)

// CacheStats describes the compile cache's occupancy and traffic.
type CacheStats struct {
	Entries   int   // resident entries (checked-out entries excluded)
	Bytes     int64 // approximate resident size of those entries
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

var compileCache = struct {
	sync.Mutex
	entries    []*cacheEntry
	maxEntries int
	maxBytes   int64
	hits       uint64
	misses     uint64
	evictions  uint64
}{maxEntries: defaultCacheEntries, maxBytes: defaultCacheBytes}

// CompileCacheStats snapshots the compile cache's stats.
func CompileCacheStats() CacheStats {
	compileCache.Lock()
	defer compileCache.Unlock()
	s := CacheStats{
		Entries:   len(compileCache.entries),
		Hits:      compileCache.hits,
		Misses:    compileCache.misses,
		Evictions: compileCache.evictions,
	}
	for _, e := range compileCache.entries {
		s.Bytes += e.bytes
	}
	return s
}

// SetCompileCacheLimits rebounds the compile cache (entries <= 0 or
// bytes <= 0 restore the defaults), evicts down to the new bounds, and
// returns the previous limits so tests can restore them.
func SetCompileCacheLimits(entries int, bytes int64) (prevEntries int, prevBytes int64) {
	compileCache.Lock()
	defer compileCache.Unlock()
	prevEntries, prevBytes = compileCache.maxEntries, compileCache.maxBytes
	if entries <= 0 {
		entries = defaultCacheEntries
	}
	if bytes <= 0 {
		bytes = defaultCacheBytes
	}
	compileCache.maxEntries, compileCache.maxBytes = entries, bytes
	evictLocked()
	return prevEntries, prevBytes
}

// evictLocked drops LRU-tail entries past the bounds. The MRU entry stays
// resident even when it alone exceeds the byte bound — evicting it would
// just force a recompile on the next Analyze of the same design.
func evictLocked() {
	total := int64(0)
	for _, e := range compileCache.entries {
		total += e.bytes
	}
	for len(compileCache.entries) > 1 &&
		(len(compileCache.entries) > compileCache.maxEntries || total > compileCache.maxBytes) {
		last := len(compileCache.entries) - 1
		total -= compileCache.entries[last].bytes
		compileCache.entries[last] = nil
		compileCache.entries = compileCache.entries[:last]
		compileCache.evictions++
	}
}

// takeCompiled checks out the entry for (design, clock port, extractor,
// partitions), removing it from the list so no other goroutine can use it
// until the caller stores it back. Extractor identity is part of the key:
// a different extractor means different RC state and must recompile
// rather than overwrite trees earlier Results still reference.
func takeCompiled(d *netlist.Design, clockPort string, ex parasitics.Extractor, partitions int) *cacheEntry {
	compileCache.Lock()
	defer compileCache.Unlock()
	for i, e := range compileCache.entries {
		if e.d == d && e.clockPort == clockPort && e.extractor == ex && e.partitions == partitions {
			compileCache.entries = slices.Delete(compileCache.entries, i, i+1)
			compileCache.hits++
			return e
		}
	}
	compileCache.misses++
	return nil
}

// storeCompiled inserts an entry at the MRU position, evicting past the
// bounds.
func storeCompiled(e *cacheEntry) {
	e.bytes = e.sg.cg.approxBytes() + e.sg.approxBytes()
	compileCache.Lock()
	defer compileCache.Unlock()
	compileCache.entries = slices.Insert(compileCache.entries, 0, e)
	evictLocked()
}

// approxBytes estimates a compiled graph's resident size. Eviction only
// needs the dominant linear terms: the flat per-net state, the arc,
// consumer and sequential tables, and the RC slabs.
func (cg *CompiledGraph) approxBytes() int64 {
	const perNet = 6*8 + // arrMax/arrMin/slewMax/reqMax/totalCap + rc ptr
		2 + 2*4 + // hasArr/hasReq, level, drvIdx
		2*24 + // sinkD/combArcs-share headers
		2*8 // netID map entry
	b := int64(len(cg.nets)) * perNet
	b += int64(len(cg.reqConsArr))*8 + int64(len(cg.reqConsOff))*4
	b += int64(len(cg.seqs)) * 96
	arcs := int64(0)
	for _, a := range cg.combArcs {
		arcs += int64(cap(a))
	}
	b += arcs*64 + int64(len(cg.combs))*24
	nodes, sinks := int64(0), int64(0)
	for _, t := range cg.rc {
		if t != nil {
			nodes += int64(cap(t.CapPF))
			sinks += int64(cap(t.SinkNode))
		}
	}
	b += nodes*3*8 + sinks*2*8
	return b
}

// approxBytes estimates the shard structures' resident size (ownership,
// marks, the bucket/changed/net slab, interface graph).
func (sg *ShardedGraph) approxBytes() int64 {
	nn := int64(len(sg.owner))
	b := nn * (4 + 4 + 4 + 4 + 5*4) // owner, bSlot, arrMark, reqMark, slab
	b += int64(len(sg.boundary)) * (4 + 4*8 + 2)
	for i := range sg.shards {
		s := &sg.shards[i]
		b += int64(len(s.arrB)+len(s.reqB)) * 24
	}
	return b
}
