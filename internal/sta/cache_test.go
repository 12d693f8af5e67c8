package sta

import (
	"sync"
	"testing"
)

// TestCompileCacheEviction pins the bound: pushing more designs than the
// entry cap evicts from the LRU tail, the stats account for it, and a
// re-Analyze of the evicted design recompiles rather than crashing or
// aliasing another design's graph.
func TestCompileCacheEviction(t *testing.T) {
	prevE, prevB := SetCompileCacheLimits(2, 0)
	defer SetCompileCacheLimits(prevE, prevB)

	d1 := synthSmall(t)
	d2 := synthSmall(t)
	d3 := synthSmall(t)
	c := cfg(t, 3)
	before := CompileCacheStats()
	r1, err := Analyze(d1, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(d2, c); err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(d3, c); err != nil { // evicts d1
		t.Fatal(err)
	}
	s := CompileCacheStats()
	if s.Entries > 2 {
		t.Fatalf("cache holds %d entries, cap is 2", s.Entries)
	}
	if s.Evictions == before.Evictions {
		t.Fatalf("no eviction recorded after overflowing the cap (%+v)", s)
	}
	if s.Bytes <= 0 {
		t.Fatalf("resident byte estimate %d, want > 0", s.Bytes)
	}
	// The evicted design must recompile cleanly and agree with its first
	// analysis.
	r1b, err := Analyze(d1, c)
	if err != nil {
		t.Fatal(err)
	}
	requireExactMatch(t, d1, r1b, legacyView(d1, r1))
	requireOracle(t, d1, c, r1b)
}

// TestCompileCacheByteBound: a byte cap smaller than two graphs keeps only
// the MRU entry resident (the MRU entry itself is never evicted, even
// when it alone exceeds the cap — evicting it would only force a
// recompile of the design most likely to come back).
func TestCompileCacheByteBound(t *testing.T) {
	prevE, prevB := SetCompileCacheLimits(8, 1) // 1 byte: nothing but MRU fits
	defer SetCompileCacheLimits(prevE, prevB)

	d1 := synthSmall(t)
	d2 := synthSmall(t)
	c := cfg(t, 3)
	if _, err := Analyze(d1, c); err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(d2, c); err != nil {
		t.Fatal(err)
	}
	s := CompileCacheStats()
	if s.Entries != 1 {
		t.Fatalf("byte bound kept %d entries, want exactly the MRU one", s.Entries)
	}
}

// TestCompileCacheCheckedOutSafety: concurrent Analyze calls on the same
// design must never share a CompiledGraph — the entry is checked out of
// the cache while in use — and every call must return the same bits.
// Run under -race this is the regression test for the checked-out-while-
// in-use contract surviving the LRU rework.
func TestCompileCacheCheckedOutSafety(t *testing.T) {
	prevE, prevB := SetCompileCacheLimits(2, 0)
	defer SetCompileCacheLimits(prevE, prevB)

	d := synthSmall(t)
	c := cfg(t, 3)
	want, err := AnalyzeLegacy(d, c)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	results := make([]*Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Analyze(d, c)
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		requireExactMatch(t, d, results[i], want)
	}
}

// TestCompileCachePartitionKey: one-shard and clustered analyses of the
// same design are distinct cache entries — a clustered graph checked back
// in must never be handed to a one-shard caller, and both keep giving
// exact results when alternated.
func TestCompileCachePartitionKey(t *testing.T) {
	prevE, prevB := SetCompileCacheLimits(4, 0)
	defer SetCompileCacheLimits(prevE, prevB)

	d := synthSmall(t)
	mono := cfg(t, 3)
	shard := mono
	shard.Partitions = 3
	want, err := AnalyzeLegacy(d, mono)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rs, err := Analyze(d, shard)
		if err != nil {
			t.Fatal(err)
		}
		requireExactMatch(t, d, rs, want)
		rm, err := Analyze(d, mono)
		if err != nil {
			t.Fatal(err)
		}
		requireExactMatch(t, d, rm, want)
	}
	s := CompileCacheStats()
	if s.Entries < 2 {
		t.Fatalf("one-shard and clustered graphs should coexist as 2 entries, cache holds %d", s.Entries)
	}
}
