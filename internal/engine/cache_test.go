package engine

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheMemoizes(t *testing.T) {
	c := NewAnalysisCache()
	var calls int
	for i := 0; i < 3; i++ {
		v, err := c.Memo("k", func() (any, error) { calls++; return 42, nil })
		if err != nil || v.(int) != 42 {
			t.Fatalf("Memo = %v, %v", v, err)
		}
	}
	if calls != 1 {
		t.Errorf("compute ran %d times", calls)
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("stats = %d/%d, want 2/1", hits, misses)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
	c.Reset()
	if c.Len() != 0 {
		t.Error("reset kept entries")
	}
}

func TestCacheCachesErrors(t *testing.T) {
	c := NewAnalysisCache()
	boom := errors.New("boom")
	var calls int
	for i := 0; i < 2; i++ {
		if _, err := c.Memo("k", func() (any, error) { calls++; return nil, boom }); !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 1 {
		t.Errorf("deterministic failure recomputed %d times", calls)
	}
}

func TestCacheComputePanicBecomesError(t *testing.T) {
	c := NewAnalysisCache()
	for i := 0; i < 2; i++ {
		_, err := c.Memo("k", func() (any, error) { panic("kaboom") })
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("attempt %d: panic not converted to error: %v", i, err)
		}
	}
	// The entry must be complete (ready closed): a second Memo above would
	// otherwise have blocked forever instead of returning the cached error.
	if h, m := c.Stats(); h != 1 || m != 1 {
		t.Errorf("stats = %d/%d, want 1/1", h, m)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewAnalysisCache()
	var computing atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Memo("k", func() (any, error) {
				computing.Add(1)
				return "v", nil
			})
			if err != nil || v.(string) != "v" {
				t.Errorf("Memo = %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := computing.Load(); n != 1 {
		t.Errorf("compute ran %d times under concurrency", n)
	}
}
