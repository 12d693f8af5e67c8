package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapIndexOrder(t *testing.T) {
	const n = 40
	vals, err := Map(context.Background(), n, 8, func(_ context.Context, i int) (int, error) {
		// Later indices finish first, so completion order is reversed.
		time.Sleep(time.Duration(n-i) * 10 * time.Microsecond)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != n {
		t.Fatalf("got %d values, want %d", len(vals), n)
	}
	for i, v := range vals {
		if v != i*i {
			t.Fatalf("vals[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// One call's error neither stops the others nor hides theirs: every
// call runs and the errors come back joined in index order.
func TestMap(t *testing.T) {
	var ran atomic.Int64
	vals, err := Map(context.Background(), 10, 4, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 2 || i == 7 {
			return 0, fmt.Errorf("bad %d", i)
		}
		return 2 * i, nil
	})
	if err == nil {
		t.Fatal("errors not reported")
	}
	if got := ran.Load(); got != 10 {
		t.Errorf("%d of 10 calls ran: an error stopped the others", got)
	}
	msg := err.Error()
	if a, b := strings.Index(msg, "bad 2"), strings.Index(msg, "bad 7"); a < 0 || b < 0 || a > b {
		t.Errorf("errors not joined in index order: %q", msg)
	}
	for i, v := range vals {
		if i != 2 && i != 7 && v != 2*i {
			t.Errorf("vals[%d] = %d, want %d", i, v, 2*i)
		}
	}
}

func TestMapPreCanceledSkipsEveryCall(t *testing.T) {
	cause := errors.New("shutting down")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	for _, workers := range []int{1, 3} {
		var ran atomic.Int64
		_, err := Map(ctx, 5, workers, func(context.Context, int) (int, error) {
			ran.Add(1)
			return 0, nil
		})
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d calls ran after cancel", workers, ran.Load())
		}
		if !errors.Is(err, cause) {
			t.Errorf("workers=%d: err = %v, want the cancel cause", workers, err)
		}
		if got := strings.Count(err.Error(), "skipped"); got != 5 {
			t.Errorf("workers=%d: %d skipped calls reported, want 5: %v", workers, got, err)
		}
	}
}

func TestMapPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 2} {
		vals, err := Map(context.Background(), 3, workers, func(_ context.Context, i int) (int, error) {
			if i == 1 {
				panic("kaboom")
			}
			return i + 1, nil
		})
		if err == nil || !strings.Contains(err.Error(), "kaboom") || !strings.Contains(err.Error(), "call 1 panicked") {
			t.Fatalf("workers=%d: panic not converted into the call's error: %v", workers, err)
		}
		if vals[0] != 1 || vals[2] != 3 {
			t.Errorf("workers=%d: sibling calls lost: %v", workers, vals)
		}
	}
}

func TestMapWorkerBound(t *testing.T) {
	var cur, peak atomic.Int64
	_, err := Map(context.Background(), 16, 3, func(context.Context, int) (struct{}, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("concurrency peaked at %d with 3 workers", p)
	}
}

// workers <= 0 means GOMAXPROCS: with that many calls blocking until all
// of them have started, anything narrower would deadlock.
func TestMapDefaultWorkersIsGOMAXPROCS(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		t.Skip("needs GOMAXPROCS >= 2")
	}
	for _, workers := range []int{0, -1} {
		var started atomic.Int64
		all := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			_, err := Map(context.Background(), procs, workers, func(context.Context, int) (struct{}, error) {
				if started.Add(1) == int64(procs) {
					close(all)
				}
				<-all
				return struct{}{}, nil
			})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: only %d of %d calls ran concurrently", workers, started.Load(), procs)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	vals, err := Map(context.Background(), 0, 4, func(context.Context, int) (int, error) {
		t.Fatal("fn called for n = 0")
		return 0, nil
	})
	if err != nil || len(vals) != 0 {
		t.Fatalf("Map over nothing = %v, %v", vals, err)
	}
}

// Map sits under every shard drain and assignment lane fan-out, so its
// fixed cost is paid thousands of times per flow.
func TestMapAllocs(t *testing.T) {
	fn := func(_ context.Context, i int) (int, error) { return i, nil }
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Map(context.Background(), 16, 2, fn); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("Map of 16 trivial calls at 2 workers: %.0f allocs, want <= 8", allocs)
	}
}
