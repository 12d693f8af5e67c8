package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Negative worker counts must behave like 0 (GOMAXPROCS) everywhere a
// CLI -jobs value can reach the engine: NormalizeWorkers itself, the
// one-shot Map fan-out, and a resident Pool. A -jobs of -1 used to
// be an untested path; it must neither panic nor start zero workers.
func TestNegativeWorkersNormalize(t *testing.T) {
	for _, n := range []int{0, -1, -17} {
		if got, want := NormalizeWorkers(n), runtime.GOMAXPROCS(0); got != want {
			t.Errorf("NormalizeWorkers(%d) = %d, want %d", n, got, want)
		}
	}
	if got := NormalizeWorkers(3); got != 3 {
		t.Errorf("NormalizeWorkers(3) = %d, want 3", got)
	}

	// Map with negative workers must still execute every call.
	vals, err := Map(context.Background(), 3, -1, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatalf("Map(workers=-1): %v", err)
	}
	for i, v := range vals {
		if v != i*i {
			t.Errorf("Map[%d] = %d, want %d", i, v, i*i)
		}
	}

	// A pool built with a negative worker count must start GOMAXPROCS
	// workers and execute submitted tasks.
	p := NewPool(-2, 0)
	if got, want := p.Stats().Workers, runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("NewPool(-2).Workers = %d, want %d", got, want)
	}
	done := make(chan struct{})
	if err := p.Submit(nil, func(context.Context) { close(done) }); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pool with negative worker count never ran the task")
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestPoolRunsTasksAndCounts(t *testing.T) {
	p := NewPool(2, 0)
	const n = 20
	var ran atomic.Int32
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := p.Submit(context.Background(), func(context.Context) {
			ran.Add(1)
			wg.Done()
		}); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	wg.Wait()
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if ran.Load() != n {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), n)
	}
	st := p.Stats()
	if st.Submitted != n || st.Completed != n {
		t.Fatalf("stats submitted/completed = %d/%d, want %d/%d", st.Submitted, st.Completed, n, n)
	}
	if st.Busy != 0 || st.Queued != 0 {
		t.Fatalf("post-drain busy/queued = %d/%d, want 0/0", st.Busy, st.Queued)
	}
}

// A full queue must refuse at submit time — the 429 path of the smtd
// server — and free capacity again as tasks complete.
func TestPoolQueueCap(t *testing.T) {
	p := NewPool(1, 2)
	defer p.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(context.Background(), func(context.Context) {
		close(started)
		<-block
	}); err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	<-started // the worker is now occupied; the queue is empty

	for i := 0; i < 2; i++ {
		if err := p.Submit(context.Background(), func(context.Context) {}); err != nil {
			t.Fatalf("Submit %d within cap: %v", i, err)
		}
	}
	if err := p.Submit(context.Background(), func(context.Context) {}); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("Submit over cap: err = %v, want ErrPoolFull", err)
	}
	st := p.Stats()
	if st.Queued != 2 || st.Busy != 1 || st.QueueCap != 2 {
		t.Fatalf("stats = %+v, want queued=2 busy=1 cap=2", st)
	}

	close(block)
	deadline := time.After(5 * time.Second)
	for p.Stats().Completed != 3 {
		select {
		case <-deadline:
			t.Fatalf("queued tasks never completed: %+v", p.Stats())
		case <-time.After(time.Millisecond):
		}
	}
	if err := p.Submit(context.Background(), func(context.Context) {}); err != nil {
		t.Fatalf("Submit after queue drained: %v", err)
	}
}

// Drain must finish the accepted backlog, then refuse new work; a task
// panic must not kill its worker.
func TestPoolDrainAndPanicIsolation(t *testing.T) {
	p := NewPool(1, 0)
	var ran atomic.Int32
	if err := p.Submit(context.Background(), func(context.Context) { panic("job blew up") }); err != nil {
		t.Fatalf("Submit panicking task: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := p.Submit(context.Background(), func(context.Context) { ran.Add(1) }); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if ran.Load() != 3 {
		t.Fatalf("tasks after panic ran %d times, want 3 (worker died?)", ran.Load())
	}
	if err := p.Submit(context.Background(), func(context.Context) {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Submit after Drain: err = %v, want ErrPoolClosed", err)
	}
	// Idempotent close.
	p.Close()
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

// Drain with an expired context reports the cause instead of hanging.
func TestPoolDrainTimeout(t *testing.T) {
	p := NewPool(1, 0)
	block := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(context.Background(), func(context.Context) {
		close(started)
		<-block
	}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := p.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with stuck task: err = %v, want DeadlineExceeded", err)
	}
	close(block)
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("final Drain: %v", err)
	}
}
