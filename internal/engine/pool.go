package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
)

// Submit/Drain sentinel errors. Callers map these to transport-level
// responses (the smtd server answers ErrPoolFull with 429).
var (
	// ErrPoolFull reports a Submit that found the bounded queue at
	// capacity.
	ErrPoolFull = errors.New("engine: pool queue full")
	// ErrPoolClosed reports a Submit after Close/Drain began.
	ErrPoolClosed = errors.New("engine: pool closed")
)

// PoolStats is a point-in-time snapshot of a Pool, the introspection a
// resident service exports (queue depth and worker occupancy for
// /v1/stats, lifetime counters for monitoring).
type PoolStats struct {
	// Workers is the fixed worker-goroutine count.
	Workers int
	// Busy is how many workers are executing a task right now.
	Busy int
	// Queued is how many accepted tasks wait for a worker.
	Queued int
	// QueueCap is the queue bound (0 = unbounded).
	QueueCap int
	// Submitted and Completed count tasks over the pool's lifetime;
	// Submitted-Completed = Busy+Queued.
	Submitted uint64
	Completed uint64
}

// Pool is the resident sibling of Map: a long-lived bounded worker pool
// for independent tasks that arrive over time (HTTP job submissions)
// rather than as one known-up-front batch. The queue is FIFO and
// bounded, so a service in overload refuses work at submit time instead
// of accumulating it; Stats exposes queue depth and worker occupancy.
//
// Tasks carry their own context (per-job cancellation): a task whose
// context is already canceled when a worker picks it up is still invoked
// — the function decides how to record cancellation — but is expected to
// return promptly.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []poolTask
	cap    int
	closed bool

	workers   int
	busy      int
	submitted uint64
	completed uint64

	wg sync.WaitGroup
}

type poolTask struct {
	ctx  context.Context
	name string
	run  func(context.Context)
}

// NormalizeWorkers maps a user-facing worker count to an effective pool
// size: any n <= 0 — including negative values passed straight through
// from CLI flags — means GOMAXPROCS. Map and NewPool apply it
// themselves; it is exported so front ends can report the effective
// value.
func NormalizeWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// NewPool starts a pool of NormalizeWorkers(workers) workers with a
// queue bounded at queueCap pending tasks (queueCap <= 0 = unbounded).
// The pool runs until Close or Drain.
func NewPool(workers, queueCap int) *Pool {
	p := &Pool{workers: NormalizeWorkers(workers)}
	if queueCap > 0 {
		p.cap = queueCap
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < p.workers; i++ {
		p.wg.Add(1)
		go p.work()
	}
	return p
}

// Submit enqueues run for execution with ctx (nil = Background). It
// never blocks: the task is refused with ErrPoolFull when the queue is
// at capacity and ErrPoolClosed once shutdown began.
func (p *Pool) Submit(ctx context.Context, run func(context.Context)) error {
	return p.SubmitNamed(ctx, "", run)
}

// SubmitNamed is Submit with a task name attached as the worker's
// "pool_task" pprof label while the task runs, so profiles of a resident
// service attribute CPU to jobs ("job-42/improved") rather than to the
// shared pool goroutines. An empty name labels the task "unnamed".
func (p *Pool) SubmitNamed(ctx context.Context, name string, run func(context.Context)) error {
	if run == nil {
		return errors.New("engine: Submit with nil task")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if name == "" {
		name = "unnamed"
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	if p.cap > 0 && len(p.queue) >= p.cap {
		return ErrPoolFull
	}
	p.queue = append(p.queue, poolTask{ctx: ctx, name: name, run: run})
	p.submitted++
	p.cond.Signal()
	return nil
}

func (p *Pool) work() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			// Closed and drained: nothing left to do.
			p.mu.Unlock()
			return
		}
		t := p.queue[0]
		p.queue[0] = poolTask{}
		p.queue = p.queue[1:]
		p.busy++
		p.mu.Unlock()

		runPoolTask(t)

		p.mu.Lock()
		p.busy--
		p.completed++
		p.mu.Unlock()
	}
}

// runPoolTask isolates a task panic: one bad job must not take down a
// resident pool's worker. The task wrapper owns error reporting; the
// recover here is the backstop that keeps the worker alive.
func runPoolTask(t poolTask) {
	defer func() { _ = recover() }()
	pprof.Do(t.ctx, pprof.Labels("pool_task", t.name), t.run)
}

// Stats snapshots the pool.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Workers:   p.workers,
		Busy:      p.busy,
		Queued:    len(p.queue),
		QueueCap:  p.cap,
		Submitted: p.submitted,
		Completed: p.completed,
	}
}

// Close stops accepting new tasks. Already-queued and running tasks
// still execute; workers exit once the queue empties. Close is
// idempotent and returns immediately.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Drain closes the pool and waits for every accepted task to finish —
// the graceful-shutdown half of a SIGTERM handler. It returns early
// with the context's error when ctx expires first (workers keep
// finishing in the background; they are not abandoned mid-task).
func (p *Pool) Drain(ctx context.Context) error {
	p.Close()
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("engine: drain: %w", context.Cause(ctx))
	}
}
