// Package engine holds the flow's concurrency primitives. Map is a
// bounded fan-out with index-ordered results: the facade runs each
// batch's prepare tasks and then its technique flows on it, and the
// sharded timer's drains, the assignment lanes and the corner sign-off
// call it directly. Pool (pool.go) is the resident bounded queue behind
// the smtd service, and AnalysisCache (cache.go) memoizes the per-design
// analyses concurrent flows would otherwise recompute, under keys its
// callers compose.
//
// The package imports the standard library only (CI checks this), so
// every layer of the flow can depend on it.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Map runs fn over indices 0..n-1 on at most workers goroutines (see
// NormalizeWorkers) and returns the values in index order. One call's
// error does not stop the others; the errors are joined in index order.
// A panic becomes that call's error, and a call not yet started when ctx
// is done is skipped with context.Cause(ctx). At one worker the calls
// run inline on the caller's goroutine.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]T, n)
	errs := make([]error, n)
	call := func(i int) {
		if ctx.Err() != nil {
			errs[i] = fmt.Errorf("engine: call %d skipped: %w", i, context.Cause(ctx))
			return
		}
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("engine: call %d panicked: %v\n%s", i, r, debug.Stack())
			}
		}()
		out[i], errs[i] = fn(ctx, i)
	}
	// The caller's goroutine is one of the workers; the others claim
	// indices from the shared counter.
	var s struct {
		next atomic.Int64
		wg   sync.WaitGroup
	}
	work := func() {
		for i := int(s.next.Add(1)) - 1; i < n; i = int(s.next.Add(1)) - 1 {
			call(i)
		}
	}
	workers = min(NormalizeWorkers(workers), n)
	s.wg.Add(max(workers-1, 0))
	for w := 1; w < workers; w++ {
		go func() {
			defer s.wg.Done()
			work()
		}()
	}
	work()
	s.wg.Wait()
	return out, errors.Join(errs...)
}
