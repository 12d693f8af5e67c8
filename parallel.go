package selectivemt

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"time"

	"selectivemt/internal/engine"
	"selectivemt/internal/flow"
)

// This file is the concurrent face of the workflow. Every run — one
// comparison, one job, a batch of jobs — is a list of tasks fanned out
// on engine.Map: first each circuit's prepare, then every selected
// technique on every prepared circuit, all sharing the environment's
// analysis cache. The worker count never changes a number: each
// technique works on its own clone of a base that is only read.

// JobState is a task's lifecycle state in BatchEvent: the pipeline
// stage states, reused for the prepare and technique tasks.
type JobState = flow.State

// Task lifecycle states reported in BatchEvent.State.
const (
	JobRunning = flow.StageRunning
	JobDone    = flow.StageDone
	JobFailed  = flow.StageFailed
	JobSkipped = flow.StageSkipped
)

// BatchEvent is one progress notification from RunBatch or RunJob.
type BatchEvent struct {
	// Circuit is the circuit's module name ("verilog" for an upload);
	// Task is "prepare" or the technique name. Index is the spec's
	// position in the batch — the unambiguous key when a batch runs two
	// different netlists under the same module name (outcomes are keyed
	// by it too).
	Circuit string
	Index   int
	Task    string
	// Stage, when non-empty, marks a pipeline-stage event inside the
	// technique named by Task ("CTS", "hold ECO", ...); task-level
	// events leave it empty.
	Stage   string
	State   JobState
	Err     error
	Elapsed time.Duration
}

// serializedProgress wraps a progress callback so task-level events and
// the technique pipelines' stage events, which arrive from the tasks'
// own goroutines, never invoke it concurrently; nil stays nil.
func serializedProgress(f func(BatchEvent)) func(BatchEvent) {
	if f == nil {
		return nil
	}
	var mu sync.Mutex
	return func(ev BatchEvent) {
		mu.Lock()
		defer mu.Unlock()
		f(ev)
	}
}

// stageObserver adapts a technique pipeline's stage events into batch
// progress events; a nil emit yields a nil observer.
func stageObserver(emit func(BatchEvent), circuit string, index int, task string) flow.Observer {
	if emit == nil {
		return nil
	}
	return func(ev flow.Event) {
		emit(BatchEvent{
			Circuit: circuit, Index: index, Task: task, Stage: ev.Stage,
			State: ev.State, Err: ev.Err, Elapsed: ev.Elapsed,
		})
	}
}

// task is one unit of a run: a circuit's prepare, or one technique flow
// on its prepared base.
type task struct {
	circuit string // module name, "verilog" for an upload
	index   int    // the spec's position in the run
	name    string // "prepare" or the technique's pipeline name
	run     func(ctx context.Context) error
}

func (t *task) event(emit func(BatchEvent), state JobState, err error, elapsed time.Duration) {
	if emit != nil {
		emit(BatchEvent{Circuit: t.circuit, Index: t.index, Task: t.name, State: state, Err: err, Elapsed: elapsed})
	}
}

// call runs the task under the pprof label engine_job=<circuit>/<task>,
// so a CPU profile of a batch splits by flow (the label carries over to
// the goroutines the task fans out). A panic becomes the task's error,
// so the task still reports Failed.
func (t *task) call(ctx context.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	pprof.Do(ctx, pprof.Labels("engine_job", t.circuit+"/"+t.name), func(ctx context.Context) {
		err = t.run(ctx)
	})
	return err
}

// runTasks fans the tasks out on one engine.Map of width workers (<= 0
// means GOMAXPROCS). Each task emits Running, then Done or Failed with
// its elapsed time; a task that the cancellation of ctx kept from
// starting emits Skipped. It returns one error per task, nil for a task
// that finished.
func runTasks(ctx context.Context, workers int, tasks []task, emit func(BatchEvent)) []error {
	errs := make([]error, len(tasks))
	started := make([]bool, len(tasks))
	// Every task error lands in errs; Map's own error only repeats the
	// skips recorded below.
	_, _ = engine.Map(ctx, len(tasks), workers, func(ctx context.Context, i int) (struct{}, error) {
		t := &tasks[i]
		started[i] = true
		t.event(emit, JobRunning, nil, 0)
		start := time.Now()
		err := t.call(ctx)
		if err != nil {
			t.event(emit, JobFailed, err, time.Since(start))
			errs[i] = fmt.Errorf("%s/%s: %w", t.circuit, t.name, err)
		} else {
			t.event(emit, JobDone, nil, time.Since(start))
		}
		return struct{}{}, nil
	})
	for i := range tasks {
		if !started[i] {
			errs[i] = tasks[i].skip(emit, context.Cause(ctx))
		}
	}
	return errs
}

// skip reports a task that never started and returns its error.
func (t *task) skip(emit func(BatchEvent), why error) error {
	err := fmt.Errorf("%s/%s skipped: %w", t.circuit, t.name, why)
	t.event(emit, JobSkipped, err, 0)
	return err
}

// CompareBase runs the three techniques on an already prepared base
// design (Synthesize, or an imported netlist after placement with the
// clock period fixed on cfg) on at most workers goroutines: <= 0 means
// GOMAXPROCS, 1 runs them one after another. The base is only read; each
// technique works on its own clone, so the worker count never changes
// the result.
func (e *Environment) CompareBase(base *Design, cfg *Config, workers int) (*Comparison, error) {
	keys, _ := ParseTechniques(nil)
	r := &jobRun{circuit: base.Name, cfg: cfg, keys: keys, base: base}
	if err := errors.Join(runTasks(context.Background(), workers, r.techniqueTasks(nil), nil)...); err != nil {
		return nil, fmt.Errorf("selectivemt: compare: %w", err)
	}
	return r.comparison(), nil
}
