// Package server is the resident face of the selective-MT flow: a
// long-running HTTP/JSON job service on the flow engine's worker pool.
// One process-wide Environment amortizes library characterization, the
// shared AnalysisCache and the per-corner characterization set across
// every request, which is what turns the one-shot CLI flow into
// something that can serve repeated what-if traffic.
package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"selectivemt"
)

// Status is a job's lifecycle state as served over the API.
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// finished reports whether the status is terminal.
func (s Status) finished() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Stage is one recorded progress event of a job's flow: the prepare
// stage and each technique at job level, plus — when Stage is set —
// each pipeline stage inside a technique ("CTS", "hold ECO", ...),
// with per-stage wall-clock on completion. GET /v1/jobs/{id} serves
// the full sequence, and GET /v1/jobs/{id}/events streams it live as
// SSE, so a client watching a running job sees live pipeline progress,
// not just which technique is active.
type Stage struct {
	Task      string  `json:"task"`
	Stage     string  `json:"stage,omitempty"`
	State     string  `json:"state"`
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// Job is one submitted flow job. All fields are guarded by the owning
// store's mutex; handlers only see snapshots. A finished job retains
// only what the API serves — the scalar result view and the rendered
// report — never the flow's netlists or the uploaded Verilog source:
// with MaxJobs retained records, holding full designs would grow a
// resident server by gigabytes.
//
// The JSON form is the durable store's file format (persist.go). It
// carries the spec — including an uploaded Verilog source while the job
// is live — because a requeued job must be re-runnable from the file
// alone.
type Job struct {
	ID       string              `json:"id"`
	Spec     selectivemt.JobSpec `json:"spec"`
	Status   Status              `json:"status"`
	Circuit  string              `json:"circuit,omitempty"`
	Stages   []Stage             `json:"stages,omitempty"`
	Result   *resultView         `json:"result,omitempty"`
	Report   string              `json:"report,omitempty"`
	Err      string              `json:"error,omitempty"`
	Created  time.Time           `json:"created"`
	Started  time.Time           `json:"started,omitzero"`
	Finished time.Time           `json:"finished,omitzero"`

	cancel context.CancelCauseFunc
}

// streamEvent is one unit of an SSE subscription's follow phase: a
// stage record, or — when Final is non-nil — the terminal status that
// ends the stream.
type streamEvent struct {
	Stage Stage
	Final *Status
}

// subscriber is one attached SSE client. The channel is buffered far
// beyond any real job's event count; should a pathological pipeline
// still overflow it, stage events are dropped (the client can re-read
// the full sequence from GET /v1/jobs/{id}) but the terminal event is
// never lost: finish closes the channel, and a closed channel tells the
// handler to re-read the store for the final state.
type subscriber struct {
	ch chan streamEvent
}

// store is the bounded job registry. The *pending* bound lives in the
// engine pool's queue (submit refuses with 429 when full); the store's
// own bound is on retention: finished jobs beyond maxJobs are evicted
// oldest-first so a resident server's memory does not grow without
// limit. With a non-nil persister every state transition is mirrored to
// disk (stage appends excepted — an interrupted run re-runs from
// scratch, so its stage history is rebuilt, and skipping per-stage
// writes avoids rewriting an uploaded Verilog source on every event).
type store struct {
	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // creation order, for eviction
	seq     uint64
	maxJobs int
	persist *persister
	subs    map[string][]*subscriber
}

func newStore(maxJobs int) *store {
	return &store{
		jobs:    make(map[string]*Job),
		subs:    make(map[string][]*subscriber),
		maxJobs: maxJobs,
	}
}

// create registers a new queued job and returns it with its context
// (canceled by the DELETE handler, at submit rollback, or at eviction).
func (st *store) create(spec selectivemt.JobSpec) (*Job, context.Context) {
	ctx, cancel := context.WithCancelCause(context.Background())
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	j := &Job{
		ID:      fmt.Sprintf("job-%08d", st.seq),
		Spec:    spec,
		Status:  StatusQueued,
		Created: time.Now().UTC(),
		cancel:  cancel,
	}
	st.jobs[j.ID] = j
	st.order = append(st.order, j.ID)
	st.persistLocked(j)
	st.evictLocked()
	return j, ctx
}

// restore re-registers one recovered job (already terminal, or reset to
// queued by the caller) during startup recovery, before the server
// accepts traffic. The sequence counter advances past every recovered
// ID so new submissions cannot collide. For a queued job it returns the
// fresh context the requeued task must run under.
func (st *store) restore(j *Job) context.Context {
	st.mu.Lock()
	defer st.mu.Unlock()
	var ctx context.Context
	if !j.Status.finished() {
		ctx, j.cancel = context.WithCancelCause(context.Background())
	}
	if seq := jobSeq(j.ID); seq > st.seq {
		st.seq = seq
	}
	st.jobs[j.ID] = j
	st.order = append(st.order, j.ID)
	st.persistLocked(j)
	st.evictLocked()
	return ctx
}

// reserve advances the sequence counter past seq, so no new job takes
// an ID up to it: startup recovery reserves every ID a file on disk
// carries, including files it could not decode.
func (st *store) reserve(seq uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq = max(st.seq, seq)
}

// jobSeq parses the numeric suffix of a "job-%08d" ID, or of a file name
// that starts with one; malformed IDs map to 0 (they never collide with
// generated ones).
func jobSeq(id string) uint64 {
	var n uint64
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}

// persistLocked mirrors one job's current state to the state directory.
// Persistence errors must not fail the serving path: the job stays
// authoritative in memory and the error is surfaced on the persister's
// health counter instead.
func (st *store) persistLocked(j *Job) {
	if st.persist != nil {
		st.persist.put(j)
	}
}

// evictLocked drops the oldest finished jobs beyond the retention cap.
// Live (queued/running) jobs are never evicted, so the map can
// transiently exceed the cap under a backlog larger than it.
func (st *store) evictLocked() {
	if st.maxJobs <= 0 || len(st.jobs) <= st.maxJobs {
		return
	}
	kept := st.order[:0]
	excess := len(st.jobs) - st.maxJobs
	for _, id := range st.order {
		j := st.jobs[id]
		if excess > 0 && j != nil && j.Status.finished() {
			delete(st.jobs, id)
			if st.persist != nil {
				st.persist.remove(id)
			}
			excess--
			continue
		}
		kept = append(kept, id)
	}
	st.order = kept
}

// remove deletes a job outright (submit rollback when the pool refuses
// the task). The job's cancel func is released here — before this fix,
// every 429/503 rollback leaked the context created by create, since
// nothing ever canceled it once the job record was dropped.
func (st *store) remove(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if j := st.jobs[id]; j != nil && j.cancel != nil {
		j.cancel(fmt.Errorf("job %s rolled back at submit", id))
		j.cancel = nil
	}
	delete(st.jobs, id)
	for i, oid := range st.order {
		if oid == id {
			st.order = append(st.order[:i], st.order[i+1:]...)
			break
		}
	}
	// A subscriber that attached in the create-to-rollback window ends
	// its stream on the closed channel and finds the job gone.
	st.closeSubsLocked(id, nil)
	if st.persist != nil {
		st.persist.remove(id)
	}
}

// get returns a snapshot of the job (stages copied), or nil.
func (st *store) get(id string) *Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	j := st.jobs[id]
	if j == nil {
		return nil
	}
	snap := *j
	snap.Stages = append([]Stage(nil), j.Stages...)
	return &snap
}

// markRunning flips a queued job to running; it reports false when the
// job was canceled while still queued (the runner must then not start
// the flow).
func (st *store) markRunning(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	j := st.jobs[id]
	if j == nil || j.Status != StatusQueued {
		return false
	}
	j.Status = StatusRunning
	j.Started = time.Now().UTC()
	st.persistLocked(j)
	return true
}

// finish records a terminal state, releases the job's cancel func and
// ends every attached event stream. The heavyweight inputs are dropped
// here: the uploaded Verilog source is no longer needed once the flow
// ran (or will never run), and only the serializable result view and
// rendered report survive — in memory and on disk.
func (st *store) finish(id string, status Status, result *resultView, report string, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j := st.jobs[id]
	if j == nil {
		return
	}
	j.Status = status
	j.Result = result
	j.Report = report
	if result != nil {
		j.Circuit = result.Circuit
	}
	if err != nil {
		j.Err = err.Error()
	}
	j.Spec.Verilog = ""
	j.Finished = time.Now().UTC()
	if j.cancel != nil {
		j.cancel(nil)
		j.cancel = nil
	}
	st.persistLocked(j)
	st.closeSubsLocked(id, &status)
}

// appendStage records one progress event and fans it out to the job's
// event streams.
func (st *store) appendStage(id string, s Stage) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j := st.jobs[id]
	if j == nil {
		return
	}
	j.Stages = append(j.Stages, s)
	for _, sub := range st.subs[id] {
		select {
		case sub.ch <- streamEvent{Stage: s}:
		default:
			// Overflowing buffer: drop the stage event rather than block
			// the flow; the terminal close still reaches the client.
		}
	}
}

// watch attaches an event stream to a job: the replay snapshot of every
// stage recorded so far plus — atomically, under the same lock — a
// subscription to everything after it, so the concatenation is exactly
// the polled Stages sequence with no gap and no duplicate. For an
// already-terminal job it returns the final status and no subscription.
// ok is false for unknown jobs.
func (st *store) watch(id string) (replay []Stage, final *Status, sub *subscriber, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j := st.jobs[id]
	if j == nil {
		return nil, nil, nil, false
	}
	replay = append([]Stage(nil), j.Stages...)
	if j.Status.finished() {
		status := j.Status
		return replay, &status, nil, true
	}
	sub = &subscriber{ch: make(chan streamEvent, 1024)}
	st.subs[id] = append(st.subs[id], sub)
	return replay, nil, sub, true
}

// unwatch detaches an event stream (client went away before the job
// finished). Detaching after finish already dropped the subscriber list
// is a no-op.
func (st *store) unwatch(id string, sub *subscriber) {
	st.mu.Lock()
	defer st.mu.Unlock()
	subs := st.subs[id]
	for i, s := range subs {
		if s == sub {
			st.subs[id] = append(subs[:i], subs[i+1:]...)
			break
		}
	}
	if len(st.subs[id]) == 0 {
		delete(st.subs, id)
	}
}

// closeSubsLocked ends every event stream attached to id: the terminal
// status (when known) is offered on the buffer and the channel is
// closed, which is the one signal that cannot be lost to a full buffer.
func (st *store) closeSubsLocked(id string, final *Status) {
	for _, sub := range st.subs[id] {
		if final != nil {
			select {
			case sub.ch <- streamEvent{Final: final}:
			default:
			}
		}
		close(sub.ch)
	}
	delete(st.subs, id)
}

// requestCancel cancels a job. A queued job flips to canceled
// immediately; a running one keeps its status until its technique
// pipeline observes the ctx — mid-technique, at the next stage
// boundary or ctx check — and the runner records the terminal state.
// Finished jobs report errAlreadyFinished; unknown ids report
// errUnknownJob.
func (st *store) requestCancel(id string) (Status, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j := st.jobs[id]
	if j == nil {
		return "", errUnknownJob
	}
	if j.Status.finished() {
		return j.Status, errAlreadyFinished
	}
	if j.cancel != nil {
		j.cancel(fmt.Errorf("job %s canceled by client", id))
	}
	if j.Status == StatusQueued {
		// The runner never starts (markRunning refuses), so record the
		// terminal state — including the cause — here.
		j.Status = StatusCanceled
		j.Err = "canceled by client while queued"
		j.Spec.Verilog = ""
		j.Finished = time.Now().UTC()
		st.persistLocked(j)
		st.closeSubsLocked(id, &j.Status)
	}
	return j.Status, nil
}

// counts tallies jobs by status for /v1/stats.
func (st *store) counts() map[Status]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[Status]int, 5)
	for _, j := range st.jobs {
		out[j.Status]++
	}
	return out
}
