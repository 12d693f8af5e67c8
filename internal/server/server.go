package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"selectivemt"
	"selectivemt/internal/engine"
	"selectivemt/internal/mcmm"
)

var (
	errUnknownJob      = errors.New("server: unknown job")
	errAlreadyFinished = errors.New("server: job already finished")
)

// Options configures a Server. Zero values pick serving defaults.
type Options struct {
	// Workers bounds how many jobs run concurrently on the engine
	// pool; <= 0 means GOMAXPROCS.
	Workers int
	// QueueCap bounds pending (accepted, not yet running) jobs;
	// overflow answers 429. <= 0 means DefaultQueueCap.
	QueueCap int
	// MaxUploadBytes caps the request body (Verilog uploads); <= 0
	// means DefaultMaxUpload. Oversized submits answer 413.
	MaxUploadBytes int64
	// MaxJobs caps retained job records (finished jobs evict
	// oldest-first past it); <= 0 means DefaultMaxJobs.
	MaxJobs int
	// Partitions is the default sensitivity-lane count applied to job
	// specs that leave it unset (a spec's own value wins). <= 1 keeps one
	// lane. Timing and greedy results never depend on it; the
	// sensitivity strategy's follow the lane count.
	Partitions int
	// ShardJobs bounds per-design fan-out of the sensitivity strategy's
	// lanes when Partitions > 1; same spec-wins default rule as
	// Partitions. <= 0 means GOMAXPROCS.
	ShardJobs int
	// Strategy is the default Vth-assignment strategy applied to job
	// specs that leave theirs unset (a spec's own value wins). Empty
	// means the built-in default (greedy); unknown names fail New.
	Strategy string
	// StateDir, when set, makes the job store durable: every job state
	// transition is mirrored to one JSON file per job under this
	// directory, finished jobs are re-served byte-identically after a
	// restart, and jobs that were queued or running when the process
	// died are re-enqueued on startup. Empty keeps the store in memory.
	StateDir string
	// RatePerSec, when > 0, turns on per-client submit rate limiting:
	// each client (X-Client-ID header, else remote host) gets a token
	// bucket refilling at this rate. Overflow answers 429 without
	// touching the job queue, so one greedy client cannot starve the
	// others out of the queue's capacity.
	RatePerSec float64
	// RateBurst is the bucket depth when rate limiting is on; <= 0
	// means DefaultRateBurst.
	RateBurst int
	// SSEHeartbeat is the idle keepalive interval on event streams;
	// <= 0 means DefaultSSEHeartbeat.
	SSEHeartbeat time.Duration
}

// Serving defaults.
const (
	DefaultQueueCap  = 64
	DefaultMaxUpload = 8 << 20
	DefaultMaxJobs   = 1024
	DefaultRateBurst = 8
)

// Server is the smtd HTTP service: a bounded job store feeding the flow
// engine pool, all jobs sharing one Environment (library, analysis
// cache, corner set).
type Server struct {
	env          *selectivemt.Environment
	pool         *engine.Pool
	store        *store
	opts         Options
	limits       *rateLimiter
	sseHeartbeat time.Duration
	recovered    int
	draining     atomic.Bool
	assign       assignStats

	// run executes one job's flow; it is env.RunJob in production and a
	// seam for handler tests that need a controllable (blockable,
	// failable) job without running a real flow.
	run func(ctx context.Context, spec selectivemt.JobSpec, progress func(selectivemt.BatchEvent)) (*selectivemt.JobOutcome, error)
}

// New builds a Server on the environment. The worker pool starts
// immediately; call Drain to shut it down. With Options.StateDir set,
// New also replays the state directory: finished jobs are re-served
// as-is and interrupted (queued/running) jobs are re-enqueued before
// the first request lands.
func New(env *selectivemt.Environment, opts Options) (*Server, error) {
	if opts.QueueCap <= 0 {
		opts.QueueCap = DefaultQueueCap
	}
	if opts.MaxUploadBytes <= 0 {
		opts.MaxUploadBytes = DefaultMaxUpload
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = DefaultMaxJobs
	}
	if opts.Strategy != "" {
		// Fail fast at boot: a typo'd default strategy would otherwise
		// surface as a validation error on every submitted job.
		canonical, err := selectivemt.ParseStrategy(opts.Strategy)
		if err != nil {
			return nil, err
		}
		opts.Strategy = canonical
	}
	if opts.SSEHeartbeat <= 0 {
		opts.SSEHeartbeat = DefaultSSEHeartbeat
	}
	s := &Server{
		env:          env,
		pool:         engine.NewPool(opts.Workers, opts.QueueCap),
		store:        newStore(opts.MaxJobs),
		opts:         opts,
		sseHeartbeat: opts.SSEHeartbeat,
	}
	if opts.RatePerSec > 0 {
		burst := opts.RateBurst
		if burst <= 0 {
			burst = DefaultRateBurst
		}
		s.limits = newRateLimiter(opts.RatePerSec, burst)
	}
	s.run = func(ctx context.Context, spec selectivemt.JobSpec, progress func(selectivemt.BatchEvent)) (*selectivemt.JobOutcome, error) {
		if spec.Partitions == 0 {
			spec.Partitions = opts.Partitions
		}
		if spec.ShardJobs == 0 {
			spec.ShardJobs = opts.ShardJobs
		}
		if spec.Strategy == "" {
			spec.Strategy = opts.Strategy
		}
		// One worker per job: jobs run one technique after another, so
		// the pool's concurrency across jobs is the only fan-out and a
		// job's memory stays that of one flow.
		out, err := env.RunJob(spec, selectivemt.JobOptions{Context: ctx, Workers: 1, Progress: progress})
		if out != nil {
			s.assign.observe(out)
		}
		return out, err
	}
	if opts.StateDir != "" {
		if err := s.recover(opts.StateDir); err != nil {
			s.pool.Close()
			return nil, err
		}
	}
	return s, nil
}

// recover opens the state directory, reloads every persisted job and
// re-enqueues the interrupted ones. It runs before the server accepts
// traffic, so recovered jobs keep their IDs and order ahead of any new
// submission.
func (s *Server) recover(dir string) error {
	p, err := openPersister(dir)
	if err != nil {
		return err
	}
	jobs, lastSeq, err := p.load()
	if err != nil {
		return err
	}
	s.store.persist = p
	s.store.reserve(lastSeq)
	for _, j := range jobs {
		if j.Status.finished() {
			s.store.restore(j)
			continue
		}
		// Interrupted mid-queue or mid-run: re-run from scratch. The
		// partial stage history is discarded — the flow re-emits it —
		// and determinism plus the AnalysisCache fingerprint keys land
		// the re-run on the same bytes an uninterrupted run produces.
		j.Status = StatusQueued
		j.Stages = nil
		j.Started = time.Time{}
		ctx := s.store.restore(j)
		id, spec := j.ID, j.Spec
		task := func(ctx context.Context) { s.runJob(ctx, id, spec) }
		if err := s.pool.SubmitNamed(ctx, id+"/"+spec.Circuit, task); err != nil {
			// A queue smaller than the recovered backlog: the overflow
			// lands failed with the reason recorded rather than silently
			// vanishing. Raise -queue to resume a bigger backlog.
			s.store.finish(id, StatusFailed, nil, "",
				fmt.Errorf("requeue after restart refused: %w", err))
			continue
		}
		s.recovered++
	}
	return nil
}

// Recovered reports how many interrupted jobs startup recovery
// re-enqueued (0 without a state directory).
func (s *Server) Recovered() int { return s.recovered }

// Handler returns the service's routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// Drain stops accepting jobs (healthz flips to draining, submits answer
// 503) and waits for every accepted job to finish — the SIGTERM path.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	return s.pool.Drain(ctx)
}

// writeJSON is the single success serializer.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError is the single error serializer: {"error": "..."}.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server draining, not accepting jobs")
		return
	}
	if s.limits != nil {
		if key := clientKey(r); !s.limits.allow(key) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests,
				"rate limit exceeded for client %q (%g jobs/s, burst %d), retry later",
				key, s.limits.ratePerSec, int(s.limits.burst))
			return
		}
	}
	var spec selectivemt.JobSpec
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
	dec := json.NewDecoder(body)
	// A misspelled spec key must answer 400 naming the field, not
	// silently run with defaults ("partitons": 4 is a bug in the
	// client, not a request for the default partition count).
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	// The body is one JSON object; trailing non-whitespace bytes mean a
	// malformed client, not a second job.
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, http.StatusBadRequest, "bad job spec: trailing data after JSON object")
		return
	}
	// Validate before accepting: RunJob's own check, applied up front,
	// catches unknown circuits/techniques/corners and contradictory
	// fields at submit time (400) instead of as a failed job.
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}

	job, ctx := s.store.create(spec)
	task := func(ctx context.Context) { s.runJob(ctx, job.ID, spec) }
	if err := s.pool.SubmitNamed(ctx, job.ID+"/"+spec.Circuit, task); err != nil {
		s.store.remove(job.ID)
		switch {
		case errors.Is(err, engine.ErrPoolFull):
			writeError(w, http.StatusTooManyRequests, "job queue full (cap %d), retry later", s.opts.QueueCap)
		case errors.Is(err, engine.ErrPoolClosed):
			writeError(w, http.StatusServiceUnavailable, "server draining, not accepting jobs")
		default:
			writeError(w, http.StatusInternalServerError, "submit: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{
		"id":     job.ID,
		"status": string(StatusQueued),
	})
}

// runJob executes one job on a pool worker, recording progress stages
// and the terminal state.
func (s *Server) runJob(ctx context.Context, id string, spec selectivemt.JobSpec) {
	if !s.store.markRunning(id) {
		// Canceled while queued: the store already holds the terminal
		// state; do not start the flow.
		return
	}
	defer func() {
		if r := recover(); r != nil {
			s.store.finish(id, StatusFailed, nil, "", fmt.Errorf("job panicked: %v", r))
		}
	}()
	outcome, err := s.run(ctx, spec, func(ev selectivemt.BatchEvent) {
		st := Stage{Task: ev.Task, Stage: ev.Stage, State: ev.State.String()}
		if ev.Elapsed > 0 {
			st.ElapsedMs = float64(ev.Elapsed) / float64(time.Millisecond)
		}
		if ev.Err != nil {
			st.Error = ev.Err.Error()
		}
		s.store.appendStage(id, st)
	})
	switch {
	case err == nil:
		// Reduce the outcome to what the API serves before storing it:
		// the scalar view and the rendered report, not the netlists.
		s.store.finish(id, StatusDone, buildResultView(id, outcome), outcome.Report, nil)
	case ctx.Err() != nil:
		s.store.finish(id, StatusCanceled, nil, "", err)
	default:
		s.store.finish(id, StatusFailed, nil, "", err)
	}
}

// jobView is the status JSON for one job.
type jobView struct {
	ID       string  `json:"id"`
	Status   Status  `json:"status"`
	Circuit  string  `json:"circuit,omitempty"`
	Error    string  `json:"error,omitempty"`
	Created  string  `json:"created"`
	Started  string  `json:"started,omitempty"`
	Finished string  `json:"finished,omitempty"`
	Stages   []Stage `json:"stages,omitempty"`
}

func viewOf(j *Job) jobView {
	v := jobView{
		ID:      j.ID,
		Status:  j.Status,
		Circuit: j.Spec.Circuit,
		Error:   j.Err,
		Created: j.Created.Format(time.RFC3339Nano),
		Stages:  j.Stages,
	}
	if j.Circuit != "" {
		v.Circuit = j.Circuit
	}
	if !j.Started.IsZero() {
		v.Started = j.Started.Format(time.RFC3339Nano)
	}
	if !j.Finished.IsZero() {
		v.Finished = j.Finished.Format(time.RFC3339Nano)
	}
	return v
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, viewOf(j))
}

// finishedJob fetches a job that must be terminal-and-successful for
// its result/report to exist; it writes the error response itself and
// returns nil when the caller should stop.
func (s *Server) finishedJob(w http.ResponseWriter, r *http.Request) *Job {
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return nil
	}
	switch j.Status {
	case StatusDone:
		return j
	case StatusQueued, StatusRunning:
		writeError(w, http.StatusConflict, "job %s is %s; poll GET /v1/jobs/%s until done", j.ID, j.Status, j.ID)
	default:
		writeError(w, http.StatusConflict, "job %s %s: %s", j.ID, j.Status, j.Err)
	}
	return nil
}

// techniqueView is the result JSON for one technique (the scalar face
// of TechniqueResult — the netlist itself is not serializable).
type techniqueView struct {
	Technique     string  `json:"technique"`
	ClockPeriodNs float64 `json:"clock_period_ns"`
	AreaUm2       float64 `json:"area_um2"`
	StandbyLeakMW float64 `json:"standby_leak_mw"`
	DynamicMW     float64 `json:"dynamic_mw"`
	WNSNs         float64 `json:"wns_ns"`
	WorstHoldNs   float64 `json:"worst_hold_ns"`

	CellsMT         int `json:"cells_mt"`
	CellsHVT        int `json:"cells_hvt"`
	CellsLVT        int `json:"cells_lvt"`
	Flops           int `json:"flops"`
	Switches        int `json:"switches"`
	Holders         int `json:"holders"`
	Clusters        int `json:"clusters,omitempty"`
	HoldersInserted int `json:"holders_inserted,omitempty"`

	Corners []cornerView `json:"corners,omitempty"`
}

// cornerView is one corner's sign-off numbers with the corner named.
type cornerView struct {
	Corner         string  `json:"corner"`
	SetupWNSNs     float64 `json:"setup_wns_ns"`
	SetupTNSNs     float64 `json:"setup_tns_ns"`
	HoldWNSNs      float64 `json:"hold_wns_ns"`
	HoldViolations int     `json:"hold_violations"`
	StandbyLeakMW  float64 `json:"standby_leak_mw"`
}

type wakeupView struct {
	Stages               int     `json:"stages"`
	PeakInrushMA         float64 `json:"peak_inrush_ma"`
	SimultaneousInrushMA float64 `json:"simultaneous_inrush_ma"`
	TotalWakeupNs        float64 `json:"total_wakeup_ns"`
}

type resultView struct {
	ID         string          `json:"id"`
	Circuit    string          `json:"circuit"`
	Techniques []techniqueView `json:"techniques"`
	Wakeup     *wakeupView     `json:"wakeup,omitempty"`
}

func cornerViews(rep *mcmm.Report) []cornerView {
	if rep == nil {
		return nil
	}
	out := make([]cornerView, 0, len(rep.Corners))
	for _, m := range rep.Corners {
		out = append(out, cornerView{
			Corner:         m.Corner.String(),
			SetupWNSNs:     m.SetupWNSNs,
			SetupTNSNs:     m.SetupTNSNs,
			HoldWNSNs:      m.HoldWNSNs,
			HoldViolations: m.HoldViolations,
			StandbyLeakMW:  m.StandbyLeakMW,
		})
	}
	return out
}

// buildResultView reduces a JobOutcome to its serializable face at job
// completion, so the store never retains the flow's netlists.
func buildResultView(id string, out *selectivemt.JobOutcome) *resultView {
	v := &resultView{ID: id, Circuit: out.Circuit}
	for _, tr := range out.Results {
		c := tr.Counts
		v.Techniques = append(v.Techniques, techniqueView{
			Technique:       tr.Technique,
			ClockPeriodNs:   tr.ClockPeriodNs,
			AreaUm2:         tr.AreaUm2,
			StandbyLeakMW:   tr.StandbyLeakMW,
			DynamicMW:       tr.DynamicMW,
			WNSNs:           tr.WNSNs,
			WorstHoldNs:     tr.WorstHoldNs,
			CellsMT:         c.MT,
			CellsHVT:        c.HVT,
			CellsLVT:        c.LVT,
			Flops:           c.Flops,
			Switches:        c.Switches,
			Holders:         c.Holders,
			Clusters:        len(tr.Clusters),
			HoldersInserted: tr.HoldersInserted,
			Corners:         cornerViews(tr.CornerReport),
		})
	}
	if wk := out.Wakeup; wk != nil {
		v.Wakeup = &wakeupView{
			Stages:               len(wk.Groups),
			PeakInrushMA:         wk.PeakInrushMA,
			SimultaneousInrushMA: wk.SimultaneousInrushMA,
			TotalWakeupNs:        wk.TotalWakeupNs,
		}
	}
	return v
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.finishedJob(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.Result)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.finishedJob(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(j.Report))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	status, err := s.store.requestCancel(id)
	switch {
	case errors.Is(err, errUnknownJob):
		writeError(w, http.StatusNotFound, "unknown job %q", id)
	case errors.Is(err, errAlreadyFinished):
		writeError(w, http.StatusConflict, "job %s already %s", id, status)
	default:
		// Accepted: canceled outright (was queued) or cancellation in
		// flight — the running technique's pipeline observes the ctx
		// mid-technique (the current stage drains, the rest are
		// skipped), so the job lands canceled promptly.
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": string(status)})
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// statsView is the /v1/stats payload: the shared cache's amortization
// counters, the pool's queue depth and occupancy, job tallies, the
// per-client rate limiter (when enabled) and the durable store's
// health (when a state directory is configured).
type statsView struct {
	Cache struct {
		Hits    uint64 `json:"hits"`
		Misses  uint64 `json:"misses"`
		Entries int    `json:"entries"`
	} `json:"cache"`
	Pool struct {
		Workers   int    `json:"workers"`
		Busy      int    `json:"busy"`
		Queued    int    `json:"queued"`
		QueueCap  int    `json:"queue_cap"`
		Submitted uint64 `json:"submitted"`
		Completed uint64 `json:"completed"`
	} `json:"pool"`
	Jobs      map[Status]int `json:"jobs"`
	RateLimit *rateLimitView `json:"rate_limit,omitempty"`
	Durable   *durableView   `json:"durable,omitempty"`
	Assign    *assignView    `json:"assign,omitempty"`
}

type rateLimitView struct {
	RatePerSec float64 `json:"rate_per_sec"`
	Burst      int     `json:"burst"`
	Clients    int     `json:"clients"`
	Throttled  uint64  `json:"throttled"`
}

type durableView struct {
	StateDir    string `json:"state_dir"`
	Recovered   int    `json:"recovered"`
	Quarantined int    `json:"quarantined"`
	WriteErrs   uint64 `json:"write_errors"`
}

// assignStats accumulates Vth-assignment strategy internals across the
// server's finished jobs: stage count, move counters, per-phase
// wall-clock, and the widest lane fan-out any stage ran with.
type assignStats struct {
	stages   atomic.Uint64
	commits  atomic.Uint64
	reverts  atomic.Uint64
	scoreNs  atomic.Int64
	commitNs atomic.Int64
	retimeNs atomic.Int64
	unwindNs atomic.Int64
	workers  atomic.Int64
}

func (a *assignStats) observe(out *selectivemt.JobOutcome) {
	for _, r := range out.Results {
		for _, ar := range r.AssignReports {
			a.stages.Add(1)
			a.commits.Add(uint64(ar.Commits))
			a.reverts.Add(uint64(ar.Reverts))
			a.scoreNs.Add(ar.Phases.ScoreNs)
			a.commitNs.Add(ar.Phases.CommitNs)
			a.retimeNs.Add(ar.Phases.RetimeNs)
			a.unwindNs.Add(ar.Phases.UnwindNs)
			for {
				cur := a.workers.Load()
				if int64(ar.Workers) <= cur || a.workers.CompareAndSwap(cur, int64(ar.Workers)) {
					break
				}
			}
		}
	}
}

// assignView is the /v1/stats "assign" section: cumulative assignment
// phase timings (milliseconds) over every stage the server ran.
type assignView struct {
	Stages     uint64  `json:"stages"`
	Commits    uint64  `json:"commits"`
	Reverts    uint64  `json:"reverts"`
	MaxWorkers int     `json:"max_workers"`
	ScoreMS    float64 `json:"score_ms"`
	CommitMS   float64 `json:"commit_ms"`
	RetimeMS   float64 `json:"retime_ms"`
	UnwindMS   float64 `json:"unwind_ms"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var v statsView
	v.Cache.Hits, v.Cache.Misses, v.Cache.Entries = s.env.CacheStats()
	ps := s.pool.Stats()
	v.Pool.Workers = ps.Workers
	v.Pool.Busy = ps.Busy
	v.Pool.Queued = ps.Queued
	v.Pool.QueueCap = ps.QueueCap
	v.Pool.Submitted = ps.Submitted
	v.Pool.Completed = ps.Completed
	v.Jobs = s.store.counts()
	if s.limits != nil {
		clients, throttled := s.limits.stats()
		v.RateLimit = &rateLimitView{
			RatePerSec: s.limits.ratePerSec,
			Burst:      int(s.limits.burst),
			Clients:    clients,
			Throttled:  throttled,
		}
	}
	if p := s.store.persist; p != nil {
		v.Durable = &durableView{
			StateDir:    p.dir,
			Recovered:   s.recovered,
			Quarantined: p.quarantined,
			WriteErrs:   p.writeErrs.Load(),
		}
	}
	if n := s.assign.stages.Load(); n > 0 {
		const ms = 1e6
		v.Assign = &assignView{
			Stages:     n,
			Commits:    s.assign.commits.Load(),
			Reverts:    s.assign.reverts.Load(),
			MaxWorkers: int(s.assign.workers.Load()),
			ScoreMS:    float64(s.assign.scoreNs.Load()) / ms,
			CommitMS:   float64(s.assign.commitNs.Load()) / ms,
			RetimeMS:   float64(s.assign.retimeNs.Load()) / ms,
			UnwindMS:   float64(s.assign.unwindNs.Load()) / ms,
		}
	}
	writeJSON(w, http.StatusOK, v)
}
