// Command smtd serves the selective-MT flow as a long-running HTTP/JSON
// job service: clients POST flow jobs (benchmark circuit or uploaded
// Verilog, technique subset, sign-off corners, inrush limit), poll
// status, and fetch results and rendered reports. One process-wide
// environment amortizes library characterization, the shared analysis
// cache and the per-corner libraries across every request — the whole
// point of staying resident instead of re-running a one-shot CLI.
//
// Job specs name techniques by their registered pipeline names —
// the built-ins (dual, conventional, improved) or any custom pipeline
// an embedding build registered via selectivemt.RegisterPipeline — and
// the status payload streams per-pipeline-stage progress with
// wall-clock, while DELETE cancels a running job mid-technique (the
// current stage drains, the rest are skipped).
//
// Endpoints:
//
//	POST   /v1/jobs           submit (202 + job id; 429 when the queue is full or the client is rate-limited)
//	GET    /v1/jobs/{id}      status + per-stage progress
//	GET    /v1/jobs/{id}/events   stage progress as SSE (replay-then-follow, heartbeats, done frame)
//	GET    /v1/jobs/{id}/result   technique metrics as JSON
//	GET    /v1/jobs/{id}/report   rendered Table-1 / report text
//	DELETE /v1/jobs/{id}      cancel (202; 409 once finished)
//	GET    /v1/healthz        ok / draining
//	GET    /v1/stats          cache hits/misses, queue depth, worker occupancy, rate-limit/durability counters
//
// SIGTERM/SIGINT drain gracefully: accepted jobs finish (bounded by
// -drain-timeout), new submissions get 503. With -state-dir the store
// is durable: finished jobs are re-served byte-identically after a
// restart and interrupted ones are re-enqueued on startup, so a kill
// mid-backlog loses no work.
//
// Usage:
//
//	smtd [-addr :8177] [-jobs N] [-queue N] [-max-upload BYTES] [-drain-timeout 2m]
//	     [-state-dir DIR] [-rate JOBS_PER_SEC] [-rate-burst N] [-strategy greedy|sensitivity]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"selectivemt"
	"selectivemt/internal/server"
)

func main() {
	addr := flag.String("addr", ":8177", "listen address")
	jobs := flag.Int("jobs", 0, "max concurrently running flow jobs (0 = GOMAXPROCS)")
	queue := flag.Int("queue", server.DefaultQueueCap, "pending-job queue cap (submissions beyond it get 429)")
	maxUpload := flag.Int64("max-upload", server.DefaultMaxUpload, "request body size cap in bytes (413 beyond it)")
	maxJobs := flag.Int("max-jobs", server.DefaultMaxJobs, "finished-job retention cap (oldest evicted past it)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "how long a shutdown waits for accepted jobs")
	partitions := flag.Int("partitions", 0, "default timing shards for specs that leave partitions unset (<= 1 = one shard)")
	shardJobs := flag.Int("shard-jobs", 0, "default per-design fan-out (timing shards and sensitivity assignment lanes) for specs that leave shard_jobs unset (0 = GOMAXPROCS)")
	strategy := flag.String("strategy", "", "default Vth-assignment strategy for specs that leave strategy unset (greedy or sensitivity)")
	stateDir := flag.String("state-dir", "", "durable job store directory: jobs survive restarts, interrupted ones are re-enqueued (empty = in-memory only)")
	rate := flag.Float64("rate", 0, "per-client submit rate limit in jobs/s, keyed by X-Client-ID or remote host (0 = unlimited)")
	rateBurst := flag.Int("rate-burst", server.DefaultRateBurst, "per-client token-bucket depth when -rate is set")
	flag.Parse()
	log.SetFlags(0)

	// The same -jobs contract as table1/smtflow/smtreport: 0 means
	// GOMAXPROCS, negatives are rejected up front rather than silently
	// reinterpreted.
	if *jobs < 0 {
		log.Fatalf("smtd: -jobs must be >= 0 (0 = all %d CPUs), got %d", runtime.GOMAXPROCS(0), *jobs)
	}
	if *partitions < 0 {
		log.Fatalf("smtd: -partitions must be >= 0 (<= 1 = one shard), got %d", *partitions)
	}
	if *shardJobs < 0 {
		log.Fatalf("smtd: -shard-jobs must be >= 0 (0 = all %d CPUs), got %d", runtime.GOMAXPROCS(0), *shardJobs)
	}

	start := time.Now()
	env, err := selectivemt.NewEnvironment()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("smtd: library characterized in %v (%d cells)", time.Since(start).Round(time.Millisecond), len(env.Lib.Cells))

	srv, err := server.New(env, server.Options{
		Workers:        *jobs,
		QueueCap:       *queue,
		MaxUploadBytes: *maxUpload,
		MaxJobs:        *maxJobs,
		Partitions:     *partitions,
		ShardJobs:      *shardJobs,
		Strategy:       *strategy,
		StateDir:       *stateDir,
		RatePerSec:     *rate,
		RateBurst:      *rateBurst,
	})
	if err != nil {
		log.Fatalf("smtd: %v", err)
	}
	if *stateDir != "" {
		log.Printf("smtd: durable store at %s (%d interrupted jobs re-enqueued)", *stateDir, srv.Recovered())
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("smtd: serving on %s (%d workers, queue cap %d)", *addr, selectivemt.EffectiveJobs(*jobs), *queue)

	select {
	case err := <-errc:
		log.Fatalf("smtd: serve: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("smtd: draining (timeout %v)...", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		log.Printf("smtd: drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("smtd: shutdown: %v", err)
	}
	fmt.Println("smtd: stopped")
}
