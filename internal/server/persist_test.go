package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"selectivemt"
)

// copyDir snapshots a state directory — the moral equivalent of the
// disk surviving a kill -9 while the process's memory does not.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestartResume is the kill-and-restart acceptance test: a server
// with a state directory accepts a backlog (one job running, two
// queued), the process "dies" (the directory is snapshotted while the
// in-memory server still holds the jobs), and a fresh server on the
// snapshot must re-enqueue all three and finish them with reports
// byte-identical to an uninterrupted run.
func TestRestartResume(t *testing.T) {
	env := testEnv(t)

	// The uninterrupted reference: the same bytes TestJobLifecycle pins.
	spec, err := selectivemt.BenchmarkCircuit("small")
	if err != nil {
		t.Fatal(err)
	}
	cfg := env.NewConfig()
	cfg.ClockSlack = spec.ClockSlack
	direct, err := env.CompareWithConfig(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := selectivemt.FormatTable1([]*selectivemt.Comparison{direct})

	// Server A: durable store, one worker, and a flow that parks — so
	// the backlog is frozen mid-queue when the "kill" happens.
	dirA := t.TempDir()
	sA, tsA := newTestServer(t, Options{Workers: 1, StateDir: dirA})
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	sA.run = func(ctx context.Context, spec selectivemt.JobSpec, progress func(selectivemt.BatchEvent)) (*selectivemt.JobOutcome, error) {
		select {
		case <-block:
			return nil, fmt.Errorf("server A released after snapshot")
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}

	var ids []string
	for i := 0; i < 3; i++ {
		code, body := doJSON(t, "POST", tsA.URL+"/v1/jobs", `{"circuit":"small"}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, code, body)
		}
		var acc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal([]byte(body), &acc); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, acc.ID)
	}
	// Freeze the snapshot only once job 1 is running (and persisted as
	// such) with jobs 2 and 3 parked behind the single worker.
	deadline := time.Now().Add(15 * time.Second)
	for {
		_, body := doJSON(t, "GET", tsA.URL+"/v1/jobs/"+ids[0], "")
		if strings.Contains(body, `"status": "running"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job 1 never started: %s", body)
		}
		time.Sleep(2 * time.Millisecond)
	}

	dirB := t.TempDir()
	copyDir(t, dirA, dirB)

	// Server B boots on the snapshot with the real flow: recovery must
	// re-enqueue the running job and both queued ones before serving.
	sB, tsB := newTestServer(t, Options{Workers: 1, StateDir: dirB})
	if got := sB.Recovered(); got != 3 {
		t.Fatalf("recovered = %d, want 3", got)
	}
	for _, id := range ids {
		code, body := doJSON(t, "GET", tsB.URL+"/v1/jobs/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("recovered job %s not served: %d %s", id, code, body)
		}
	}
	for _, id := range ids {
		waitTerminal(t, tsB, id, StatusDone)
		code, report := doJSON(t, "GET", tsB.URL+"/v1/jobs/"+id+"/report", "")
		if code != http.StatusOK {
			t.Fatalf("report %s: %d", id, code)
		}
		if report != want {
			t.Errorf("resumed job %s report diverged from the uninterrupted run:\n%q\nwant\n%q", id, report, want)
		}
	}
	// New submissions must not collide with recovered IDs.
	code, body := doJSON(t, "POST", tsB.URL+"/v1/jobs", `{"circuit":"small"}`)
	if code != http.StatusAccepted {
		t.Fatalf("post-recovery submit: %d %s", code, body)
	}
	if !strings.Contains(body, "job-00000004") {
		t.Errorf("post-recovery ID should continue the sequence: %s", body)
	}
	var acc struct {
		ID string `json:"id"`
	}
	_ = json.Unmarshal([]byte(body), &acc)
	waitTerminal(t, tsB, acc.ID, StatusDone)

	// Stats must surface the durable store.
	st := fetchStats(t, tsB.URL)
	if st.Durable == nil || st.Durable.Recovered != 3 || st.Durable.StateDir != dirB {
		t.Errorf("durable stats = %+v, want state_dir %s recovered 3", st.Durable, dirB)
	}
	if st.Durable != nil && st.Durable.WriteErrs != 0 {
		t.Errorf("persist write errors = %d", st.Durable.WriteErrs)
	}
}

// waitTerminal polls until the job reaches a terminal state and asserts
// which one.
func waitTerminal(t *testing.T, ts *httptest.Server, id string, want Status) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		code, body := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("poll %s: %d %s", id, code, body)
		}
		var v struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatal(err)
		}
		if Status(v.Status).finished() {
			if Status(v.Status) != want {
				t.Fatalf("job %s landed %s (%s), want %s", id, v.Status, v.Error, want)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %s", id, body)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFinishedJobsReloadByteIdentical: a restart re-serves finished
// jobs — status view, result JSON and report text — byte-for-byte, with
// nothing re-enqueued.
func TestFinishedJobsReloadByteIdentical(t *testing.T) {
	env := testEnv(t)
	dir := t.TempDir()

	s1, err := New(env, Options{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	s1.run = func(ctx context.Context, spec selectivemt.JobSpec, progress func(selectivemt.BatchEvent)) (*selectivemt.JobOutcome, error) {
		progress(selectivemt.BatchEvent{Task: "prepare", State: selectivemt.JobDone, Elapsed: 3 * time.Millisecond})
		return &selectivemt.JobOutcome{Circuit: spec.Circuit, Report: "report for " + spec.Circuit}, nil
	}
	type served struct{ status, result, report string }
	pre := make(map[string]served)
	for _, circuit := range []string{"small", "a"} {
		id, final := submitAndWait(t, ts1, fmt.Sprintf(`{"circuit":%q}`, circuit))
		if !strings.Contains(final, `"status": "done"`) {
			t.Fatalf("job did not succeed: %s", final)
		}
		_, result := doJSON(t, "GET", ts1.URL+"/v1/jobs/"+id+"/result", "")
		_, report := doJSON(t, "GET", ts1.URL+"/v1/jobs/"+id+"/report", "")
		pre[id] = served{status: final, result: result, report: report}
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Options{Workers: 1, StateDir: dir})
	if got := s2.Recovered(); got != 0 {
		t.Fatalf("recovered = %d, want 0 (all jobs were finished)", got)
	}
	for id, want := range pre {
		code, status := doJSON(t, "GET", ts2.URL+"/v1/jobs/"+id, "")
		if code != http.StatusOK || status != want.status {
			t.Errorf("reloaded status %s diverged (%d):\n%q\nwant\n%q", id, code, status, want.status)
		}
		_, result := doJSON(t, "GET", ts2.URL+"/v1/jobs/"+id+"/result", "")
		if result != want.result {
			t.Errorf("reloaded result %s diverged:\n%q\nwant\n%q", id, result, want.result)
		}
		_, report := doJSON(t, "GET", ts2.URL+"/v1/jobs/"+id+"/report", "")
		if report != want.report {
			t.Errorf("reloaded report %s diverged:\n%q\nwant\n%q", id, report, want.report)
		}
	}
}

// TestPersistRollbackAndEviction: a submit rollback deletes the job's
// file, and retention eviction prunes files alongside records.
func TestPersistRollbackAndEviction(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Workers: 1, QueueCap: 1, MaxJobs: 2, StateDir: dir})
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	s.run = func(ctx context.Context, spec selectivemt.JobSpec, progress func(selectivemt.BatchEvent)) (*selectivemt.JobOutcome, error) {
		select {
		case <-block:
			return &selectivemt.JobOutcome{Circuit: spec.Circuit, Report: "fake"}, nil
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
	// Occupy the worker and the queue, then overflow: the refused job
	// must leave no file behind.
	for i := 0; i < 2; i++ {
		if code, body := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"circuit":"small"}`); code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, code, body)
		}
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"circuit":"small"}`); code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", code)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Errorf("state files after rollback = %d (%v), want 2", len(files), files)
	}
	release()
	// Push enough jobs through to evict past MaxJobs=2; files must
	// follow the records out.
	for i := 0; i < 3; i++ {
		if _, final := submitAndWait(t, ts, `{"circuit":"small"}`); !strings.Contains(final, `"status": "done"`) {
			t.Fatalf("eviction filler job: %s", final)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		files, _ = filepath.Glob(filepath.Join(dir, "*.json"))
		if len(files) <= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("state files after eviction = %d (%v), want <= 2", len(files), files)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubmitRollbackReleasesContext is the regression for the submit
// rollback context leak: before the fix, a job refused by the pool
// (429/503) was removed from the store without its CancelCauseFunc ever
// being called, leaking the context on every overflow response.
func TestSubmitRollbackReleasesContext(t *testing.T) {
	st := newStore(8)
	j, ctx := st.create(selectivemt.JobSpec{Circuit: "small"})
	st.remove(j.ID)
	select {
	case <-ctx.Done():
	default:
		t.Fatal("submit rollback leaked the job context: remove did not cancel it")
	}
	if cause := context.Cause(ctx); cause == nil || !strings.Contains(cause.Error(), "rolled back") {
		t.Errorf("cancel cause = %v, want the rollback recorded", cause)
	}

	// Over HTTP: fill the queue, hammer the overflow path, and assert
	// every refusal rolled back completely — no job records linger, so
	// every created context went through remove (which cancels it).
	s, ts := newTestServer(t, Options{Workers: 1, QueueCap: 1})
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	s.run = func(ctx context.Context, spec selectivemt.JobSpec, progress func(selectivemt.BatchEvent)) (*selectivemt.JobOutcome, error) {
		select {
		case <-block:
			return &selectivemt.JobOutcome{Circuit: spec.Circuit, Report: "fake"}, nil
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
	for i := 0; i < 2; i++ {
		if code, body := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"circuit":"small"}`); code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, code, body)
		}
	}
	for i := 0; i < 20; i++ {
		if code, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"circuit":"small"}`); code != http.StatusTooManyRequests {
			t.Fatalf("overflow submit %d: %d, want 429", i, code)
		}
	}
	s.store.mu.Lock()
	live, order := len(s.store.jobs), len(s.store.order)
	s.store.mu.Unlock()
	if live != 2 || order != 2 {
		t.Errorf("after 20 refused submits: %d records / %d order entries, want 2/2", live, order)
	}
}

// TestCorruptStateFileKeepsItsID is the regression for an ID reused after
// a restart on a state directory with a corrupt job file: recovery
// skipped the file and advanced the ID sequence only past the jobs it
// decoded, so the next submission took the damaged file's ID and its
// first write overwrote the evidence. Now the file is renamed to
// .corrupt with its bytes intact, its ID stays taken, a stale .json.tmp
// leftover is removed, and /v1/stats counts the quarantined file.
func TestCorruptStateFileKeepsItsID(t *testing.T) {
	env := testEnv(t)
	dir := t.TempDir()
	fake := func(ctx context.Context, spec selectivemt.JobSpec, progress func(selectivemt.BatchEvent)) (*selectivemt.JobOutcome, error) {
		return &selectivemt.JobOutcome{Circuit: spec.Circuit, Report: "report for " + spec.Circuit}, nil
	}

	s1, err := New(env, Options{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1.run = fake
	ts1 := httptest.NewServer(s1.Handler())
	for _, want := range []string{"job-00000001", "job-00000002"} {
		if id, final := submitAndWait(t, ts1, `{"circuit":"small"}`); id != want || !strings.Contains(final, `"status": "done"`) {
			t.Fatalf("job %s: %s", id, final)
		}
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	torn := []byte("{torn")
	damaged := filepath.Join(dir, "job-00000002.json")
	if err := os.WriteFile(damaged, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-00000001.json.tmp"), []byte(`{"id":`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Options{Workers: 1, StateDir: dir})
	s2.run = fake
	if id, final := submitAndWait(t, ts2, `{"circuit":"small"}`); id != "job-00000003" || !strings.Contains(final, `"status": "done"`) {
		t.Fatalf("first job after the restart is %s (%s), want job-00000003", id, final)
	}
	if got, err := os.ReadFile(damaged + ".corrupt"); err != nil || string(got) != string(torn) {
		t.Errorf("quarantined file holds %q (%v), want the original %q", got, err, torn)
	}
	if _, err := os.Stat(damaged); !os.IsNotExist(err) {
		t.Errorf("the damaged file is still in place: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "job-00000001.json.tmp")); !os.IsNotExist(err) {
		t.Errorf("the stale temp file survived the restart: %v", err)
	}
	if code, _ := doJSON(t, "GET", ts2.URL+"/v1/jobs/job-00000001", ""); code != http.StatusOK {
		t.Errorf("the intact job is gone after the restart: %d", code)
	}
	st := fetchStats(t, ts2.URL)
	if st.Durable == nil || st.Durable.Quarantined != 1 || st.Durable.WriteErrs != 0 {
		t.Errorf("durable stats = %+v, want 1 quarantined file and no write errors", st.Durable)
	}

	// The quarantined file keeps its ID taken on later restarts too, even
	// once no intact file above it is left, and is not quarantined again.
	ts2.Close()
	if err := s2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "job-00000003.json")); err != nil {
		t.Fatal(err)
	}
	s3, ts3 := newTestServer(t, Options{Workers: 1, StateDir: dir})
	s3.run = fake
	if id, _ := submitAndWait(t, ts3, `{"circuit":"small"}`); id != "job-00000003" {
		t.Errorf("first job after the second restart is %s, want job-00000003 (past the quarantined job-00000002)", id)
	}
	if st := fetchStats(t, ts3.URL); st.Durable == nil || st.Durable.Quarantined != 0 {
		t.Errorf("durable stats after the second restart = %+v, want nothing quarantined again", st.Durable)
	}
}

// TestStateFilesFromEarlierReleases pins the state-file format against
// two files an earlier smtd wrote: testdata/job-00000001.json, a finished
// two-technique job, and testdata/job-00000002.json, whose spec still
// carries "assign_jobs", a field JobSpec no longer has. Both must load
// and serve their stored report; put must rewrite the first byte for
// byte, so the store keeps writing the format it reads.
func TestStateFilesFromEarlierReleases(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, "testdata", dir)
	s, ts := newTestServer(t, Options{Workers: 1, StateDir: dir})
	if got := s.Recovered(); got != 0 {
		t.Fatalf("recovered = %d, want 0 (both jobs are finished)", got)
	}
	for _, name := range []string{"job-00000001.json", "job-00000002.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var want struct {
			ID     string `json:"id"`
			Report string `json:"report"`
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if want.Report == "" {
			t.Fatalf("%s holds no report; the fixture shows nothing", name)
		}
		code, report := doJSON(t, "GET", ts.URL+"/v1/jobs/"+want.ID+"/report", "")
		if code != http.StatusOK || report != want.Report {
			t.Errorf("%s: /report answered %d:\n%q\nwant the stored report\n%q", name, code, report, want.Report)
		}
	}
	if !strings.Contains(readFile(t, filepath.Join("testdata", "job-00000002.json")), `"assign_jobs":2`) {
		t.Fatal("job-00000002.json lost its assign_jobs field; the fixture shows nothing")
	}

	// load renames what it cannot decode, so it reads a copy.
	loadDir := t.TempDir()
	copyDir(t, "testdata", loadDir)
	src, err := openPersister(loadDir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := openPersister(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs, _, err := src.load()
	if err != nil || len(jobs) != 2 {
		t.Fatalf("load = %d jobs, %v; want 2", len(jobs), err)
	}
	p.put(jobs[0])
	want := readFile(t, filepath.Join("testdata", "job-00000001.json"))
	if got := readFile(t, p.path(jobs[0].ID)); got != want {
		t.Errorf("put rewrote %s as\n%s\nwant\n%s", jobs[0].ID, got, want)
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
