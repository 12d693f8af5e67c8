package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"selectivemt"
)

// One characterized environment for the whole test binary: building the
// library takes longer than every handler test combined, and sharing it
// is exactly the amortization the server exists for.
var (
	envOnce sync.Once
	envVal  *selectivemt.Environment
	envErr  error
)

func testEnv(t *testing.T) *selectivemt.Environment {
	t.Helper()
	envOnce.Do(func() { envVal, envErr = selectivemt.NewEnvironment() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(testEnv(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

func doJSON(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// submitAndWait submits a spec and polls until the job reaches a
// terminal state, returning the job id and final status view body.
func submitAndWait(t *testing.T, ts *httptest.Server, spec string) (string, string) {
	t.Helper()
	code, body := doJSON(t, "POST", ts.URL+"/v1/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(body), &acc); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body = doJSON(t, "GET", ts.URL+"/v1/jobs/"+acc.ID, "")
		if code != http.StatusOK {
			t.Fatalf("poll %s: %d %s", acc.ID, code, body)
		}
		var v struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatal(err)
		}
		switch Status(v.Status) {
		case StatusDone, StatusFailed, StatusCanceled:
			return acc.ID, body
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %s", acc.ID, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBadRequests is the table-driven sweep over every submit-time
// rejection plus the not-found and wrong-state paths of the other
// endpoints.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxUploadBytes: 2048})

	for _, tc := range []struct {
		name   string
		method string
		path   string
		body   string
		code   int
		want   string
	}{
		{"bad json", "POST", "/v1/jobs", "{not json", http.StatusBadRequest, "bad job spec"},
		// A misspelled spec key must answer 400 naming the field —
		// before the DisallowUnknownFields fix this job silently ran
		// with the default partition count.
		{"unknown field", "POST", "/v1/jobs", `{"circuit":"small","partitons":4}`, http.StatusBadRequest, "partitons"},
		// The lane width is the timer's shard_jobs; the old separate
		// field is now as unknown as a typo.
		{"removed lane-width field", "POST", "/v1/jobs", `{"circuit":"small","assign_jobs":2}`, http.StatusBadRequest, "assign_jobs"},
		{"trailing garbage", "POST", "/v1/jobs", `{"circuit":"small"} {"oops":1}`, http.StatusBadRequest, "trailing data"},
		{"empty spec", "POST", "/v1/jobs", "{}", http.StatusBadRequest, "circuit name or a Verilog"},
		{"unknown circuit", "POST", "/v1/jobs", `{"circuit":"z"}`, http.StatusBadRequest, "unknown circuit"},
		{"unknown technique", "POST", "/v1/jobs", `{"circuit":"small","techniques":["magic"]}`, http.StatusBadRequest, "unknown technique"},
		{"unknown corner", "POST", "/v1/jobs", `{"circuit":"small","corners":["warp"]}`, http.StatusBadRequest, "unknown corner"},
		{"circuit and verilog", "POST", "/v1/jobs", `{"circuit":"a","verilog":"module m; endmodule"}`, http.StatusBadRequest, "both"},
		{"verilog without clock", "POST", "/v1/jobs", `{"verilog":"module m; endmodule"}`, http.StatusBadRequest, "clock_period_ns"},
		{"negative inrush", "POST", "/v1/jobs", `{"circuit":"small","inrush_limit_ma":-2}`, http.StatusBadRequest, "inrush"},
		{"oversized upload", "POST", "/v1/jobs",
			fmt.Sprintf(`{"verilog":%q,"clock_period_ns":1}`, strings.Repeat("x", 4096)),
			http.StatusRequestEntityTooLarge, "exceeds"},
		{"status unknown job", "GET", "/v1/jobs/job-99999999", "", http.StatusNotFound, "unknown job"},
		{"events unknown job", "GET", "/v1/jobs/job-99999999/events", "", http.StatusNotFound, "unknown job"},
		{"result unknown job", "GET", "/v1/jobs/job-99999999/result", "", http.StatusNotFound, "unknown job"},
		{"report unknown job", "GET", "/v1/jobs/job-99999999/report", "", http.StatusNotFound, "unknown job"},
		{"cancel unknown job", "DELETE", "/v1/jobs/job-99999999", "", http.StatusNotFound, "unknown job"},
		{"wrong method", "PUT", "/v1/jobs/job-1", "", http.StatusMethodNotAllowed, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, body := doJSON(t, tc.method, ts.URL+tc.path, tc.body)
			if code != tc.code {
				t.Fatalf("%s %s: code = %d, want %d (%s)", tc.method, tc.path, code, tc.code, body)
			}
			if tc.want != "" && !strings.Contains(body, tc.want) {
				t.Errorf("%s %s: body %q missing %q", tc.method, tc.path, body, tc.want)
			}
		})
	}
}

// TestJobLifecycle drives one real flow end to end over HTTP: submit,
// poll, result JSON, report text, stats, and the cancel-after-complete
// conflict.
func TestJobLifecycle(t *testing.T) {
	env := testEnv(t)
	_, ts := newTestServer(t, Options{Workers: 1})

	id, final := submitAndWait(t, ts, `{"circuit":"small"}`)
	if !strings.Contains(final, `"status": "done"`) {
		t.Fatalf("job did not succeed: %s", final)
	}
	// Status must carry the recorded stages: prepare plus the three
	// techniques, each running then done.
	var v struct {
		Circuit string  `json:"circuit"`
		Stages  []Stage `json:"stages"`
	}
	if err := json.Unmarshal([]byte(final), &v); err != nil {
		t.Fatal(err)
	}
	if v.Circuit != "small_test" {
		t.Errorf("circuit = %q, want small_test", v.Circuit)
	}
	done := map[string]bool{}
	for _, st := range v.Stages {
		if st.State == "done" {
			done[st.Task] = true
		}
	}
	for _, task := range []string{"prepare", "Dual-Vth", "Conventional-SMT", "Improved-SMT"} {
		if !done[task] {
			t.Errorf("no done stage for %s (stages: %+v)", task, v.Stages)
		}
	}

	// Result JSON: three techniques with physical numbers.
	code, body := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/result", "")
	if code != http.StatusOK {
		t.Fatalf("result: %d %s", code, body)
	}
	var res resultView
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Techniques) != 3 {
		t.Fatalf("result techniques = %d, want 3", len(res.Techniques))
	}
	for _, tr := range res.Techniques {
		if tr.AreaUm2 <= 0 || tr.StandbyLeakMW <= 0 {
			t.Errorf("%s: non-physical area %.1f / leakage %g", tr.Technique, tr.AreaUm2, tr.StandbyLeakMW)
		}
	}

	// Report must be byte-identical to the direct facade run.
	code, report := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/report", "")
	if code != http.StatusOK {
		t.Fatalf("report: %d", code)
	}
	spec := selectivemt.SmallTest()
	cfg := env.NewConfig()
	cfg.ClockSlack = spec.ClockSlack
	direct, err := env.CompareWithConfig(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := selectivemt.FormatTable1([]*selectivemt.Comparison{direct}); report != want {
		t.Errorf("served report diverged from CompareWithConfig:\n%q\nwant\n%q", report, want)
	}

	// Cancel after completion must conflict, not resurrect the job.
	code, body = doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+id, "")
	if code != http.StatusConflict {
		t.Fatalf("cancel-after-complete: code = %d (%s), want 409", code, body)
	}

	// Stats must account for the work.
	code, body = doJSON(t, "GET", ts.URL+"/v1/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	var stv statsView
	if err := json.Unmarshal([]byte(body), &stv); err != nil {
		t.Fatal(err)
	}
	if stv.Pool.Submitted == 0 || stv.Pool.Completed == 0 {
		t.Errorf("pool counters untouched: %+v", stv.Pool)
	}
	if stv.Jobs[StatusDone] == 0 {
		t.Errorf("no done jobs in stats: %v", stv.Jobs)
	}
}

// TestQueueCapAndCancel exercises the 429 overflow path and both cancel
// paths (queued → canceled immediately; running → canceled when the
// engine drains) with a controllable fake flow.
func TestQueueCapAndCancel(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueCap: 1})
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	started := make(chan string, 8)
	s.run = func(ctx context.Context, spec selectivemt.JobSpec, progress func(selectivemt.BatchEvent)) (*selectivemt.JobOutcome, error) {
		started <- spec.Circuit
		select {
		case <-block:
			return &selectivemt.JobOutcome{Circuit: spec.Circuit, Report: "fake"}, nil
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}

	// First job occupies the single worker.
	code, body := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"circuit":"a"}`)
	if code != http.StatusAccepted {
		t.Fatalf("job 1: %d %s", code, body)
	}
	var j1 struct {
		ID string `json:"id"`
	}
	_ = json.Unmarshal([]byte(body), &j1)
	<-started

	// Second fills the queue; third overflows with 429.
	code, body = doJSON(t, "POST", ts.URL+"/v1/jobs", `{"circuit":"b"}`)
	if code != http.StatusAccepted {
		t.Fatalf("job 2: %d %s", code, body)
	}
	var j2 struct {
		ID string `json:"id"`
	}
	_ = json.Unmarshal([]byte(body), &j2)
	code, body = doJSON(t, "POST", ts.URL+"/v1/jobs", `{"circuit":"small"}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("job 3 over cap: code = %d (%s), want 429", code, body)
	}
	if !strings.Contains(body, "queue full") {
		t.Errorf("429 body should explain the queue: %s", body)
	}
	// The refused job must not linger in stats.
	code, body = doJSON(t, "GET", ts.URL+"/v1/stats", "")
	if code != http.StatusOK {
		t.Fatal("stats down")
	}
	var stv statsView
	_ = json.Unmarshal([]byte(body), &stv)
	if got := stv.Jobs[StatusQueued] + stv.Jobs[StatusRunning]; got != 2 {
		t.Errorf("live jobs = %d, want 2 (overflow must roll back)", got)
	}

	// Cancel the queued job: immediate terminal state, worker never
	// sees it.
	code, body = doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+j2.ID, "")
	if code != http.StatusAccepted || !strings.Contains(body, string(StatusCanceled)) {
		t.Fatalf("cancel queued: %d %s", code, body)
	}
	// Its result must answer 409 with the canceled state.
	code, body = doJSON(t, "GET", ts.URL+"/v1/jobs/"+j2.ID+"/result", "")
	if code != http.StatusConflict {
		t.Fatalf("result of canceled job: %d %s", code, body)
	}

	// Cancel the running job: request accepted, then the fake flow
	// observes ctx cancellation and the job lands canceled.
	code, body = doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+j1.ID, "")
	if code != http.StatusAccepted {
		t.Fatalf("cancel running: %d %s", code, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body = doJSON(t, "GET", ts.URL+"/v1/jobs/"+j1.ID, "")
		if strings.Contains(body, `"status": "canceled"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("running job never landed canceled: %s", body)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The queued-then-canceled job must never have started.
	release()
	select {
	case c := <-started:
		t.Errorf("canceled queued job still ran (circuit %q)", c)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestDrain: draining flips healthz, refuses new jobs, and finishes the
// accepted backlog.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	s.run = func(ctx context.Context, spec selectivemt.JobSpec, progress func(selectivemt.BatchEvent)) (*selectivemt.JobOutcome, error) {
		time.Sleep(10 * time.Millisecond)
		return &selectivemt.JobOutcome{Circuit: spec.Circuit, Report: "fake"}, nil
	}
	code, body := doJSON(t, "GET", ts.URL+"/v1/healthz", "")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz before drain: %d %s", code, body)
	}
	code, body = doJSON(t, "POST", ts.URL+"/v1/jobs", `{"circuit":"small"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var acc struct {
		ID string `json:"id"`
	}
	_ = json.Unmarshal([]byte(body), &acc)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	code, body = doJSON(t, "GET", ts.URL+"/v1/healthz", "")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("healthz during drain: %d %s", code, body)
	}
	code, body = doJSON(t, "POST", ts.URL+"/v1/jobs", `{"circuit":"small"}`)
	if code != http.StatusServiceUnavailable {
		t.Errorf("submit during drain: %d %s, want 503", code, body)
	}
	// The accepted job must have been finished, not abandoned.
	code, body = doJSON(t, "GET", ts.URL+"/v1/jobs/"+acc.ID, "")
	if code != http.StatusOK || !strings.Contains(body, `"status": "done"`) {
		t.Errorf("backlog job after drain: %d %s, want done", code, body)
	}
}

// TestFailedJob: a flow error lands the job in failed with the error
// preserved, and result answers 409 carrying it.
func TestFailedJob(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	s.run = func(ctx context.Context, spec selectivemt.JobSpec, progress func(selectivemt.BatchEvent)) (*selectivemt.JobOutcome, error) {
		return nil, fmt.Errorf("synthetic flow failure")
	}
	id, final := submitAndWait(t, ts, `{"circuit":"small"}`)
	if !strings.Contains(final, `"status": "failed"`) || !strings.Contains(final, "synthetic flow failure") {
		t.Fatalf("failed job view: %s", final)
	}
	code, body := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/result", "")
	if code != http.StatusConflict || !strings.Contains(body, "synthetic flow failure") {
		t.Errorf("result of failed job: %d %s", code, body)
	}
}

// TestPanickingJob: a panicking flow must not take down the server; the
// job lands failed with the panic message.
func TestPanickingJob(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	s.run = func(ctx context.Context, spec selectivemt.JobSpec, progress func(selectivemt.BatchEvent)) (*selectivemt.JobOutcome, error) {
		panic("flow exploded")
	}
	_, final := submitAndWait(t, ts, `{"circuit":"small"}`)
	if !strings.Contains(final, `"status": "failed"`) || !strings.Contains(final, "flow exploded") {
		t.Fatalf("panicked job view: %s", final)
	}
	// The worker survived: a healthy job still runs.
	s.run = func(ctx context.Context, spec selectivemt.JobSpec, progress func(selectivemt.BatchEvent)) (*selectivemt.JobOutcome, error) {
		return &selectivemt.JobOutcome{Circuit: spec.Circuit, Report: "ok"}, nil
	}
	_, final = submitAndWait(t, ts, `{"circuit":"small"}`)
	if !strings.Contains(final, `"status": "done"`) {
		t.Fatalf("job after panic: %s", final)
	}
}

// TestStoreEviction: finished jobs beyond MaxJobs evict oldest-first;
// live jobs survive.
func TestStoreEviction(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, MaxJobs: 2})
	s.run = func(ctx context.Context, spec selectivemt.JobSpec, progress func(selectivemt.BatchEvent)) (*selectivemt.JobOutcome, error) {
		return &selectivemt.JobOutcome{Circuit: spec.Circuit, Report: "fake"}, nil
	}
	var ids []string
	for i := 0; i < 4; i++ {
		id, final := submitAndWait(t, ts, `{"circuit":"small"}`)
		if !strings.Contains(final, `"status": "done"`) {
			t.Fatalf("job %d: %s", i, final)
		}
		ids = append(ids, id)
	}
	// The two oldest must be gone, the two newest still served.
	for _, id := range ids[:2] {
		if code, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, ""); code != http.StatusNotFound {
			t.Errorf("evicted job %s still served (code %d)", id, code)
		}
	}
	for _, id := range ids[2:] {
		if code, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, ""); code != http.StatusOK {
			t.Errorf("retained job %s not served (code %d)", id, code)
		}
	}
}
