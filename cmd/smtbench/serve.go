package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"selectivemt"
	"selectivemt/internal/server"
)

const (
	serveWorkers = 2 // smtd flow workers: one per CPU of the reference machine
	pollInterval = 5 * time.Millisecond
	// serveMaxJobs caps the jobs smtd retains, so its store reaches the
	// steady size a long-running server has within one run and peak memory
	// does not grow with the number of jobs a run happens to finish. Two
	// clients fetch each report as soon as the job ends, long before it
	// could be evicted.
	serveMaxJobs = 100
)

// The job mix is smtload's default: a quarter of the jobs are generated
// Verilog uploads in three sizes, the others rotate through the benchmark
// circuits small, a and b. Job j of the sequence is jobSpec(j); the
// sequence repeats every mixPeriod jobs, and the seed picks where in it a
// run starts.
const (
	uploadPct = 25
	mixPeriod = 300 // lcm of the 100-job upload pattern and the 3-way rotation
)

var mixCircuits = []string{"small", "a", "b"}

// smtd is one in-process server on a loopback listener.
type smtd struct {
	env  *selectivemt.Environment
	base string
	stop func()
}

// bootSmtd starts the real serving stack (durable store in a temporary
// directory) on a loopback port.
func (r *runner) bootSmtd(parent int) (*smtd, error) {
	var env *selectivemt.Environment
	if err := r.layer("liberty.generate", parent, 0, func() (err error) {
		env, err = selectivemt.NewEnvironment()
		return err
	}); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "smtbench-state-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(env, server.Options{Workers: serveWorkers, MaxJobs: serveMaxJobs, StateDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln)
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = srv.Drain(ctx)
		_ = hs.Shutdown(ctx)
		<-served
		os.RemoveAll(dir)
	}
	return &smtd{env: env, base: "http://" + ln.Addr().String(), stop: stop}, nil
}

// jobSpec is job j of the mix, as cmd/smtload's jobSpec makes it: the
// stride-37 residue walk makes exactly uploadPct of every 100 jobs uploads
// while keeping them interleaved with the others. The three upload sizes
// miss the cache the first time each is seen and hit it afterwards.
func jobSpec(j int) (key, body string) {
	if j*37%100 < uploadPct {
		k := j % 3
		b, _ := json.Marshal(map[string]any{"verilog": uploadNetlist(k), "clock_period_ns": 10.0})
		return fmt.Sprintf("upload-%d", k), string(b)
	}
	c := mixCircuits[j%len(mixCircuits)]
	return c, fmt.Sprintf(`{"circuit":%q}`, c)
}

// uploadNetlist is smtload's upload variant k: a NAND front end, an
// inverter chain of 4, 12 or 28 stages and a capturing flop.
func uploadNetlist(k int) string {
	chain := []int{4, 12, 28}[k]
	var b strings.Builder
	fmt.Fprintf(&b, "module load_upload_%d (a, b, clk, y);\n  input a, b;\n  input clk;\n  output y;\n", k)
	for i := 0; i <= chain; i++ {
		fmt.Fprintf(&b, "  wire n%d;\n", i)
	}
	b.WriteString("  NAND2_X1_L g0 (.A(a), .B(b), .ZN(n0));\n")
	for i := 1; i <= chain; i++ {
		fmt.Fprintf(&b, "  INV_X1_L g%d (.A(n%d), .ZN(n%d));\n", i, i-1, i)
	}
	fmt.Fprintf(&b, "  DFF_X1_L ff (.D(n%d), .CK(clk), .Q(y));\nendmodule\n", chain)
	return b.String()
}

// jobObs is what a client saw of one job.
type jobObs struct {
	key     string
	sse     bool
	traced  bool
	err     error
	latency float64 // submit to report received, s
	// Milliseconds: client-timed POST, server queue wait and run (from the
	// job's timestamps), terminal state seen after finish, report GET.
	submit, queueWait, run, notify, report float64

	reportSum [32]byte
}

// runServe drives smtd with one polling and one SSE client, each a closed
// loop over the seeded job mix. Set-up boots the server and runs each
// benchmark once, so the measured loop sees a warm cache.
//
// Job latency falls in four clusters of about a quarter of the jobs each
// (uploads, small, b, a), so the median sits on the boundary between the
// small and b clusters and jumps between them with a one-job change in the
// count of either. flow_s on serve is therefore the mean job latency.
func runServe(r *runner) error {
	r.center = mean
	ref := map[string][32]byte{} // first /report digest per spec
	var servers []*smtd
	defer func() {
		for _, s := range servers {
			s.stop()
		}
	}()
	err := r.setup(func(parent int) error {
		s, err := r.bootSmtd(parent)
		if err != nil {
			return err
		}
		servers = append(servers, s)
		warm := s.client("warm-up", false)
		defer warm.http.CloseIdleConnections()
		for _, c := range []string{"small", "a", "b"} {
			r.checkJob(ref, warm.job(nil, 0, c, fmt.Sprintf(`{"circuit":%q}`, c)))
		}
		return nil
	})
	if err != nil {
		return err
	}
	s := servers[len(servers)-1]
	for _, old := range servers[:len(servers)-1] {
		old.stop()
	}
	servers = servers[len(servers)-1:]

	h0, m0, _ := s.env.CacheStats()
	first := int(r.opt.seed % mixPeriod)
	if first < 0 {
		first += mixPeriod
	}
	deadline := time.Now().Add(time.Duration(r.opt.seconds * float64(time.Second)))
	var issued atomic.Int64
	clients := []*client{s.client("poll", false), s.client("sse", true)}
	obs := make([][]jobObs, len(clients))
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.http.CloseIdleConnections()
			for {
				n := issued.Add(1)
				if (r.opt.maxOps > 0 && n > int64(r.opt.maxOps)) || (r.opt.maxOps <= 0 && time.Now().After(deadline)) {
					return
				}
				var t *tracer
				if r.opt.traced && n%2 == 1 {
					t = r.tr
				}
				key, body := jobSpec(first + int(n) - 1)
				obs[ci] = append(obs[ci], c.job(t, int(n), key, body))
			}
		}()
	}
	wg.Wait()
	r.loopS = time.Since(start).Seconds()
	h1, m1, _ := s.env.CacheStats()
	r.sampleCache(h1-h0, m1-m0)

	series := map[string][]float64{}
	for _, list := range obs {
		for _, o := range list {
			r.ops++
			if !r.checkJob(ref, o) {
				continue
			}
			if o.traced {
				r.latTr["flow"] = append(r.latTr["flow"], o.latency)
			} else {
				r.lat["flow"] = append(r.lat["flow"], o.latency)
			}
			via := "poll"
			if o.sse {
				via = "sse"
			}
			series["submit"] = append(series["submit"], o.submit)
			series["queue_wait"] = append(series["queue_wait"], o.queueWait)
			series["run"] = append(series["run"], o.run)
			series["notify_"+via] = append(series["notify_"+via], o.notify)
			series["report_"+via] = append(series["report_"+via], o.report)
		}
	}
	for _, name := range sortedKeys(series) {
		xs := series[name]
		r.set("server."+name+"_p50_ms", median(xs), len(xs))
		v, _ := tail(xs)
		r.set("server."+name+"_tail_ms", v, len(xs))
	}
	return nil
}

// checkJob counts one job and checks its report against the first report
// of the same spec; it reports whether the job succeeded.
func (r *runner) checkJob(ref map[string][32]byte, o jobObs) bool {
	r.attempt("job "+o.key, o.err)
	if o.err != nil {
		return false
	}
	if want, ok := ref[o.key]; ok {
		r.check("report-identical", o.reportSum == want, "%s: /report differs from the first job of that spec", o.key)
	} else {
		ref[o.key] = o.reportSum
	}
	return true
}

// client is one closed-loop smtd client with a connection of its own.
type client struct {
	base, id string
	sse      bool
	http     *http.Client
}

func (s *smtd) client(id string, sse bool) *client {
	return &client{base: s.base, id: id, sse: sse, http: &http.Client{Transport: &http.Transport{}}}
}

// job submits one spec, follows it to a terminal state by polling or SSE,
// and fetches its report.
func (c *client) job(t *tracer, op int, key, body string) (o jobObs) {
	o.key, o.sse, o.traced = key, c.sse, t != nil
	jid := t.begin("job", 0, op)
	defer t.end(jid)
	t0 := time.Now()

	var id string
	sid := t.begin("server.submit", jid, op)
	id, o.err = c.submit(body)
	t.end(sid)
	o.submit = ms(time.Since(t0))
	if o.err != nil {
		return o
	}

	fid := t.begin("server.follow", jid, op)
	var view jobView
	if c.sse {
		o.err = c.followSSE(id)
	} else {
		view, o.err = c.followPoll(id)
	}
	seen := time.Now()
	t.end(fid)
	if o.err != nil {
		return o
	}

	rid := t.begin("server.report", jid, op)
	r0 := time.Now()
	report, err := c.get("/v1/jobs/" + id + "/report")
	o.report = ms(time.Since(r0))
	t.end(rid)
	o.latency = time.Since(t0).Seconds()
	if err != nil {
		o.err = err
		return o
	}
	o.reportSum = sha256.Sum256(report)

	if c.sse {
		if view, o.err = c.status(id); o.err != nil {
			return o
		}
	}
	if view.Status != "done" {
		o.err = fmt.Errorf("job %s ended %s: %s", id, view.Status, view.Error)
		return o
	}
	created, e1 := time.Parse(time.RFC3339Nano, view.Created)
	started, e2 := time.Parse(time.RFC3339Nano, view.Started)
	finished, e3 := time.Parse(time.RFC3339Nano, view.Finished)
	if err := errors.Join(e1, e2, e3); err != nil {
		o.err = fmt.Errorf("job %s timestamps: %w", id, err)
		return o
	}
	o.queueWait = ms(started.Sub(created))
	o.run = ms(finished.Sub(started))
	o.notify = ms(seen.Sub(finished))
	return o
}

type jobView struct {
	Status   string `json:"status"`
	Error    string `json:"error"`
	Created  string `json:"created"`
	Started  string `json:"started"`
	Finished string `json:"finished"`
}

func (c *client) submit(body string) (string, error) {
	req, err := http.NewRequest("POST", c.base+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set(server.ClientIDHeader, c.id)
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: %d %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &acc); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	return acc.ID, nil
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (c *client) status(id string) (jobView, error) {
	var v jobView
	data, err := c.get("/v1/jobs/" + id)
	if err == nil {
		err = json.Unmarshal(data, &v)
	}
	return v, err
}

// followPoll polls the job's status until it is terminal.
func (c *client) followPoll(id string) (jobView, error) {
	for deadline := time.Now().Add(2 * time.Minute); ; {
		v, err := c.status(id)
		if err != nil {
			return v, err
		}
		switch v.Status {
		case "done", "failed", "canceled":
			return v, nil
		}
		if time.Now().After(deadline) {
			return v, fmt.Errorf("job %s still %s after 2m", id, v.Status)
		}
		time.Sleep(pollInterval)
	}
}

// followSSE reads the job's event stream up to its done frame.
func (c *client) followSSE(id string) error {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("events: %d %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if sc.Text() == "event: done" {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("job %s: stream closed without a done frame", id)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
