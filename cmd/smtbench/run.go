package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// options configure one workload run.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	// size and designSeed pick the gen.Large design of the flow and assign
	// workloads; size 0 means the workload's default.
	size       int
	designSeed int64
	// maxOps, when positive, ends the measured loop after that many ops
	// even if time remains.
	maxOps int
	// circuits are the benchmark circuits of the table1 workload.
	circuits []string
}

// A run sets its workload up several times and reports the median as
// setup_s; set-ups of a few milliseconds repeat more, for a steady median.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
)

// check is one named output check, aggregated over every evaluation.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Evals  int    `json:"evals"`
	Detail string `json:"detail,omitempty"` // the first failure
}

// metric is one reported measurement.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// record is the full account of one workload run; it is printed before the
// result line and is what -compare and the baseline read.
type record struct {
	Workload   string                        `json:"workload"`
	Seed       int64                         `json:"seed"`
	Seconds    float64                       `json:"seconds"`
	Traced     bool                          `json:"traced"`
	Size       int                           `json:"size,omitempty"`
	DesignSeed int64                         `json:"design_seed,omitempty"`
	Ops        int                           `json:"ops"`
	Attempted  int                           `json:"attempted"`
	Failed     int                           `json:"failed"`
	Correct    bool                          `json:"correct"`
	TailPct    int                           `json:"flow_tail_pct"`
	Checks     []check                       `json:"checks"`
	Failures   []string                      `json:"failures,omitempty"`
	QoR        map[string]map[string]float64 `json:"qor,omitempty"`
	Metrics    map[string]metric             `json:"metrics"`
	// OpSeconds are the untraced op latencies of each series in run order:
	// "flow" (the ops flow_s reads) and, on assign-50k, "w1".
	OpSeconds map[string][]float64 `json:"op_s"`
}

// result is the last line of a run: the fields every consumer of the
// benchmark reads.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner carries one workload run's measurements.
type runner struct {
	opt options
	tr  *tracer // nil when untraced
	// center is the statistic flow_s takes over the op latencies: the
	// median, unless the workload says otherwise (serve).
	center func([]float64) float64

	samples map[string][]float64 // per-metric samples, reported as medians
	fixed   map[string]metric    // metrics computed whole (see set)
	lat     map[string][]float64 // untraced op latencies per series
	latTr   map[string][]float64 // traced op latencies per series

	ops       int
	loopS     float64
	attempted int
	failed    int
	failures  []string
	checks    []check
	qor       map[string]map[string]float64
}

func newRunner(opt options) *runner {
	r := &runner{
		opt:     opt,
		center:  median,
		samples: map[string][]float64{},
		fixed:   map[string]metric{},
		lat:     map[string][]float64{},
		latTr:   map[string][]float64{},
	}
	if opt.traced {
		r.tr = newTracer()
	}
	return r
}

// sample adds one observation of a metric.
func (r *runner) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// layer runs fn as a timed call into one layer: a span when traced, and a
// sample of name+"_s" either way.
func (r *runner) layer(name string, parent, op int, fn func() error) error {
	start := time.Now()
	err := r.tr.do(name, parent, op, fn)
	r.sample(name+"_s", time.Since(start).Seconds())
	return err
}

// check records one evaluation of a named output check.
func (r *runner) check(name string, ok bool, detail string, args ...any) {
	for i := range r.checks {
		if r.checks[i].Name == name {
			c := &r.checks[i]
			c.Evals++
			if !ok && c.OK {
				c.OK, c.Detail = false, fmt.Sprintf(detail, args...)
			}
			return
		}
	}
	c := check{Name: name, OK: ok, Evals: 1}
	if !ok {
		c.Detail = fmt.Sprintf(detail, args...)
	}
	r.checks = append(r.checks, c)
}

// attempt counts one operation (a technique run or a job) and, when err is
// non-nil, its failure. The run goes on either way.
func (r *runner) attempt(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
		}
		fmt.Fprintf(os.Stderr, "smtbench: %s failed: %v\n", what, err)
	}
}

// setQoR records the exact quality numbers of one design under key.
func (r *runner) setQoR(key string, q map[string]float64) {
	if r.qor == nil {
		r.qor = map[string]map[string]float64{}
	}
	r.qor[key] = q
}

// setup runs fn at least minSetups times, and a cheap fn more often until
// setupBudget is spent, timing each as setup_s. fn rebuilds the workload's
// state from scratch each time; the last build is the one the run measures.
func (r *runner) setup(fn func(parent int) error) error {
	begin := time.Now()
	for i := 0; i < minSetups || (i < maxSetups && time.Since(begin) < setupBudget); i++ {
		runtime.GC() // free the previous set-up's state before building the next
		start := time.Now()
		id := r.tr.begin("setup", 0, 0)
		err := fn(id)
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.sample("setup_s", time.Since(start).Seconds())
	}
	return nil
}

// loop is the closed measurement loop: op i starts when op i-1 ends, until
// the run's seconds have passed and at least minOps ops ran (or maxOps is
// reached). In a traced run ops alternate between traced and untraced in
// runs of period, so both kinds see every op variant.
func (r *runner) loop(minOps, period int, op func(i int, traced bool)) {
	if r.opt.traced {
		minOps = max(minOps, 2*period)
	}
	start := time.Now()
	deadline := start.Add(time.Duration(r.opt.seconds * float64(time.Second)))
	for i := 1; ; i++ {
		if r.opt.maxOps > 0 && i > r.opt.maxOps {
			break
		}
		if i > minOps && time.Now().After(deadline) {
			break
		}
		op(i, r.opt.traced && ((i-1)/period)%2 == 0)
		r.ops++
	}
	r.loopS = time.Since(start).Seconds()
}

// timeOp runs one op inside an "op" span (when traced) and records its
// wall-clock under series; a warm-up op passes series "" and is not
// recorded.
func (r *runner) timeOp(series string, op int, traced bool, fn func(t *tracer, parent int)) {
	var t *tracer
	if traced {
		t = r.tr
	}
	runtime.GC() // start every op from a collected heap
	id := t.begin("op", 0, op)
	start := time.Now()
	fn(t, id)
	d := time.Since(start).Seconds()
	t.end(id)
	switch {
	case series == "":
	case traced:
		r.latTr[series] = append(r.latTr[series], d)
	default:
		r.lat[series] = append(r.lat[series], d)
	}
}

// record assembles the run's account.
func (r *runner) record(name string) *record {
	rec := &record{
		Workload:   name,
		Seed:       r.opt.seed,
		Seconds:    r.opt.seconds,
		Traced:     r.opt.traced,
		Size:       r.opt.size,
		DesignSeed: r.opt.designSeed,
		Ops:        r.ops,
		Attempted:  r.attempted,
		Failed:     r.failed,
		Checks:     r.checks,
		Failures:   r.failures,
		QoR:        r.qor,
		Metrics:    map[string]metric{},
		OpSeconds:  r.lat,
	}
	rec.Correct = r.attempted > 0
	for _, c := range r.checks {
		rec.Correct = rec.Correct && c.OK
	}

	flow, w1, traced := r.lat["flow"], r.lat["w1"], r.latTr["flow"]
	r.set("flow_s", r.center(flow), len(flow))
	v, pct := tail(flow)
	r.set("flow_tail_s", v, len(flow))
	rec.TailPct = pct
	if r.loopS > 0 {
		r.set("ops_per_s", float64(r.ops)/r.loopS, r.ops)
	}
	r.set("peak_rss_mb", peakRSSMB(), 1)
	if len(w1) > 0 {
		r.set("assign.w1_s", median(w1), len(w1))
		r.set("assign.w2_w1_ratio", median(flow)/median(w1), len(w1))
	}
	if len(traced) > 0 {
		r.set("trace.overhead_s", r.center(traced)-r.center(flow), len(traced))
	}
	r.stageMetrics()

	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			f, ok := r.fixed[m.name]
			if !ok {
				f = metric{Value: median(r.samples[m.name]), Samples: len(r.samples[m.name])}
			}
			if math.IsNaN(f.Value) || math.IsInf(f.Value, 0) {
				f = metric{}
			}
			f.Unit = m.unit
			rec.Metrics[m.name] = f
		}
	}
	return rec
}

// set reports a metric computed whole from n samples, in place of the
// median of its samples.
func (r *runner) set(name string, v float64, n int) { r.fixed[name] = metric{Value: v, Samples: n} }

// stageMetrics derives the stage self times and the stage coverage of every
// traced op from its spans.
func (r *runner) stageMetrics() {
	spans := r.tr.snapshot()
	if len(spans) == 0 {
		return
	}
	self := selfByOp(spans)
	opDur := map[int]float64{}
	stageDur := map[int]float64{}
	for _, s := range spans {
		switch {
		case s.Name == "op":
			opDur[s.Op] = s.dur()
		case strings.HasPrefix(s.Name, "stage."):
			stageDur[s.Op] += s.dur()
		}
	}
	for op, d := range opDur { // each op adds one sample per metric; order is irrelevant to a median
		for _, slug := range stageSlugs {
			r.sample("stage."+slug+"_s", self[op]["stage."+slug])
		}
		if d > 0 {
			r.sample("trace.stage_coverage", stageDur[op]/d)
		}
	}
}

// result projects a record onto the result line: end-to-end metrics for an
// untraced run, per-layer metrics for a traced one.
func (rec *record) result() result {
	res := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: map[string]valueUnit{}}
	set := endToEnd
	if rec.Traced {
		set = perLayer
	}
	for _, m := range set {
		v := rec.Metrics[m.name]
		res.Metrics[m.name] = valueUnit{Value: v.Value, Unit: v.Unit}
	}
	return res
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB, falling
// back to the Go runtime's reserved memory where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
