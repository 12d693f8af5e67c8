package selectivemt

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"selectivemt/internal/core"
	"selectivemt/internal/engine"
	"selectivemt/internal/place"
	"selectivemt/internal/tech"
	"selectivemt/internal/verilog"
)

// This file is the job-spec face of the workflow: one serializable
// description of a flow run (benchmark circuit or uploaded Verilog,
// technique subset, sign-off corners, inrush limit) plus the runner that
// executes a batch of them on the task runner (parallel.go). The smtd
// service submits exactly these and table1 runs one per circuit; a
// full-set job produces the same Comparison — and byte-identical report
// text — as CompareWithConfig.

// JobSpec describes one flow job. Exactly one of Circuit and Verilog
// must be set. The zero values of the remaining fields mean "default":
// all three techniques, no corner sign-off, no wake-up scheduling.
type JobSpec struct {
	// Circuit names a built-in benchmark: "a", "b", "small" or "large".
	Circuit string `json:"circuit,omitempty"`
	// Verilog is a structural netlist source (the upload path). It is
	// placed and run with the clock constraints below.
	Verilog string `json:"verilog,omitempty"`
	// ClockPort is the Verilog netlist's clock input (default "clk").
	// Benchmarks ignore it: their clock port is part of the circuit.
	ClockPort string `json:"clock_port,omitempty"`
	// ClockPeriodNs pins the clock. Required for Verilog input; for a
	// benchmark it overrides the derived (min-period × slack) clock
	// when positive.
	ClockPeriodNs float64 `json:"clock_period_ns,omitempty"`
	// Techniques selects a subset of "dual", "conventional",
	// "improved" (full names like "dual-vth" work too, as does "all")
	// and may also name any registered custom pipeline (see
	// RegisterPipeline). Empty means the three built-ins, which is what
	// yields a Comparison.
	Techniques []string `json:"techniques,omitempty"`
	// Corners turns on multi-corner sign-off: "all" or corner names
	// (typ, slow, fast-hot, fast-cold).
	Corners []string `json:"corners,omitempty"`
	// InrushLimitMA, when positive, staggers the cluster wake-up under
	// this inrush limit — for the improved technique when selected,
	// otherwise the first selected technique that built clusters.
	InrushLimitMA float64 `json:"inrush_limit_ma,omitempty"`
	// Partitions, when > 1, clusters the job's designs into about this
	// many sensitivity lanes. Timing and greedy results never depend on
	// it; the sensitivity strategy commits one lane per cluster, so its
	// result follows the count (see Config.Partitions). 0 or 1 means one
	// lane.
	Partitions int `json:"partitions,omitempty"`
	// ShardJobs bounds the per-design fan-out width of the sensitivity
	// strategy's commit lanes (<= 0 means GOMAXPROCS, capped at the lane
	// count). Only meaningful with Partitions > 1; it never changes
	// results, only scheduling.
	ShardJobs int `json:"shard_jobs,omitempty"`
	// Strategy names the Vth-assignment strategy for every Dual-Vth/SMT
	// stage of the job: "greedy" (the paper's slack-ordered pass,
	// the default) or "sensitivity" (leakage-per-slack ordering off the
	// library LUT), plus any strategy a custom build registered. Empty
	// means greedy.
	Strategy string `json:"strategy,omitempty"`
}

// JobOptions configures the execution of RunBatch and RunJob (not the
// work itself — that is the JobSpec, which is why only the spec travels
// over HTTP).
type JobOptions struct {
	// Context cancels tasks not yet started, and reaches running
	// technique pipelines between (and inside ctx-aware) stages; nil
	// means Background.
	Context context.Context
	// Workers bounds each fan-out (the prepares, then the techniques);
	// <= 0 means GOMAXPROCS, 1 forces a sequential run.
	Workers int
	// Progress receives one event per task state change (Task is
	// "prepare" or the technique name; Index is the spec's position)
	// and, for technique tasks, one event per pipeline-stage state
	// change with BatchEvent.Stage naming the stage. It is called from
	// one goroutine at a time.
	Progress func(BatchEvent)
}

// JobOutcome is a finished job: the per-technique results in canonical
// order, the paper's comparison when the full set ran, and the rendered
// report text.
type JobOutcome struct {
	Circuit string
	// Results holds one entry per requested technique, in canonical
	// order (Dual-Vth, Conventional-SMT, Improved-SMT).
	Results []*TechniqueResult
	// Comparison is non-nil exactly when all three techniques ran; its
	// Format/FormatTable1 output is byte-identical to a
	// CompareWithConfig run of the same spec.
	Comparison *Comparison
	// Wakeup is the staggered wake-up schedule (InrushLimitMA > 0 and
	// the improved technique produced clusters).
	Wakeup *WakeupSchedule
	// Report is the job's rendered text: FormatTable1 (+ corner
	// sign-off tables) for a full-set job, ReportDesign per technique
	// otherwise.
	Report string
}

// WakeupSchedule re-exports the staggered cluster wake-up schedule.
type WakeupSchedule = core.WakeupSchedule

// ScheduleWakeup packs a result's clusters into the fewest wake-up
// stages whose per-stage inrush stays at or below maxInrushMA.
func (e *Environment) ScheduleWakeup(r *TechniqueResult, maxInrushMA float64) (*WakeupSchedule, error) {
	return core.ScheduleWakeup(r.Clusters, e.Proc, maxInrushMA)
}

// EffectiveJobs reports the worker count a user-facing -jobs value
// resolves to: anything <= 0 means GOMAXPROCS. CLIs reject negative
// values up front and use this to report the effective bound.
func EffectiveJobs(n int) int { return engine.NormalizeWorkers(n) }

// BenchmarkCircuit resolves a benchmark name ("a", "b", "small", "large",
// "huge") to its spec — the one resolver every CLI and the smtd service
// share.
func BenchmarkCircuit(name string) (CircuitSpec, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "a":
		return CircuitA(), nil
	case "b":
		return CircuitB(), nil
	case "small":
		return SmallTest(), nil
	case "large":
		return CircuitLarge(), nil
	case "huge":
		return CircuitHuge(), nil
	}
	return CircuitSpec{}, fmt.Errorf("selectivemt: unknown circuit %q (want a, b, small, large or huge)", name)
}

// jobTechniques is the canonical technique table: JSON/CLI keys and
// the registered pipeline names (matching TechniqueResult.Technique),
// in Table-1 column order. The runners themselves live in the pipeline
// registry.
var jobTechniques = []struct {
	key     string
	display string
}{
	{"dual", "Dual-Vth"},
	{"conventional", "Conventional-SMT"},
	{"improved", "Improved-SMT"},
}

// ParseTechniques canonicalizes a technique list: short keys ("dual"),
// full names ("dual-vth", "improved-smt") and "all" are accepted in
// any order and case, as is the name of any registered custom pipeline.
// The result is the canonical subset in Table-1 order followed by the
// custom pipelines in first-seen order. Empty input selects the three
// built-ins.
func ParseTechniques(names []string) ([]string, error) {
	selected := make(map[string]bool, len(jobTechniques))
	var custom []string
	for _, raw := range names {
		name := strings.ToLower(strings.TrimSpace(raw))
		switch name {
		case "":
			continue
		case "all":
			for _, t := range jobTechniques {
				selected[t.key] = true
			}
			continue
		}
		found := false
		for _, t := range jobTechniques {
			if name == t.key || name == strings.ToLower(t.display) {
				selected[t.key] = true
				found = true
				break
			}
		}
		if found {
			continue
		}
		if p, ok := core.LookupPipeline(name); ok {
			key := strings.ToLower(p.Name())
			if !selected[key] {
				selected[key] = true
				custom = append(custom, key)
			}
			continue
		}
		return nil, fmt.Errorf("selectivemt: unknown technique %q (want dual, conventional, improved, all, or a registered pipeline: %s)",
			raw, strings.Join(Pipelines(), ", "))
	}
	var out []string
	for _, t := range jobTechniques {
		if len(selected) == 0 || selected[t.key] {
			out = append(out, t.key)
		}
	}
	return append(out, custom...), nil
}

// techniqueDisplay resolves a ParseTechniques key to the technique's
// registered pipeline name.
func techniqueDisplay(key string) string {
	for _, t := range jobTechniques {
		if key == t.key {
			return t.display
		}
	}
	if p, ok := core.LookupPipeline(key); ok {
		return p.Name()
	}
	return key
}

// parseCornerNames maps a JobSpec.Corners list to tech corners ("all"
// anywhere in the list selects all four).
func parseCornerNames(names []string) ([]Corner, error) {
	var out []Corner
	seen := make(map[Corner]bool)
	for _, raw := range names {
		name := strings.ToLower(strings.TrimSpace(raw))
		if name == "" {
			continue
		}
		if name == "all" {
			return AllCorners(), nil
		}
		c, err := tech.ParseCorner(name)
		if err != nil {
			return nil, err
		}
		if seen[c] {
			return nil, fmt.Errorf("selectivemt: corner %s listed twice", c)
		}
		seen[c] = true
		out = append(out, c)
	}
	return out, nil
}

// Validate checks a spec without running it: technique/corner names,
// the circuit-vs-verilog choice, clock and inrush constraints. RunBatch
// and RunJob apply exactly this check first, so a front end (the smtd
// submit handler) can reject a bad spec synchronously and be certain an
// accepted one will not fail validation later.
func (s JobSpec) Validate() error {
	if _, err := ParseTechniques(s.Techniques); err != nil {
		return err
	}
	if _, err := parseCornerNames(s.Corners); err != nil {
		return err
	}
	if _, err := ParseStrategy(s.Strategy); err != nil {
		return err
	}
	if s.InrushLimitMA < 0 {
		return fmt.Errorf("selectivemt: negative inrush limit %g mA", s.InrushLimitMA)
	}
	if s.Partitions < 0 {
		return fmt.Errorf("selectivemt: negative partition count %d", s.Partitions)
	}
	if s.ShardJobs < 0 {
		return fmt.Errorf("selectivemt: negative shard-jobs %d", s.ShardJobs)
	}
	switch {
	case s.Circuit != "" && s.Verilog != "":
		return fmt.Errorf("selectivemt: job lists both a benchmark circuit and a Verilog netlist")
	case s.Circuit != "":
		if _, err := BenchmarkCircuit(s.Circuit); err != nil {
			return err
		}
	case s.Verilog != "":
		if s.ClockPeriodNs <= 0 {
			return fmt.Errorf("selectivemt: Verilog job needs a positive clock_period_ns")
		}
	default:
		return fmt.Errorf("selectivemt: job needs a circuit name or a Verilog netlist")
	}
	return nil
}

// jobRun is one validated JobSpec on its way through a run: the config
// it runs with, its prepare step, and what its tasks produce.
type jobRun struct {
	index   int
	circuit string
	cfg     *Config
	keys    []string // ParseTechniques keys, canonical order
	inrush  float64
	prepare func() (*Design, error)
	base    *Design            // set by the prepare task
	results []*TechniqueResult // one per key, set by the technique tasks
}

// newJobRun validates a spec and builds the config it runs with.
func (e *Environment) newJobRun(index int, spec JobSpec) (*jobRun, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r := &jobRun{index: index, cfg: e.NewConfig(), inrush: spec.InrushLimitMA}
	// Validate vouched for every name below.
	r.keys, _ = ParseTechniques(spec.Techniques)
	cfg := r.cfg
	cfg.Corners, _ = parseCornerNames(spec.Corners)
	cfg.Partitions = spec.Partitions
	cfg.ShardJobs = spec.ShardJobs
	// Store the canonical strategy name so stage reports and downstream
	// lookups agree on spelling.
	cfg.Strategy, _ = ParseStrategy(spec.Strategy)
	if spec.Circuit != "" {
		cs, _ := BenchmarkCircuit(spec.Circuit)
		r.circuit = cs.Module.Name
		cfg.ClockSlack = cs.ClockSlack
		if spec.ClockPeriodNs > 0 {
			cfg.ClockPeriodNs = spec.ClockPeriodNs
		}
		r.prepare = func() (*Design, error) { return core.PrepareBase(cs.Module, cfg) }
		return r, nil
	}
	// Verilog upload: the module name is only known once the prepare
	// task has parsed it.
	r.circuit = "verilog"
	if spec.ClockPort != "" {
		cfg.ClockPort = spec.ClockPort
	}
	cfg.ClockPeriodNs = spec.ClockPeriodNs
	src := spec.Verilog
	r.prepare = func() (*Design, error) {
		d, err := verilog.Parse(strings.NewReader(src), e.Lib)
		if err != nil {
			return nil, err
		}
		if _, err := place.Place(d, cfg.PlaceOpts); err != nil {
			return nil, err
		}
		return d, nil
	}
	return r, nil
}

// techniqueTasks returns one task per selected technique on the prepared
// base. The task's ctx flows into the pipeline, so a cancellation lands
// mid-technique instead of waiting for the next task.
func (r *jobRun) techniqueTasks(emit func(BatchEvent)) []task {
	r.results = make([]*TechniqueResult, len(r.keys))
	tasks := make([]task, len(r.keys))
	for k, key := range r.keys {
		name := techniqueDisplay(key)
		tasks[k] = task{circuit: r.circuit, index: r.index, name: name, run: func(ctx context.Context) (err error) {
			r.results[k], err = core.RunRegistered(ctx, name, r.base, r.cfg, stageObserver(emit, r.circuit, r.index, name))
			return err
		}}
	}
	return tasks
}

// result returns the technique result for a ParseTechniques key, nil
// when the technique was not selected or did not finish.
func (r *jobRun) result(key string) *TechniqueResult {
	for k := range r.keys {
		if r.keys[k] == key {
			return r.results[k]
		}
	}
	return nil
}

// comparison is the paper's comparison when all three built-in
// techniques finished, nil otherwise.
func (r *jobRun) comparison() *Comparison {
	dual, conv, imp := r.result("dual"), r.result("conventional"), r.result("improved")
	if dual == nil || conv == nil || imp == nil {
		return nil
	}
	return &Comparison{Circuit: r.base.Name, Dual: dual, Conv: conv, Improved: imp}
}

// RunBatch runs every spec: it validates them all, prepares them all
// (synthesis, or Verilog parse and placement) on one engine.Map fan-out,
// then runs every selected technique of every prepared spec on a second
// one, and finally assembles each spec's outcome. opts.Workers bounds
// both fan-outs. A spec that fails validation fails the whole batch
// before anything runs.
//
// The result has one entry per spec, in spec order. An entry is nil when
// its prepare or one of its techniques failed or was skipped; the error
// joins every task's error, so a partial batch returns the surviving
// outcomes alongside it. A failed prepare skips its spec's techniques;
// cancelling opts.Context skips every task not yet started, and the
// error then wraps the context's cause. Specs are keyed by position: a
// batch may list the same module name twice, even with different
// netlists, and BatchEvent.Index tells their events apart.
func (e *Environment) RunBatch(specs []JobSpec, opts JobOptions) ([]*JobOutcome, error) {
	runs := make([]*jobRun, len(specs))
	for i, spec := range specs {
		r, err := e.newJobRun(i, spec)
		if err != nil {
			return nil, err
		}
		runs[i] = r
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	emit := serializedProgress(opts.Progress)

	prepares := make([]task, len(runs))
	for i, r := range runs {
		prepares[i] = task{circuit: r.circuit, index: i, name: "prepare", run: func(context.Context) (err error) {
			r.base, err = r.prepare()
			return err
		}}
	}
	errs := runTasks(ctx, opts.Workers, prepares, emit)
	var techniques []task
	for i, r := range runs {
		tasks := r.techniqueTasks(emit)
		if errs[i] != nil {
			// The prepare's error already explains these skips.
			for k := range tasks {
				_ = tasks[k].skip(emit, errors.New("prepare did not finish"))
			}
			continue
		}
		techniques = append(techniques, tasks...)
	}
	errs = append(errs, runTasks(ctx, opts.Workers, techniques, emit)...)

	outs := make([]*JobOutcome, len(runs))
	for i, r := range runs {
		if r.base == nil || slices.Contains(r.results, nil) {
			continue
		}
		out, err := e.jobOutcome(r)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", r.circuit, err))
			continue
		}
		outs[i] = out
	}
	if err := errors.Join(errs...); err != nil {
		return outs, fmt.Errorf("selectivemt: %w", err)
	}
	return outs, nil
}

// RunJob runs one job spec: RunBatch of a single spec, so its prepare
// runs first and its techniques then fan out on opts.Workers.
func (e *Environment) RunJob(spec JobSpec, opts JobOptions) (*JobOutcome, error) {
	outs, err := e.RunBatch([]JobSpec{spec}, opts)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// jobOutcome assembles a finished run: the comparison when the full set
// ran, the wake-up schedule, and the report.
func (e *Environment) jobOutcome(r *jobRun) (*JobOutcome, error) {
	// base.Name covers both paths: the benchmark module's name, or the
	// parsed Verilog module's.
	out := &JobOutcome{Circuit: r.base.Name, Results: r.results, Comparison: r.comparison()}
	if r.inrush > 0 {
		// The schedule targets the improved technique when it ran;
		// otherwise the first selected technique that built a clustered
		// switch structure (custom improved-flow variants qualify).
		gated := r.result("improved")
		if gated == nil || len(gated.Clusters) == 0 {
			gated = nil
			for _, res := range out.Results {
				if len(res.Clusters) > 0 {
					gated = res
					break
				}
			}
		}
		if gated != nil {
			sched, err := e.ScheduleWakeup(gated, r.inrush)
			if err != nil {
				return nil, err
			}
			out.Wakeup = sched
		}
	}
	if err := e.renderJobReport(out, r.cfg); err != nil {
		return nil, err
	}
	return out, nil
}

// renderJobReport fills JobOutcome.Report: the Table-1 comparison (plus
// corner sign-off tables) when the full technique set ran — exactly the
// text the table1 CLI and FormatTable1/FormatCornerReports produce —
// then the read-only ReportDesign of every other technique's finished
// netlist: each technique of a subset job, or the custom pipelines that
// ran alongside the canonical three.
func (e *Environment) renderJobReport(out *JobOutcome, cfg *Config) error {
	var b strings.Builder
	cmp := out.Comparison
	if cmp != nil {
		b.WriteString(FormatTable1([]*Comparison{cmp}))
		if reps := FormatCornerReports([]*Comparison{cmp}); reps != "" {
			b.WriteByte('\n')
			b.WriteString(reps)
		}
	}
	for _, r := range out.Results {
		if cmp != nil && (r == cmp.Dual || r == cmp.Conv || r == cmp.Improved) {
			continue
		}
		// The sign-off already ran inside the technique flow; the
		// read-only report must not repeat it.
		rcfg := *cfg
		rcfg.Corners = nil
		text, err := e.ReportDesign(r.Design, &rcfg, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "== %s ==\n%s", r.Technique, text)
		if r.CornerReport != nil {
			b.WriteString(r.CornerReport.Format())
			b.WriteByte('\n')
		}
	}
	if out.Wakeup != nil {
		fmt.Fprintf(&b, "wake-up schedule: %d stages (peak %.2f mA, simultaneous %.2f mA), total %.3f ns\n",
			len(out.Wakeup.Groups), out.Wakeup.PeakInrushMA,
			out.Wakeup.SimultaneousInrushMA, out.Wakeup.TotalWakeupNs)
	}
	out.Report = b.String()
	return nil
}
