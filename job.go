package selectivemt

import (
	"context"
	"fmt"
	"strings"

	"selectivemt/internal/core"
	"selectivemt/internal/engine"
	"selectivemt/internal/netlist"
	"selectivemt/internal/place"
	"selectivemt/internal/tech"
	"selectivemt/internal/verilog"
)

// This file is the job-spec face of the workflow: one serializable
// description of a flow run (benchmark circuit or uploaded Verilog,
// technique subset, sign-off corners, inrush limit) plus the runner that
// executes it as a job graph on the engine pool. The smtd service
// submits exactly these; a full-set job produces the same Comparison —
// and byte-identical report text — as CompareWithConfig.

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
	// Partitions, when > 1, clusters the job's timing analyses into about
	// this many shards. Timing and greedy results are bit-identical; the
	// sensitivity strategy commits one lane per shard, so its result
	// follows the shard count (see Config.Partitions). 0 or 1 means one
	// shard.
	Partitions int `json:"partitions,omitempty"`
	// ShardJobs bounds the sharded kernel's fan-out width per design
	// (<= 0 means GOMAXPROCS). Only meaningful with Partitions > 1.
	ShardJobs int `json:"shard_jobs,omitempty"`
	// AssignJobs bounds the sensitivity lane engine's fan-out width
	// (<= 0 means GOMAXPROCS, capped at the shard count). Only
	// meaningful with Partitions > 1 and the sensitivity strategy; it
	// never changes results, only scheduling.
	AssignJobs int `json:"assign_jobs,omitempty"`
	// Strategy names the Vth-assignment strategy for every Dual-Vth/SMT
	// stage of the job: "greedy" (the paper's slack-ordered pass,
	// the default) or "sensitivity" (leakage-per-slack ordering off the
	// library LUT), plus any strategy a custom build registered. Empty
	// means greedy.
	Strategy string `json:"strategy,omitempty"`
}

// JobOptions configures RunJob's execution (not the work itself — that
// is the JobSpec, which is why only the spec travels over HTTP).
type JobOptions struct {
	// Context cancels jobs not yet started; nil means Background.
	Context context.Context
	// Workers bounds the job's internal concurrency (prepare, then the
	// techniques); <= 0 means GOMAXPROCS, 1 forces a sequential run.
	Workers int
	// Progress receives one event per job state change (Task is
	// "prepare" or the technique name; Index is always 0) and, for
	// technique jobs, one event per pipeline-stage state change with
	// BatchEvent.Stage naming the stage. It is called from one
	// goroutine at a time.
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
// the circuit-vs-verilog choice, clock and inrush constraints. RunJob
// applies exactly this check first, so a front end (the smtd submit
// handler) can reject a bad spec synchronously and be certain an
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
	if s.AssignJobs < 0 {
		return fmt.Errorf("selectivemt: negative assign-jobs %d", s.AssignJobs)
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

// RunJob executes one job spec as a job graph on the engine pool:
// prepare (synthesis or Verilog parse + placement), then the selected
// techniques, then report rendering. Cancellation via opts.Context
// skips stages not yet started; the error then wraps the context's
// cause.
func (e *Environment) RunJob(spec JobSpec, opts JobOptions) (*JobOutcome, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	techKeys, _ := ParseTechniques(spec.Techniques)
	corners, _ := parseCornerNames(spec.Corners)

	cfg := e.NewConfig()
	cfg.Corners = corners
	cfg.Partitions = spec.Partitions
	cfg.ShardJobs = spec.ShardJobs
	cfg.AssignJobs = spec.AssignJobs
	// Validate vouched for the name; store the canonical form so stage
	// reports and downstream lookups agree on spelling.
	cfg.Strategy, _ = ParseStrategy(spec.Strategy)

	var name string
	var prepare func() (*Design, error)
	switch {
	case spec.Circuit != "":
		// Validate vouched for the name.
		cs, _ := BenchmarkCircuit(spec.Circuit)
		name = cs.Module.Name
		cfg.ClockSlack = cs.ClockSlack
		if spec.ClockPeriodNs > 0 {
			cfg.ClockPeriodNs = spec.ClockPeriodNs
		}
		prepare = func() (*Design, error) { return core.PrepareBase(cs.Module, cfg) }
	default:
		if spec.ClockPort != "" {
			cfg.ClockPort = spec.ClockPort
		}
		cfg.ClockPeriodNs = spec.ClockPeriodNs
		src := spec.Verilog
		prepare = func() (*Design, error) {
			d, err := verilog.Parse(strings.NewReader(src), e.Lib)
			if err != nil {
				return nil, err
			}
			if _, err := place.Place(d, cfg.PlaceOpts); err != nil {
				return nil, err
			}
			return d, nil
		}
	}

	emit := serializedProgress(opts.Progress)
	circuit := name
	if circuit == "" {
		// Verilog upload: the module name is only known after the
		// prepare stage parses it.
		circuit = "verilog"
	}

	// One job graph: prepare, then each selected technique pipeline on
	// it. The engine job's ctx flows into the pipeline, so a
	// cancellation lands mid-technique instead of waiting for the next
	// job boundary.
	var base *netlist.Design
	jobs := []engine.Job{{
		Name: "prepare",
		Run: func(context.Context) (any, error) {
			d, err := prepare()
			if err != nil {
				return nil, err
			}
			base = d
			return d, nil
		},
	}}
	type techJob struct {
		key, display string
		index        int // index into the engine job slice
	}
	var selected []techJob
	for _, k := range techKeys {
		display := techniqueDisplay(k)
		selected = append(selected, techJob{key: k, display: display, index: len(jobs)})
		jobs = append(jobs, engine.Job{
			Name: display,
			Deps: []int{0},
			Run: func(ctx context.Context) (any, error) {
				return core.RunRegistered(ctx, display, base, cfg, stageObserver(emit, circuit, 0, display))
			},
		})
	}

	var progress func(engine.Event)
	if emit != nil {
		progress = func(ev engine.Event) {
			task := ev.Name
			if ev.Job == 0 {
				task = "prepare"
			}
			emit(BatchEvent{
				Circuit: circuit, Task: task,
				State: ev.State, Err: ev.Err, Elapsed: ev.Elapsed,
			})
		}
	}
	res, err := engine.Run(opts.Context, jobs, engine.Options{Workers: opts.Workers, Progress: progress})
	if err != nil {
		return nil, fmt.Errorf("selectivemt: job: %w", err)
	}

	// base.Name covers both paths: the benchmark module's name, or the
	// parsed Verilog module's.
	out := &JobOutcome{Circuit: base.Name}
	byKey := make(map[string]*TechniqueResult, len(selected))
	for _, tj := range selected {
		r := res[tj.index].Value.(*TechniqueResult)
		out.Results = append(out.Results, r)
		byKey[tj.key] = r
	}
	if byKey["dual"] != nil && byKey["conventional"] != nil && byKey["improved"] != nil {
		out.Comparison = &Comparison{
			Circuit:  out.Circuit,
			Dual:     byKey["dual"],
			Conv:     byKey["conventional"],
			Improved: byKey["improved"],
		}
	}
	if spec.InrushLimitMA > 0 {
		// The schedule targets the improved technique when it ran;
		// otherwise the first selected technique that built a clustered
		// switch structure (custom improved-flow variants qualify).
		gated := byKey["improved"]
		if gated == nil || len(gated.Clusters) == 0 {
			gated = nil
			for _, r := range out.Results {
				if len(r.Clusters) > 0 {
					gated = r
					break
				}
			}
		}
		if gated != nil && len(gated.Clusters) > 0 {
			sched, err := e.ScheduleWakeup(gated, spec.InrushLimitMA)
			if err != nil {
				return nil, err
			}
			out.Wakeup = sched
		}
	}
	if err := e.renderJobReport(out, cfg); err != nil {
		return nil, err
	}
	return out, nil
}

// renderJobReport fills JobOutcome.Report: the Table-1 comparison (plus
// corner sign-off tables) when the full technique set ran — exactly the
// text the table1 CLI and FormatTable1/FormatCornerReports produce — or
// the read-only ReportDesign of each technique's finished netlist for a
// subset job.
func (e *Environment) renderJobReport(out *JobOutcome, cfg *Config) error {
	var b strings.Builder
	if out.Comparison != nil {
		b.WriteString(FormatTable1([]*Comparison{out.Comparison}))
		if reps := FormatCornerReports([]*Comparison{out.Comparison}); reps != "" {
			b.WriteByte('\n')
			b.WriteString(reps)
		}
		// Custom pipelines that ran alongside the canonical three get
		// their own sections after the comparison, corner sign-off
		// included — same rendering as the subset branch below.
		for _, r := range out.Results {
			if r == out.Comparison.Dual || r == out.Comparison.Conv || r == out.Comparison.Improved {
				continue
			}
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
	} else {
		for _, r := range out.Results {
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
	}
	if out.Wakeup != nil {
		fmt.Fprintf(&b, "wake-up schedule: %d stages (peak %.2f mA, simultaneous %.2f mA), total %.3f ns\n",
			len(out.Wakeup.Groups), out.Wakeup.PeakInrushMA,
			out.Wakeup.SimultaneousInrushMA, out.Wakeup.TotalWakeupNs)
	}
	out.Report = b.String()
	return nil
}
