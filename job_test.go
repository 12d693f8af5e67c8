package selectivemt

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// A full-set job must reproduce CompareWithConfig byte for byte: same
// Comparison table, same report text as the facade formatters produce.
func TestRunJobMatchesCompare(t *testing.T) {
	env := testEnv(t)
	spec := SmallTest()

	out, err := env.RunJob(JobSpec{Circuit: "small"}, JobOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Comparison == nil {
		t.Fatal("full-set job produced no comparison")
	}
	if out.Circuit != spec.Module.Name {
		t.Errorf("job circuit = %q, want %q", out.Circuit, spec.Module.Name)
	}

	cfg := env.NewConfig()
	cfg.ClockSlack = spec.ClockSlack
	direct, err := env.CompareWithConfig(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := FormatTable1([]*Comparison{out.Comparison}), FormatTable1([]*Comparison{direct}); got != want {
		t.Errorf("job comparison diverged from CompareWithConfig:\n%s\nvs\n%s", got, want)
	}
	if want := FormatTable1([]*Comparison{direct}); out.Report != want {
		t.Errorf("job report = %q, want the FormatTable1 text %q", out.Report, want)
	}
}

// With corners, the report must append the sign-off tables exactly as
// FormatCornerReports renders them.
func TestRunJobWithCorners(t *testing.T) {
	env := testEnv(t)
	out, err := env.RunJob(JobSpec{Circuit: "small", Corners: []string{"all"}}, JobOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := FormatTable1([]*Comparison{out.Comparison}) + "\n" +
		FormatCornerReports([]*Comparison{out.Comparison})
	if out.Report != want {
		t.Errorf("corner job report diverged:\n%q\nwant\n%q", out.Report, want)
	}
	for _, r := range out.Results {
		if r.CornerReport == nil {
			t.Errorf("technique %s missing corner report", r.Technique)
		}
	}
}

// A subset job returns only the selected techniques, in canonical
// order, with no Comparison, and renders ReportDesign per technique.
func TestRunJobTechniqueSubset(t *testing.T) {
	env := testEnv(t)
	var events []string
	var mu sync.Mutex
	out, err := env.RunJob(
		JobSpec{Circuit: "small", Techniques: []string{"Improved-SMT", "dual"}},
		JobOptions{Workers: 1, Progress: func(ev BatchEvent) {
			// Job-level completions only; stage-level events (ev.Stage
			// set) are covered by TestRunJobStageProgress.
			if ev.State == JobDone && ev.Stage == "" {
				mu.Lock()
				events = append(events, ev.Task)
				mu.Unlock()
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Comparison != nil {
		t.Error("subset job must not fabricate a Comparison")
	}
	if len(out.Results) != 2 || out.Results[0].Technique != "Dual-Vth" || out.Results[1].Technique != "Improved-SMT" {
		t.Fatalf("subset results out of canonical order: %v", techniqueNames(out.Results))
	}
	if !strings.Contains(out.Report, "== Dual-Vth ==") || !strings.Contains(out.Report, "== Improved-SMT ==") {
		t.Errorf("subset report missing technique sections:\n%s", out.Report)
	}
	mu.Lock()
	joined := strings.Join(events, ",")
	mu.Unlock()
	if joined != "prepare,Dual-Vth,Improved-SMT" {
		t.Errorf("progress order = %s, want prepare,Dual-Vth,Improved-SMT", joined)
	}
}

// A Verilog-source job must run the uploaded netlist, not a benchmark.
func TestRunJobVerilog(t *testing.T) {
	env := testEnv(t)
	// Round-trip a benchmark through the Verilog writer to get a valid
	// structural source.
	cfg := env.NewConfig()
	spec := SmallTest()
	cfg.ClockSlack = spec.ClockSlack
	base, err := env.Synthesize(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteVerilog(&buf, base); err != nil {
		t.Fatal(err)
	}
	out, err := env.RunJob(JobSpec{
		Verilog:       buf.String(),
		ClockPeriodNs: cfg.ClockPeriodNs,
		Techniques:    []string{"dual"},
	}, JobOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Circuit != base.Name {
		t.Errorf("verilog job circuit = %q, want %q", out.Circuit, base.Name)
	}
	if len(out.Results) != 1 || out.Results[0].Technique != "Dual-Vth" {
		t.Fatalf("verilog job results: %v", techniqueNames(out.Results))
	}

	// Missing clock must be rejected up front.
	if _, err := env.RunJob(JobSpec{Verilog: buf.String()}, JobOptions{}); err == nil ||
		!strings.Contains(err.Error(), "clock_period_ns") {
		t.Errorf("verilog job without clock: err = %v, want clock_period_ns complaint", err)
	}
}

func TestRunJobSpecValidation(t *testing.T) {
	env := testEnv(t)
	for _, tc := range []struct {
		name string
		spec JobSpec
		want string
	}{
		{"empty", JobSpec{}, "circuit name or a Verilog netlist"},
		{"both", JobSpec{Circuit: "a", Verilog: "module m; endmodule"}, "both"},
		{"unknown circuit", JobSpec{Circuit: "z"}, "unknown circuit"},
		{"unknown technique", JobSpec{Circuit: "small", Techniques: []string{"magic"}}, "unknown technique"},
		{"unknown corner", JobSpec{Circuit: "small", Corners: []string{"warp"}}, "unknown corner"},
		{"negative inrush", JobSpec{Circuit: "small", InrushLimitMA: -1}, "inrush"},
	} {
		if _, err := env.RunJob(tc.spec, JobOptions{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// Cancellation before the run starts must skip every stage and surface
// the context cause.
func TestRunJobCancellation(t *testing.T) {
	env := testEnv(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := env.RunJob(JobSpec{Circuit: "small"}, JobOptions{Context: ctx})
	if err == nil {
		t.Fatal("canceled job should error")
	}
	if !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), "canceled") {
		t.Errorf("canceled job error should carry the cause: %v", err)
	}
}

// ParseTechniques is the one technique resolver: job specs and the
// smtflow -technique flag both go through it, and RunPipeline maps each
// key it returns to the key's pipeline.
func TestParseTechniques(t *testing.T) {
	custom := uniquePipelineName("Resolver-Custom")
	noop := NewStage("noop", func(context.Context, *FlowState) (*StageReport, error) { return nil, nil })
	if err := RegisterPipeline(custom, noop); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		in   []string
		want string
		err  bool
	}{
		{nil, "dual,conventional,improved", false},
		{[]string{"all"}, "dual,conventional,improved", false},
		{[]string{"ALL"}, "dual,conventional,improved", false},
		{[]string{"improved", "DUAL"}, "dual,improved", false},
		{[]string{"Dual"}, "dual", false},
		{[]string{"dual-vth"}, "dual", false},
		{[]string{"Improved-SMT"}, "improved", false},
		{[]string{"Conventional-SMT"}, "conventional", false},
		{[]string{strings.ToUpper(custom)}, strings.ToLower(custom), false},
		{[]string{"nope"}, "", true},
	} {
		got, err := ParseTechniques(tc.in)
		if tc.err != (err != nil) {
			t.Errorf("ParseTechniques(%v) err = %v, want err=%v", tc.in, err, tc.err)
			continue
		}
		if !tc.err {
			if joined := strings.Join(got, ","); joined != tc.want {
				t.Errorf("ParseTechniques(%v) = %s, want %s", tc.in, joined, tc.want)
			}
		}
	}
	for key, want := range map[string]string{"dual": "Dual-Vth", "improved": "Improved-SMT", strings.ToLower(custom): custom} {
		if got := techniqueDisplay(key); got != want {
			t.Errorf("key %s runs pipeline %q, want %q", key, got, want)
		}
	}
	// An unknown name's error lists what would have been accepted.
	_, err := ParseTechniques([]string{"Duel"})
	for _, want := range []string{`"Duel"`, "dual", "conventional", "improved", "all", "Improved-SMT"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-technique error %v does not mention %s", err, want)
		}
	}
}

// TestRunJobStageProgress pins the live per-stage progress contract:
// a technique job emits one running and one done event per pipeline
// stage (Stage set, Task the technique), done events carry wall-clock,
// and the finished result's stage reports carry ElapsedMS.
func TestRunJobStageProgress(t *testing.T) {
	env := testEnv(t)
	var mu sync.Mutex
	var stages []BatchEvent
	out, err := env.RunJob(JobSpec{Circuit: "small", Techniques: []string{"dual"}},
		JobOptions{Workers: 1, Progress: func(ev BatchEvent) {
			if ev.Stage != "" {
				mu.Lock()
				stages = append(stages, ev)
				mu.Unlock()
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	var seq []string
	var doneElapsed time.Duration
	for _, ev := range stages {
		if ev.Task != "Dual-Vth" {
			t.Errorf("stage event on task %q", ev.Task)
		}
		seq = append(seq, ev.Stage+"/"+ev.State.String())
		if ev.State == JobDone {
			doneElapsed += ev.Elapsed
		}
	}
	want := "dual-vth assignment/running,dual-vth assignment/done," +
		"CTS/running,CTS/done,hold ECO/running,hold ECO/done," +
		"measure/running,measure/done,sign-off/running,sign-off/done"
	if got := strings.Join(seq, ","); got != want {
		t.Errorf("stage sequence:\n%s\nwant\n%s", got, want)
	}
	if doneElapsed <= 0 {
		t.Error("stage done events carried no wall-clock")
	}
	// The result's stage reports carry per-stage timing too.
	if len(out.Results) != 1 {
		t.Fatalf("results: %d", len(out.Results))
	}
	total := 0.0
	for _, s := range out.Results[0].Stages {
		if s.ElapsedMS < 0 {
			t.Errorf("stage %q negative elapsed", s.Name)
		}
		total += s.ElapsedMS
	}
	if total <= 0 {
		t.Error("no stage report recorded wall-clock")
	}
}

func techniqueNames(rs []*TechniqueResult) []string {
	var out []string
	for _, r := range rs {
		out = append(out, r.Technique)
	}
	return out
}
