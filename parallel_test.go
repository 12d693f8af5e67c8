package selectivemt

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"selectivemt/internal/gen"
)

// TestCompareParallelMatchesSequential is the determinism-under-
// concurrency contract: with the same Config/Seed, the sequential
// CompareWithConfig and CompareBase at GOMAXPROCS workers must produce
// byte-identical FormatTable1 output, across repeated runs.
func TestCompareParallelMatchesSequential(t *testing.T) {
	env := testEnv(t)
	spec := SmallTest()

	var outputs []string
	for run := 0; run < 2; run++ {
		cfg := env.NewConfig()
		cfg.ClockSlack = spec.ClockSlack
		seq, err := env.CompareWithConfig(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg = env.NewConfig()
		cfg.ClockSlack = spec.ClockSlack
		base, err := env.Synthesize(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		par, err := env.CompareBase(base, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, FormatTable1([]*Comparison{seq}), FormatTable1([]*Comparison{par}))
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i, outputs[i], outputs[0])
		}
	}
}

// TestCompareParallelUncachedDeterminism repeats the contract with
// caching disabled, so cache rehydration cannot mask an ordering bug in
// the flow itself.
func TestCompareParallelUncachedDeterminism(t *testing.T) {
	env := testEnv(t)
	spec := SmallTest()
	var outputs []string
	for run := 0; run < 2; run++ {
		cfg := env.NewConfig()
		cfg.ClockSlack = spec.ClockSlack
		cfg.Cache = nil
		base, err := env.Synthesize(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := env.CompareBase(base, cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, FormatTable1([]*Comparison{cmp}))
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("uncached parallel runs diverged:\n%s\nvs\n%s", outputs[0], outputs[1])
	}
}

// recorder collects a run's progress events.
type recorder struct {
	mu     sync.Mutex
	events []BatchEvent
}

func (r *recorder) progress(ev BatchEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
}

// tasks returns the task-level events as "index/task/state" strings,
// in arrival order.
func (r *recorder) tasks() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, ev := range r.events {
		if ev.Stage == "" {
			out = append(out, fmt.Sprintf("%d/%s/%s", ev.Index, ev.Task, ev.State))
		}
	}
	return out
}

func (r *recorder) count(want string) int {
	n := 0
	for _, got := range r.tasks() {
		if got == want {
			n++
		}
	}
	return n
}

func TestRunBatch(t *testing.T) {
	env := testEnv(t)
	var rec recorder
	outs, err := env.RunBatch([]JobSpec{{Circuit: "small"}, {Circuit: "small"}},
		JobOptions{Workers: 4, Progress: rec.progress})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 || outs[0] == nil || outs[1] == nil || outs[0].Comparison == nil || outs[1].Comparison == nil {
		t.Fatalf("batch lost comparisons: %v", outs)
	}
	// Identical specs must produce identical reports — and exercise the
	// shared cache (the second circuit replays the first's analyses).
	if outs[0].Report != outs[1].Report {
		t.Fatalf("identical specs diverged:\n%s\nvs\n%s", outs[0].Report, outs[1].Report)
	}
	hits, _, _ := env.CacheStats()
	if hits == 0 {
		t.Error("duplicate circuits produced no cache hits")
	}
	for i := 0; i < 2; i++ {
		for _, task := range []string{"prepare", "Dual-Vth", "Conventional-SMT", "Improved-SMT"} {
			for _, state := range []string{"running", "done"} {
				key := fmt.Sprintf("%d/%s/%s", i, task, state)
				if rec.count(key) != 1 {
					t.Errorf("%s: %d events, want 1 (events: %v)", key, rec.count(key), rec.tasks())
				}
			}
		}
	}
	// Each technique's pipeline reports its stages live alongside the
	// task-level events.
	if len(rec.tasks()) == len(rec.events) {
		t.Error("batch produced no pipeline-stage progress events")
	}
}

// verilogOf synthesizes a circuit and returns its structural Verilog
// and the clock period the flow derived for it.
func verilogOf(t *testing.T, env *Environment, spec CircuitSpec) (string, float64) {
	t.Helper()
	cfg := env.NewConfig()
	cfg.ClockSlack = spec.ClockSlack
	d, err := env.Synthesize(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteVerilog(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.String(), cfg.ClockPeriodNs
}

// TestRunBatchDuplicateNamesDistinctNetlists is the misattribution
// regression: one batch uploading two different netlists under the same
// module name must keep outcomes positional (each index gets the result
// computed from its own netlist, not its namesake's) and must tell their
// progress events apart by index.
func TestRunBatchDuplicateNamesDistinctNetlists(t *testing.T) {
	env := testEnv(t)

	small := SmallTest()
	// A different circuit hiding under the same module name: a 4-bit
	// registered adder instead of small_test's 4×4 multiplier.
	m := gen.NewModule(small.Module.Name)
	a := m.InputBus("a", 4)
	b := m.InputBus("b", 4)
	sum, _ := m.RippleAdder(m.DFFBus(a), m.DFFBus(b))
	m.OutputBus("s", m.DFFBus(sum))
	impostor := CircuitSpec{Module: m, ClockSlack: 1.1}

	var specs []JobSpec
	for _, cs := range []CircuitSpec{small, impostor} {
		src, period := verilogOf(t, env, cs)
		specs = append(specs, JobSpec{Verilog: src, ClockPeriodNs: period})
	}
	var rec recorder
	outs, err := env.RunBatch(specs, JobOptions{Workers: 2, Progress: rec.progress})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Circuit != small.Module.Name || outs[1].Circuit != small.Module.Name {
		t.Fatalf("outcome circuits = %q, %q, want %q twice", outs[0].Circuit, outs[1].Circuit, small.Module.Name)
	}
	// Both outcomes carry the shared name, but each must come from its
	// own netlist — the impostor has no multiplier, so its area cannot
	// match small_test's.
	if outs[0].Results[0].AreaUm2 == outs[1].Results[0].AreaUm2 {
		t.Errorf("distinct netlists under one name collapsed to one area (%.1f µm²)", outs[0].Results[0].AreaUm2)
	}
	// Cross-check against solo runs: position i must hold exactly spec
	// i's result.
	for i, spec := range specs {
		solo, err := env.RunJob(spec, JobOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if outs[i].Report != solo.Report {
			t.Errorf("index %d misattributed:\n%s\nwant its own netlist's result:\n%s", i, outs[i].Report, solo.Report)
		}
	}
	// Progress must attribute 4 done tasks (prepare + 3 techniques) to
	// each index, not 8 to one ambiguous name.
	for i := 0; i < 2; i++ {
		done := 0
		for _, task := range []string{"prepare", "Dual-Vth", "Conventional-SMT", "Improved-SMT"} {
			done += rec.count(fmt.Sprintf("%d/%s/done", i, task))
		}
		if done != 4 {
			t.Errorf("index %d: %d done events, want 4 (%v)", i, done, rec.tasks())
		}
	}
}

// An unparsable upload fails its own prepare and skips its techniques;
// the sibling spec's outcome survives.
func TestRunBatchPartialFailure(t *testing.T) {
	env := testEnv(t)
	var rec recorder
	outs, err := env.RunBatch([]JobSpec{
		{Verilog: "module broken (a; endmodule", ClockPeriodNs: 1},
		{Circuit: "small"},
	}, JobOptions{Workers: 2, Progress: rec.progress})
	if err == nil {
		t.Fatal("broken spec should surface an error")
	}
	if !strings.Contains(err.Error(), "verilog/prepare") {
		t.Errorf("error should name the failing task: %v", err)
	}
	if outs[0] != nil {
		t.Error("failed spec should have a nil outcome")
	}
	if outs[1] == nil || outs[1].Comparison == nil {
		t.Fatal("healthy spec should survive a sibling's failure")
	}
	if rec.count("0/prepare/failed") != 1 {
		t.Errorf("no failed prepare event: %v", rec.tasks())
	}
	for _, task := range []string{"Dual-Vth", "Conventional-SMT", "Improved-SMT"} {
		if rec.count("0/"+task+"/skipped") != 1 || rec.count("0/"+task+"/running") != 0 {
			t.Errorf("%s of the failed spec should only emit skipped: %v", task, rec.tasks())
		}
		if rec.count("1/"+task+"/done") != 1 {
			t.Errorf("%s of the healthy spec should emit done: %v", task, rec.tasks())
		}
	}
}

// A batch canceled before it starts runs nothing: every task emits
// Skipped and the error carries the cause.
func TestRunBatchCancellation(t *testing.T) {
	env := testEnv(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var rec recorder
	outs, err := env.RunBatch([]JobSpec{{Circuit: "small"}, {Circuit: "small", Techniques: []string{"dual"}}},
		JobOptions{Workers: 2, Context: ctx, Progress: rec.progress})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch error = %v, want context.Canceled", err)
	}
	if outs[0] != nil || outs[1] != nil {
		t.Error("canceled batch should not produce outcomes")
	}
	got := rec.tasks()
	if len(got) != 6 {
		t.Fatalf("%d task events, want 6 (4 + 2 tasks): %v", len(got), got)
	}
	for _, ev := range got {
		if !strings.HasSuffix(ev, "/skipped") {
			t.Errorf("task event %s, want every task skipped", ev)
		}
	}
}

// A panicking technique fails its own task only: the job's error names
// it, it emits Failed, and its siblings still finish and emit Done.
func TestRunJobTechniquePanic(t *testing.T) {
	env := testEnv(t)
	name := uniquePipelineName("Panicking")
	boom := NewStage("boom", func(context.Context, *FlowState) (*StageReport, error) {
		panic("stage exploded")
	})
	if err := RegisterPipeline(name, boom); err != nil {
		t.Fatal(err)
	}
	var rec recorder
	_, err := env.RunJob(JobSpec{Circuit: "small", Techniques: []string{"all", name}},
		JobOptions{Workers: 2, Progress: rec.progress})
	if err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "stage exploded") {
		t.Fatalf("job error = %v, want one naming %s and its panic", err, name)
	}
	if rec.count("0/"+name+"/failed") != 1 {
		t.Errorf("no failed event for %s: %v", name, rec.tasks())
	}
	for _, task := range []string{"Dual-Vth", "Conventional-SMT", "Improved-SMT"} {
		if rec.count("0/"+task+"/done") != 1 {
			t.Errorf("sibling %s did not finish: %v", task, rec.tasks())
		}
	}
}
