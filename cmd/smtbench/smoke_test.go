package main

import (
	"encoding/json"
	"slices"
	"testing"

	"selectivemt"
	"selectivemt/internal/core"
	"selectivemt/internal/gen"
)

// toy shrinks every workload to a few seconds: SmallTest for table1,
// gen.Large(2000) for the flow and assign workloads, 20 jobs for serve.
var toy = map[string]options{
	"table1":     {circuits: []string{"small"}},
	"flow-10k":   {size: 2000},
	"assign-50k": {size: 2000},
	"serve":      {maxOps: 20},
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			opt := toy[w.name]
			opt.seed, opt.seconds, opt.designSeed, opt.traced = 1, 0.2, 3, traced
			rec, spans, err := runWorkload(w.name, opt)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !rec.Correct || rec.Failed > 0 || rec.Attempted == 0 || rec.Ops == 0 {
				t.Errorf("%s (traced %v): correct=%v attempted=%d failed=%d ops=%d checks=%+v failures=%v",
					w.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Ops, rec.Checks, rec.Failures)
			}
			for _, c := range rec.Checks {
				if !c.OK || c.Evals == 0 {
					t.Errorf("%s: check %+v", w.name, c)
				}
			}

			var last map[string]any
			data, _ := json.Marshal(rec.result())
			if err := json.Unmarshal(data, &last); err != nil {
				t.Fatal(err)
			}
			if got := sortedKeys(last); !slices.Equal(got, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Errorf("%s: result keys %v", w.name, got)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			metrics := last["metrics"].(map[string]any)
			if len(metrics) != len(want) {
				t.Errorf("%s: result line has %d metrics, want %d", w.name, len(metrics), len(want))
			}
			for _, m := range want {
				v, ok := metrics[m.name].(map[string]any)
				if !ok || v["unit"] != m.unit {
					t.Errorf("%s: metric %s missing or mis-unitted: %v", w.name, m.name, metrics[m.name])
					continue
				}
				if !traced && v["value"].(float64) <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, v["value"])
				}
			}

			if !traced {
				continue
			}
			if len(spans) == 0 {
				t.Errorf("%s: traced run kept no spans", w.name)
			}
			if w.name == "serve" {
				continue
			}
			if cov := rec.Metrics["trace.stage_coverage"].Value; cov < 0.9 {
				t.Errorf("%s: stages cover %.3f of the traced op time, want >= 0.9", w.name, cov)
			}
			if rec.Metrics["stage.assign_s"].Value <= 0 || rec.Metrics["core.stage-vitals_s"].Value <= 0 {
				t.Errorf("%s: assign stage or stage-vitals probe not timed", w.name)
			}
			if !slices.ContainsFunc(rec.Checks, func(c check) bool { return c.Name == "probes-match-flow" }) {
				t.Errorf("%s: the traced run did not check its probes against the flow", w.name)
			}
		}
	}
}

// TestPrepareMatchesPrepareBase pins the benchmark's layer-by-layer set-up
// to the flow's own.
func TestPrepareMatchesPrepareBase(t *testing.T) {
	env, err := selectivemt.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	spec := gen.Large(2000, 3)
	want := env.NewConfig()
	want.ClockSlack = spec.ClockSlack
	wantD, err := core.PrepareBase(spec.Module, want)
	if err != nil {
		t.Fatal(err)
	}
	got := env.NewConfig()
	got.ClockSlack = spec.ClockSlack
	gotD, err := newRunner(options{}).prepare(0, got, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.ClockPeriodNs != want.ClockPeriodNs || gotD.Fingerprint() != wantD.Fingerprint() {
		t.Errorf("prepare gave clock %v ns, fingerprint %s; PrepareBase %v ns, %s",
			got.ClockPeriodNs, gotD.Fingerprint(), want.ClockPeriodNs, wantD.Fingerprint())
	}
}
