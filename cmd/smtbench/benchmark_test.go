package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json, at the repository
// root, in step with the workloads and metrics this harness prints, and
// within the format the benchmark definition allows.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if got := sortedKeys(raw); !slices.Equal(got, []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}) {
		t.Errorf("top-level keys %v", got)
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(def.Command, []string{"bash", "cmd/smtbench/run.sh"}) || !slices.Equal(def.Paths, []string{"cmd/smtbench"}) {
		t.Errorf("command %v, paths %v", def.Command, def.Paths)
	}
	if def.RunSeconds < 1 || def.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", def.RunSeconds)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}

	var wls []string
	for _, w := range def.Workloads {
		checkName(w.Name)
		wls = append(wls, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(wls, want) {
		t.Errorf("workloads %v, harness runs %v", wls, want)
	}

	checkMetrics := func(kind string, got []benchMetric, want []metricDef, keys []string) {
		var rawList []map[string]any
		if err := json.Unmarshal(raw[kind], &rawList); err != nil {
			t.Fatal(err)
		}
		for _, m := range rawList {
			if k := sortedKeys(m); !slices.Equal(k, keys) {
				t.Errorf("%s metric %v has keys %v, want %v", kind, m["name"], k, keys)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s lists %d metrics, the harness prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			checkName(m.Name)
			if m.Name != want[i].name || m.Unit != want[i].unit || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s[%d] = %s (%s), harness prints %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
		}
	}
	checkMetrics("end_to_end", def.EndToEnd, endToEnd, []string{"better", "bound", "name", "unit"})
	checkMetrics("per_layer", def.PerLayer, perLayer, []string{"better", "name", "unit"})

	var setupBound float64
	for _, m := range def.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range def.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s: bound %g exceeds setup_s's %g, which must be the largest", m.Name, m.Bound, setupBound)
		}
	}
}
