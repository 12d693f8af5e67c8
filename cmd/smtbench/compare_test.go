package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// around returns n values alternating base-d and base+d.
func around(n int, base, d float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base - d
		if i%2 == 1 {
			xs[i] = base + d
		}
	}
	return xs
}

func TestVerdicts(t *testing.T) {
	cases := []struct {
		name           string
		parent, change []float64
		higherBetter   bool
		want           string
	}{
		{"clear gain", around(10, 10, 0.1), around(10, 8, 0.1), false, verdictGain},
		{"gain needs ten pairs", around(9, 10, 0.1), around(9, 8, 0.1), false, verdictSame},
		{"gain needs nine wins in ten", around(10, 10, 0.1), append(around(8, 8, 0.1), 11, 11), false, verdictSame},
		{"gain must beat the parent's spread", around(10, 10, 0.4), around(10, 9.7, 0.4), false, verdictSame},
		{"within bound", around(10, 10, 0.1), around(10, 10.5, 0.1), false, verdictSame},
		{"regression", around(10, 10, 0.1), around(10, 12, 0.1), false, verdictRegression},
		{"higher is better regression", around(10, 20, 0.1), around(10, 15, 0.1), true, verdictRegression},
		{"higher is better gain", around(10, 20, 0.1), around(10, 25, 0.1), true, verdictGain},
		{"wide parent spread", around(10, 10, 3), around(10, 14, 0.1), false, verdictUnresolved},
		{"wide spread but every run better", around(10, 10, 3), around(5, 5, 0.1), false, verdictBetter},
	}
	for _, c := range cases {
		got, _, _ := verdict(c.parent, c.change, c.higherBetter, 0.1)
		if got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestVerdictCountsWinsAndPairs(t *testing.T) {
	_, wins, pairs := verdict([]float64{1, 2, 3, 4}, []float64{0, 2, 4}, false, 0.1)
	if wins != 1 || pairs != 3 {
		t.Errorf("wins/pairs = %d/%d, want 1/3 (ties count for neither)", wins, pairs)
	}
}

func TestCompareLogsReadsRunOutput(t *testing.T) {
	dir := t.TempDir()
	// write makes a run log of ten pairs' worth of one side's runs, each
	// attempting 60 ops.
	write := func(name string, flowS float64, failed int, correct bool) string {
		var buf bytes.Buffer
		for i := 0; i < minPairs; i++ {
			rec := record{Workload: "table1", Seed: int64(i), Attempted: 60, Failed: failed, Correct: correct,
				Metrics: map[string]metric{
					"flow_s": {Value: flowS + 0.01*float64(i%2), Unit: "s"},
				}}
			traced := rec
			traced.Traced = true
			traced.Metrics = map[string]metric{"flow_s": {Value: 100}}
			for _, v := range []any{rec, rec.result(), traced} {
				line, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				buf.Write(append(line, '\n'))
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	def := &benchDef{EndToEnd: []benchMetric{{Name: "flow_s", Unit: "s", Better: "lower", Bound: 0.1}}}
	// verdicts maps each row's metric to its verdict.
	verdicts := func(out string) map[string]string {
		m := map[string]string{}
		for _, line := range strings.Split(strings.TrimSpace(out), "\n")[1:] {
			f := strings.Fields(line)
			m[f[1]] = f[len(f)-1]
		}
		return m
	}

	parent := write("parent", 1, 0, true)
	cases := []struct {
		name, change     string
		regressed        bool
		flowS, failedOps string
		inOutput         string
	}{
		{"a 50% slower change regresses", write("slower", 1.5, 0, true), true, verdictRegression, verdictSame, "0/10"},
		{"a 2x faster change is a gain", write("faster", 0.5, 0, true), false, verdictGain, verdictSame, "10/10"},
		{"a faster change failing more ops regresses and its gain is void",
			write("faster-failing", 0.5, 3, true), true, verdictVoid, verdictRegression, "30 of 600 failed"},
		{"a faster change failing a check regresses and its gain is void",
			write("faster-wrong", 0.5, 0, false), true, verdictVoid, verdictRegression, "a check failed"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		regressed, err := compareLogs(&out, def, parent, c.change)
		if err != nil {
			t.Fatal(err)
		}
		got := verdicts(out.String())
		if regressed != c.regressed || got["flow_s"] != c.flowS || got[failedOpsMetric] != c.failedOps ||
			!strings.Contains(out.String(), c.inOutput) {
			t.Errorf("%s: regressed %v, flow_s %s, %s %s; want %v, %s, %s\n%s", c.name, regressed,
				got["flow_s"], failedOpsMetric, got[failedOpsMetric], c.regressed, c.flowS, c.failedOps, out.String())
		}
	}
}
