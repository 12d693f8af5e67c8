package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// minPairs is how many alternating parent/change pairs a gain needs.
const minPairs = 10

// Verdicts of one workload×metric comparison.
const (
	verdictGain       = "gain"       // won ≥ 9/10 of ≥ 10 pairs by more than the parent's spread
	verdictBetter     = "better"     // spread too wide to resolve, but every change run beat every parent run
	verdictSame       = "same"       // no worse than the bound allows
	verdictRegression = "regression" // median worse by more than the bound
	verdictUnresolved = "unresolved" // the parent's own spread exceeds the bound
	verdictVoid       = "void"       // a gain or better on a workload where the change failed more ops
)

// failedOpsMetric is the row that compares failed ops, one per workload.
const failedOpsMetric = "failed-ops"

// benchDef is BENCHMARK.json.
type benchDef struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []benchWL     `json:"workloads"`
	EndToEnd   []benchMetric `json:"end_to_end"`
	PerLayer   []benchMetric `json:"per_layer"`
}

type benchWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchMetric is one metric of BENCHMARK.json. Bound, the share of the
// parent's median by which the metric may worsen, is set for end-to-end
// metrics only.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchDef(path string) (*benchDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchDef
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// verdict applies the paired-runs rule to one metric: parent[i] and
// change[i] are the i-th alternating pair.
func verdict(parent, change []float64, higherBetter bool, bound float64) (v string, wins, pairs int) {
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	pairs = min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	iqr := q3 - q1
	worse := (cm - pm) / math.Abs(pm)
	if higherBetter {
		worse = -worse
	}
	switch {
	case pairs >= minPairs && wins*10 >= 9*pairs && better(cm, pm) && math.Abs(cm-pm) > iqr:
		return verdictGain, wins, pairs
	case iqr/math.Abs(pm) > bound:
		if allBetter(change, parent, better) {
			return verdictBetter, wins, pairs
		}
		return verdictUnresolved, wins, pairs
	case worse > bound:
		return verdictRegression, wins, pairs
	}
	return verdictSame, wins, pairs
}

func allBetter(change, parent []float64, better func(a, b float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return len(change) > 0 && len(parent) > 0
}

// readRecords loads the untraced run records of a log: the lines smtbench
// prints, concatenated over runs.
func readRecords(path string) (map[string][]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var rec record
		if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Workload == "" || rec.Traced {
			continue
		}
		out[rec.Workload] = append(out[rec.Workload], &rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// failures sums the ops a side attempted and failed on one workload, and
// reports whether every one of its runs passed its output checks.
func failures(recs []*record) (failed, attempted int, correct bool) {
	correct = true
	for _, r := range recs {
		failed += r.Failed
		attempted += r.Attempted
		correct = correct && r.Correct
	}
	return failed, attempted, correct
}

// compareLogs prints, per workload, a failed-ops row and one row per
// end-to-end metric, and reports whether any row is a regression. Failed
// ops are compared as a share of the ops attempted, since a closed loop
// attempts more ops on the faster side. A change that fails a larger share
// of ops than the parent, or fails an output check, regresses, and its
// timing gains on that workload are void: failed work also ends sooner.
func compareLogs(w io.Writer, def *benchDef, parentPath, changePath string) (regressed bool, err error) {
	parent, err := readRecords(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\twins/pairs\tbound\tverdict")
	for _, wl := range sortedKeys(parent) {
		pf, pa, pok := failures(parent[wl])
		cf, ca, cok := failures(change[wl])
		failedMore := !cok || cf*pa > pf*ca
		v := verdictSame
		switch {
		case ca == 0:
			v = "missing"
		case failedMore:
			v = verdictRegression
		}
		regressed = regressed || v == verdictRegression
		checks := map[bool]string{true: "", false: ", a check failed"}
		fmt.Fprintf(tw, "%s\t%s\t%d of %d failed%s\t%d of %d failed%s\t-\t-\t%s\n",
			wl, failedOpsMetric, pf, pa, checks[pok], cf, ca, checks[cok], v)

		for _, m := range def.EndToEnd {
			p, c := values(parent[wl], m.Name), values(change[wl], m.Name)
			if len(p) == 0 || len(c) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%d runs\t%d runs\t-\t%g\tmissing\n", wl, m.Name, len(p), len(c), m.Bound)
				continue
			}
			v, wins, pairs := verdict(p, c, m.Better == "higher", m.Bound)
			if failedMore && (v == verdictGain || v == verdictBetter) {
				v = verdictVoid
			}
			regressed = regressed || v == verdictRegression
			pq1, pq3 := quartiles(p)
			cq1, cq3 := quartiles(c)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.4g [%.4g, %.4g] %s\t%d/%d\t%g\t%s\n",
				wl, m.Name, median(p), pq1, pq3, m.Unit, median(c), cq1, cq3, m.Unit, wins, pairs, m.Bound, v)
		}
	}
	return regressed, tw.Flush()
}

func values(recs []*record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
