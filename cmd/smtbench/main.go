// Command smtbench is the repository's benchmark: the Fig. 4 flow end to
// end, the Vth assigner, and the smtd job service, each timed from outside
// through public calls and checked for correct output.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash cmd/smtbench/run.sh                                    # every workload, each in a child process
//	bash cmd/smtbench/run.sh --workload flow-10k --seed 4 --seconds 20 --trace 0
//	bash cmd/smtbench/run.sh --workload table1 --trace 1        # per-layer metrics from a traced run
//	bash cmd/smtbench/run.sh --workload table1 --trace spans.json
//	bash cmd/smtbench/run.sh -runs 5 -baseline-out cmd/smtbench/baseline.json
//	bash cmd/smtbench/run.sh -compare parent.jsonl change.jsonl
//
// A workload run prints its full record as one JSON line and then, as the
// last line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics of BENCHMARK.json when untraced, its per-layer metrics when
// traced. See README.md for the workloads and the metric glossary.
package main

import (
	"bytes"
	"cmp"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// benchmarkFile is the benchmark definition, read from the repository root
// for its metric bounds.
const benchmarkFile = "BENCHMARK.json"

// workload is one benchmark input set.
type workload struct {
	name string
	// size is the default gen.Large instance target (0: no gen.Large design).
	size int
	run  func(*runner) error
}

var workloads = []workload{
	{"table1", 0, runTable1},
	{"flow-10k", 10_000, runFlow},
	{"assign-50k", 50_000, runAssign},
	{"serve", 0, runServe},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload runs one workload and returns its record and spans.
func runWorkload(name string, opt options) (*record, []span, error) {
	w, ok := lookupWorkload(name)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	if opt.size <= 0 {
		opt.size = w.size
	}
	if w.size == 0 {
		opt.size, opt.designSeed = 0, 0
	}
	if len(opt.circuits) == 0 {
		opt.circuits = []string{"a", "b"}
	}
	r := newRunner(opt)
	if err := w.run(r); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	return r.record(name), r.tr.snapshot(), nil
}

//go:embed golden.json
var goldenJSON []byte

// golden holds the exact quality numbers pinned per workload and design.
var golden = func() (g struct {
	QoR map[string]map[string]map[string]float64 `json:"qor"`
}) {
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("golden.json: %v", err))
	}
	return g
}()

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func main() {
	var (
		name       = flag.String("workload", "", "run one workload: table1, flow-10k, assign-50k or serve (empty: every workload, each in a child process)")
		seed       = flag.Int64("seed", 1, "workload seed: activity stimulus of the flows, job mix of serve")
		seconds    = flag.Float64("seconds", 20, "seconds the closed loop measures")
		trace      = flag.String("trace", "0", "0: untraced; 1: traced, spans kept in memory; any other value: traced, spans written to that file")
		size       = flag.Int("size", 0, "gen.Large instance target of flow-10k and assign-50k (0: the workload's own)")
		designSeed = flag.Int64("design-seed", 3, "gen.Large seed of flow-10k and assign-50k")
		runs       = flag.Int("runs", 1, "without -workload: runs per workload, seeds seed, seed+1, ...")
		baseline   = flag.String("baseline-out", "", "without -workload: also make one traced run per workload and write the baseline summary here")
		compare    = flag.Bool("compare", false, "compare two run logs: -compare PARENT CHANGE")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fail(2, "-compare wants two run logs: PARENT CHANGE")
		}
		def, err := readBenchDef(benchmarkFile)
		if err != nil {
			fail(2, "%v", err)
		}
		regressed, err := compareLogs(os.Stdout, def, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(2, "%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || *runs <= 0 {
		fail(2, "-seconds and -runs must be positive")
	}
	opt := options{seed: *seed, seconds: *seconds, traced: *trace != "0", size: *size, designSeed: *designSeed}
	if *name == "" {
		os.Exit(runAll(opt, *trace, *runs, *baseline))
	}

	rec, spans, err := runWorkload(*name, opt)
	if err != nil {
		fail(2, "%v", err)
	}
	if *trace != "0" && *trace != "1" {
		if err := writeSpans(*trace, spans); err != nil {
			fail(2, "%v", err)
		}
	}
	detail, _ := json.Marshal(rec)
	last, _ := json.Marshal(rec.result())
	fmt.Printf("%s\n%s\n", detail, last)
	if !rec.Correct || rec.Failed > 0 {
		os.Exit(1)
	}
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "smtbench: "+format+"\n", args...)
	os.Exit(code)
}

// runAll runs every workload in a child process of its own, so each gets
// its own peak memory, relays their output and returns the exit code: 1 if
// any run failed a check or an op.
func runAll(opt options, trace string, runs int, baselineOut string) int {
	exe, err := os.Executable()
	if err != nil {
		fail(2, "%v", err)
	}
	code := 0
	byWorkload := map[string][]*record{}
	for _, w := range workloads {
		var plan []string // -trace value per run
		for k := 0; k < runs; k++ {
			plan = append(plan, trace)
		}
		if baselineOut != "" {
			plan = append(plan, "1")
		}
		for k, tr := range plan {
			if tr != "0" && tr != "1" {
				tr = strings.TrimSuffix(tr, ".json") + "." + w.name + ".json"
			}
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(opt.seed+int64(k), 10),
				"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-trace", tr,
				"-size", strconv.Itoa(opt.size), "-design-seed", strconv.FormatInt(opt.designSeed, 10)}
			fmt.Fprintf(os.Stderr, "smtbench: %s %s\n", w.name, strings.Join(args[2:], " "))
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			os.Stdout.Write(out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "smtbench: %s run %d: %v\n", w.name, k+1, err)
				code = 1
			}
			for _, line := range bytes.Split(out, []byte("\n")) {
				var rec record
				if json.Unmarshal(line, &rec) == nil && rec.Workload != "" {
					byWorkload[w.name] = append(byWorkload[w.name], &rec)
				}
			}
		}
	}
	if baselineOut != "" {
		if err := writeBaseline(baselineOut, opt, byWorkload); err != nil {
			fmt.Fprintf(os.Stderr, "smtbench: %v\n", err)
			code = 1
		}
	}
	return code
}

// baselineStat is one workload×metric over the baseline's untraced runs;
// spread is (q3 - q1) / median, the quantity the bound is set against.
type baselineStat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound,omitempty"`
}

// writeBaseline summarizes the runs: median and quartiles of every
// end-to-end metric over the untraced runs, the traced run's per-layer
// metrics, and the machine they ran on.
func writeBaseline(path string, opt options, byWorkload map[string][]*record) error {
	bounds := map[string]float64{}
	if def, err := readBenchDef(benchmarkFile); err == nil {
		for _, m := range def.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	type wlSummary struct {
		Seeds     []int64                 `json:"seeds"`
		Ops       []int                   `json:"ops"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Correct   bool                    `json:"correct"`
		EndToEnd  map[string]baselineStat `json:"end_to_end"`
		// TracingOverheadS is the traced run's traced minus untraced
		// median op latency.
		TracingOverheadS float64            `json:"tracing_overhead_s"`
		PerLayer         map[string]float64 `json:"per_layer,omitempty"`
	}
	out := struct {
		Generated string               `json:"generated"`
		Command   string               `json:"command"`
		Machine   map[string]any       `json:"machine"`
		Seconds   float64              `json:"seconds"`
		Workloads map[string]wlSummary `json:"workloads"`
	}{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Command:   "bash cmd/smtbench/run.sh " + strings.Join(os.Args[1:], " "),
		Machine: map[string]any{"cpu": cpuModel(), "nproc": runtime.NumCPU(),
			"go": runtime.Version(), "os": runtime.GOOS + "/" + runtime.GOARCH},
		Seconds:   opt.seconds,
		Workloads: map[string]wlSummary{},
	}
	for wl, recs := range byWorkload {
		s := wlSummary{Correct: true, EndToEnd: map[string]baselineStat{}}
		var untraced []*record
		for _, rec := range recs {
			s.Attempted += rec.Attempted
			s.Failed += rec.Failed
			s.Correct = s.Correct && rec.Correct
			if rec.Traced {
				s.PerLayer = map[string]float64{}
				for _, m := range perLayer {
					s.PerLayer[m.name] = rec.Metrics[m.name].Value
				}
				s.TracingOverheadS = s.PerLayer["trace.overhead_s"]
				continue
			}
			untraced = append(untraced, rec)
			s.Seeds = append(s.Seeds, rec.Seed)
			s.Ops = append(s.Ops, rec.Ops)
		}
		for _, m := range endToEnd {
			xs := values(untraced, m.name)
			if len(xs) == 0 {
				continue
			}
			q1, q3 := quartiles(xs)
			med := median(xs)
			s.EndToEnd[m.name] = baselineStat{Unit: m.unit, Median: med, Q1: q1, Q3: q3,
				Spread: (q3 - q1) / med, Bound: bounds[m.name]}
		}
		out.Workloads[wl] = s
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
