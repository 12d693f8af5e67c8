// Strategy benchmarks on the big tiers: greedy (the paper's
// slack-ordered pass) vs sensitivity (leakage-saved-per-slack LUT
// ordering, committed from per-cluster lanes with batched re-timing) on
// the same 100k-/1M-instance designs the kernel benchmarks use. Each
// iteration runs the whole assignment on a fresh clone, so ns/op is the
// full optimization-loop cost, and the reported
// leak_mw/swaps/reverts/wns_ns metrics are the quality numbers recorded
// in BENCH_assign.json and BENCH_assign_pr10.json. The 100k benchmarks
// also enforce the quality bars directly: every run must end
// violation-free with leakage no worse than greedy's.
package selectivemt

import (
	"fmt"
	"testing"

	"selectivemt/internal/assign"
	"selectivemt/internal/dualvth"
	"selectivemt/internal/netlist"
	"selectivemt/internal/power"
	"selectivemt/internal/sta"
)

var assignStrategyNames = []string{"greedy", "sensitivity"}

type strategyOutcome struct {
	leakMW float64
	wnsNs  float64
	ran    bool
}

// assignClone runs one Dual-Vth assignment with the named strategy at
// the given timer width (which the lanes fan out at) on a clone of d,
// and returns the result and the clone's active leakage.
func assignClone(b *testing.B, d *netlist.Design, cfg sta.Config, name string, workers int) (*assign.Result, float64) {
	s, err := assign.Parse(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg.ShardJobs = workers
	clone := d.Clone()
	r, err := dualvth.Assign(clone, cfg, s, assign.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return r, power.ActiveLeakage(clone)
}

func benchAssignStrategies(b *testing.B, setup func(testing.TB) (*netlist.Design, sta.Config, *Environment)) map[string]strategyOutcome {
	d, stCfg, _ := setup(b)
	out := map[string]strategyOutcome{}
	for _, name := range assignStrategyNames {
		b.Run(name, func(b *testing.B) {
			var res *assign.Result
			var leak float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, leak = assignClone(b, d, stCfg, name, 0)
			}
			b.ReportMetric(leak, "leak_mw")
			b.ReportMetric(float64(res.Moved), "swaps")
			b.ReportMetric(float64(res.Reverts), "reverts")
			b.ReportMetric(res.Timing.WNS, "wns_ns")
			out[name] = strategyOutcome{leakMW: leak, wnsNs: res.Timing.WNS, ran: true}
		})
	}
	return out
}

// BenchmarkAssignStrategies: both strategies on the 100k tier with an
// unpartitioned timer, so sensitivity runs one lane. The recorded numbers
// live in BENCH_assign.json.
func BenchmarkAssignStrategies(b *testing.B) {
	out := benchAssignStrategies(b, largeTimingSetup)
	g, s := out["greedy"], out["sensitivity"]
	if !g.ran || !s.ran {
		return // a -bench filter selected only one subbenchmark
	}
	if g.wnsNs < 0 || s.wnsNs < 0 {
		b.Errorf("strategy left the 100k tier violating: greedy WNS %v, sensitivity WNS %v", g.wnsNs, s.wnsNs)
	}
	if s.leakMW > g.leakMW {
		b.Errorf("sensitivity leakage %v mW worse than greedy %v mW on the 100k tier", s.leakMW, g.leakMW)
	}
}

// BenchmarkAssignSensitivityLanes runs the sensitivity strategy on the
// 100k tier with a 16-lane timer (Partitions 16: 16 commit lanes) at
// lane widths (ShardJobs) of 1, 2 and 4. The
// engine is bit-exact across worker counts
// (TestLaneDeterminismAcrossWorkers pins that), so the widths differ
// only in wall-clock; each must end violation-free with leakage no
// worse than greedy's, run once untimed on a clone of the same design.
func BenchmarkAssignSensitivityLanes(b *testing.B) {
	d, stCfg, _ := largeTimingSetup(b)
	stCfg.Partitions = 16
	_, greedyLeak := assignClone(b, d, stCfg, "greedy", 0)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			var res *assign.Result
			var leak float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, leak = assignClone(b, d, stCfg, "sensitivity", w)
			}
			b.ReportMetric(leak, "leak_mw")
			b.ReportMetric(float64(res.Moved), "swaps")
			b.ReportMetric(float64(res.Reverts), "reverts")
			b.ReportMetric(res.Timing.WNS, "wns_ns")
			b.ReportMetric(float64(res.Workers), "lanes")
			if res.Timing.WNS < 0 {
				b.Errorf("lane engine left the 100k tier violating at w%d: WNS %v", w, res.Timing.WNS)
			}
			if leak > greedyLeak {
				b.Errorf("lane engine leakage %v mW at w%d worse than greedy %v mW on the 100k tier", leak, w, greedyLeak)
			}
		})
	}
}

// BenchmarkHugeAssignStrategies is the same comparison at the
// ~1M-instance tier on a 16-lane timer (excluded from CI like the
// other Huge benches; run locally with -bench '^BenchmarkHugeAssign').
// This is the tier where the lane engine's dirty-cone re-times and
// adaptive batches pay off most.
func BenchmarkHugeAssignStrategies(b *testing.B) {
	benchAssignStrategies(b, func(tb testing.TB) (*netlist.Design, sta.Config, *Environment) {
		d, stCfg, env := hugeTimingSetup(tb)
		stCfg.Partitions = 16
		return d, stCfg, env
	})
}
