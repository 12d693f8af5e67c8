// The ~100k-instance benchmark tier: a deterministic hierarchical design
// (gen.Large, fixed seed) big enough that the timing kernel's asymptotics
// and allocation behavior dominate. The Large timing benchmarks here are
// the source of BENCH_sta_pr6.json, BenchmarkLargeActivity times the
// logic simulator's activity estimation, BenchmarkClone, BenchmarkInstances,
// BenchmarkTopoOrder and BenchmarkSimNew time the netlist walks at 10k and
// 100k instances, and the test is the journal-capacity regression for
// design-wide edit passes.
package selectivemt

import (
	"fmt"
	"math"
	"testing"

	"selectivemt/internal/core"
	"selectivemt/internal/gen"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/sim"
	"selectivemt/internal/sta"
)

// largeTimingSetup prepares the 100k-tier design (synthesized and placed)
// and the timing config the Large tests and benchmarks share.
func largeTimingSetup(tb testing.TB) (*netlist.Design, sta.Config, *Environment) {
	return tierTimingSetup(tb, CircuitLarge())
}

// hugeTimingSetup is largeTimingSetup at the ~1M-instance tier, the scale
// target for the partition-parallel sharded kernel.
func hugeTimingSetup(tb testing.TB) (*netlist.Design, sta.Config, *Environment) {
	return tierTimingSetup(tb, CircuitHuge())
}

func tierTimingSetup(tb testing.TB, spec CircuitSpec) (*netlist.Design, sta.Config, *Environment) {
	tb.Helper()
	env, err := NewEnvironment()
	if err != nil {
		tb.Fatal(err)
	}
	cfg := env.NewConfig()
	cfg.ClockSlack = spec.ClockSlack
	d, err := core.PrepareBase(spec.Module, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	stCfg := sta.Config{
		ClockPeriodNs: cfg.ClockPeriodNs,
		ClockPort:     "clk",
		InputSlewNs:   0.03,
		InputDelayNs:  0.1,
		Extractor:     &parasitics.EstimateExtractor{Proc: env.Proc},
	}
	return d, stCfg, env
}

// TestLargeSwapPassRetimesIncrementally is the journal-capacity
// regression. A design-wide swap pass on the 100k tier journals more
// entries than the old fixed 16k cap retained, so the history an
// incremental timer needed was silently dropped and its next Update
// demoted to a full rebuild. With the size-scaled cap the whole pass
// must replay incrementally — and land bit-identical to a fresh
// analysis.
func TestLargeSwapPassRetimesIncrementally(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-instance regression skipped in -short mode")
	}
	d, stCfg, env := largeTimingSetup(t)
	inc, err := sta.NewIncremental(d, stCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Swap past the old fixed cap (1<<14) so the regression actually
	// exercises the scaled window.
	const wantSwaps = 1<<14 + 1024
	swapped := 0
	for _, inst := range d.Instances() {
		if swapped == wantSwaps {
			break
		}
		if inst.Cell.Kind != liberty.KindComb {
			continue
		}
		v := env.Lib.Variant(inst.Cell, liberty.FlavorHVT)
		if v == nil || v == inst.Cell {
			continue
		}
		if err := d.ReplaceCell(inst, v); err != nil {
			t.Fatal(err)
		}
		swapped++
	}
	if swapped < wantSwaps {
		t.Fatalf("only %d swappable comb cells, need %d to overflow the old cap", swapped, wantSwaps)
	}
	res, err := inc.Update()
	if err != nil {
		t.Fatal(err)
	}
	st := inc.Stats()
	if st.FullBuilds != 1 || st.SwapUpdates != 1 {
		t.Fatalf("swap pass was not serviced incrementally: %+v", st)
	}
	fresh, err := sta.Analyze(d, stCfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.WNS) != math.Float64bits(fresh.WNS) ||
		math.Float64bits(res.TNS) != math.Float64bits(fresh.TNS) ||
		math.Float64bits(res.WorstHold) != math.Float64bits(fresh.WorstHold) {
		t.Fatalf("incremental diverged from fresh analysis after the pass:\ninc   WNS=%v TNS=%v hold=%v\nfresh WNS=%v TNS=%v hold=%v",
			res.WNS, res.TNS, res.WorstHold, fresh.WNS, fresh.TNS, fresh.WorstHold)
	}
}

// BenchmarkLargeFullFlat times repeated full analysis of the 100k tier at
// the default one shard: compile, extraction and propagation on every
// iteration. The numbers recorded in BENCH_sta_pr6.json predate the
// removal of the compile cache, which re-ran only propagation after the
// first iteration.
func BenchmarkLargeFullFlat(b *testing.B) {
	d, stCfg, _ := largeTimingSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sta.Analyze(d, stCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLargeIncremental times the optimization-loop cadence on the
// 100k tier: a batch of 4 Vth toggles followed by one incremental update
// per iteration, on a persistent timer.
func BenchmarkLargeIncremental(b *testing.B) {
	d, stCfg, env := largeTimingSetup(b)
	var swaps []*netlist.Instance
	n := 0
	for _, inst := range d.Instances() {
		if inst.Cell.Kind != liberty.KindComb {
			continue
		}
		if n++; n%5 != 0 {
			continue
		}
		if env.Lib.Variant(inst.Cell, liberty.FlavorHVT) != nil {
			swaps = append(swaps, inst)
		}
	}
	inc, err := sta.NewIncremental(d, stCfg)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			inst := swaps[(i*batch+j)%len(swaps)]
			f := liberty.FlavorHVT
			if inst.Cell.Flavor == liberty.FlavorHVT {
				f = liberty.FlavorLVT
			}
			if err := d.ReplaceCell(inst, env.Lib.Variant(inst.Cell, f)); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := inc.Update(); err != nil {
			b.Fatal(err)
		}
	}
	st := inc.Stats()
	b.ReportMetric(float64(st.NetsRetimed)/float64(b.N), "nets-retimed/op")
}

// BenchmarkLargeActivity times one activity estimation of the 100k tier
// with the flow's cycle count and seed, called directly so no analysis
// cache can answer it: compile, the simulated cycles and the Activity
// maps.
func BenchmarkLargeActivity(b *testing.B) {
	d, _, env := largeTimingSetup(b)
	cfg := env.NewConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.EstimateActivity(d, cfg.ActivityCycles, cfg.Seed); err != nil {
			b.Fatal(err)
		}
	}
}

// tierDesigns holds the placed gen.Large designs the netlist benchmarks
// share, by instance target.
var tierDesigns = map[int]*netlist.Design{}

// benchTiers runs one benchmark on the placed gen.Large design (design
// seed 3) at 10k and 100k instances:
//
//	go test -run '^$' -bench '^Benchmark(Clone|Instances|TopoOrder|SimNew)$' -benchmem .
func benchTiers(b *testing.B, run func(b *testing.B, d *netlist.Design)) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			d := tierDesigns[n]
			if d == nil {
				env, err := NewEnvironment()
				if err != nil {
					b.Fatal(err)
				}
				cfg := env.NewConfig()
				cfg.ClockPeriodNs = 1 // no min-period probe: nothing here times
				if d, err = core.PrepareBase(gen.Large(n, 3).Module, cfg); err != nil {
					b.Fatal(err)
				}
				tierDesigns[n] = d
			}
			b.ReportAllocs()
			b.ResetTimer()
			run(b, d)
		})
	}
}

// BenchmarkClone times one deep copy of the design, which every technique
// run makes of its circuit's base.
func BenchmarkClone(b *testing.B) {
	benchTiers(b, func(b *testing.B, d *netlist.Design) {
		for i := 0; i < b.N; i++ {
			d.Clone()
		}
	})
}

// BenchmarkInstances times the instance list in insertion order.
func BenchmarkInstances(b *testing.B) {
	benchTiers(b, func(b *testing.B, d *netlist.Design) {
		for i := 0; i < b.N; i++ {
			d.Instances()
		}
	})
}

// BenchmarkTopoOrder times the combinational topological order the timer
// compiles from.
func BenchmarkTopoOrder(b *testing.B) {
	benchTiers(b, func(b *testing.B, d *netlist.Design) {
		for i := 0; i < b.N; i++ {
			if _, err := d.TopoOrder(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimNew times one compile of the logic simulator.
func BenchmarkSimNew(b *testing.B) {
	benchTiers(b, func(b *testing.B, d *netlist.Design) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.New(d); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchFullSharded times steady-state full analysis through the sharded
// kernel at worker counts 1/2/4. The w1 number against the one-shard
// Full benchmark of the same tier is the protocol-overhead measurement
// (the acceptance bar is <= 10% on the 100k tier); w2/w4 show the
// fan-out scaling. All worker counts share one cached sharded graph —
// results are bit-identical, only the schedule changes.
func benchFullSharded(b *testing.B, setup func(testing.TB) (*netlist.Design, sta.Config, *Environment), partitions int) {
	d, stCfg, _ := setup(b)
	stCfg.Partitions = partitions
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			cfg := stCfg
			cfg.ShardJobs = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sta.Analyze(d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLargeFullSharded: the 100k tier through the sharded kernel.
// Compare w1 against BenchmarkLargeFullFlat for the protocol overhead;
// recorded numbers live in BENCH_sta_pr7.json.
func BenchmarkLargeFullSharded(b *testing.B) {
	benchFullSharded(b, largeTimingSetup, 8)
}

// BenchmarkHugeFullSharded: full analysis of the ~1M-instance tier
// (gen.Huge) through the sharded kernel at workers 1/2/4.
func BenchmarkHugeFullSharded(b *testing.B) {
	benchFullSharded(b, hugeTimingSetup, 16)
}

// BenchmarkHugeIncremental times the ECO cadence on the 1M tier: a batch
// of 4 Vth toggles per incremental update on a persistent partitioned
// timer, so only the dirty shards repropagate.
func BenchmarkHugeIncremental(b *testing.B) {
	d, stCfg, env := hugeTimingSetup(b)
	stCfg.Partitions = 16
	var swaps []*netlist.Instance
	n := 0
	for _, inst := range d.Instances() {
		if inst.Cell.Kind != liberty.KindComb {
			continue
		}
		if n++; n%101 != 0 {
			continue
		}
		if env.Lib.Variant(inst.Cell, liberty.FlavorHVT) != nil {
			swaps = append(swaps, inst)
		}
	}
	inc, err := sta.NewIncremental(d, stCfg)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			inst := swaps[(i*batch+j)%len(swaps)]
			f := liberty.FlavorHVT
			if inst.Cell.Flavor == liberty.FlavorHVT {
				f = liberty.FlavorLVT
			}
			if err := d.ReplaceCell(inst, env.Lib.Variant(inst.Cell, f)); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := inc.Update(); err != nil {
			b.Fatal(err)
		}
	}
	st := inc.Stats()
	b.ReportMetric(float64(st.NetsRetimed)/float64(b.N), "nets-retimed/op")
}
