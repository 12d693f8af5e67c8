// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus ablations over the design choices DESIGN.md calls out.
//
//	go test -bench=. -benchmem
//
// Table 1 benches report area and leakage normalized to Dual-Vth = 100%
// via b.ReportMetric, in the same shape as the paper's table. The Fig.
// benches regenerate the structural claims behind each figure.
package selectivemt

import (
	"testing"

	"selectivemt/internal/core"
	"selectivemt/internal/gen"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/sim"
	"selectivemt/internal/sta"
)

func benchEnv(b *testing.B) *Environment {
	b.Helper()
	env, err := NewEnvironment()
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// benchTable1 runs the three-technique comparison once per iteration and
// reports the paper's normalized metrics.
func benchTable1(b *testing.B, spec CircuitSpec) {
	env := benchEnv(b)
	var cmp *Comparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = env.Compare(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cmp.AreaPct(cmp.Conv), "conv-area-%")
	b.ReportMetric(cmp.AreaPct(cmp.Improved), "imp-area-%")
	b.ReportMetric(cmp.LeakagePct(cmp.Conv), "conv-leak-%")
	b.ReportMetric(cmp.LeakagePct(cmp.Improved), "imp-leak-%")
	// Shape assertions: the paper's orderings must hold every run.
	if !(cmp.Improved.StandbyLeakMW < cmp.Conv.StandbyLeakMW &&
		cmp.Conv.StandbyLeakMW < cmp.Dual.StandbyLeakMW) {
		b.Fatalf("leakage ordering broken: dual=%v conv=%v imp=%v",
			cmp.Dual.StandbyLeakMW, cmp.Conv.StandbyLeakMW, cmp.Improved.StandbyLeakMW)
	}
	if !(cmp.Dual.AreaUm2 < cmp.Improved.AreaUm2 && cmp.Improved.AreaUm2 < cmp.Conv.AreaUm2) {
		b.Fatalf("area ordering broken: dual=%v imp=%v conv=%v",
			cmp.Dual.AreaUm2, cmp.Improved.AreaUm2, cmp.Conv.AreaUm2)
	}
}

// BenchmarkTable1CircuitA regenerates Table 1, circuit A (paper: Con-SMT
// 164.84% area / 14.58% leakage; Imp-SMT 133.18% / 9.42%).
func BenchmarkTable1CircuitA(b *testing.B) { benchTable1(b, CircuitA()) }

// BenchmarkTable1CircuitB regenerates Table 1, circuit B (paper: Con-SMT
// 142.22% / 19.42%; Imp-SMT 115.65% / 12.21%).
func BenchmarkTable1CircuitB(b *testing.B) { benchTable1(b, CircuitB()) }

// BenchmarkFig1MTCellCharacterization regenerates the Fig. 1 claim: the
// MT-cell is faster than the high-Vth cell and leaks less in standby than
// the low-Vth cell. Metrics: delay and standby-leakage ratios of the NAND2.
func BenchmarkFig1MTCellCharacterization(b *testing.B) {
	env := benchEnv(b)
	var dRatioMTvsHVT, leakRatioMTvsLVT float64
	for i := 0; i < b.N; i++ {
		l := env.Lib.Cells["NAND2_X1_L"]
		h := env.Lib.Cells["NAND2_X1_H"]
		m := env.Lib.Cells["NAND2_X1_M"]
		dm := m.Arcs[0].WorstDelay(0.05, 0.01)
		dh := h.Arcs[0].WorstDelay(0.05, 0.01)
		dl := l.Arcs[0].WorstDelay(0.05, 0.01)
		if !(dl < dm && dm < dh) {
			b.Fatalf("Fig.1 delay ordering broken: L=%v M=%v H=%v", dl, dm, dh)
		}
		if !(m.StandbyLeakMW < l.StandbyLeakMW) {
			b.Fatal("Fig.1 leakage ordering broken")
		}
		dRatioMTvsHVT = dm / dh
		leakRatioMTvsLVT = m.StandbyLeakMW / l.StandbyLeakMW
	}
	b.ReportMetric(dRatioMTvsHVT, "mt/hvt-delay")
	b.ReportMetric(leakRatioMTvsLVT, "mt/lvt-leak")
}

// BenchmarkFig2ConventionalStructure regenerates the Fig. 2 structure:
// MT-cells on critical paths, high-Vth cells elsewhere, one embedded
// switch per MT-cell, every MT-cell on the MTE network.
func BenchmarkFig2ConventionalStructure(b *testing.B) {
	env := benchEnv(b)
	spec := SmallTest()
	var res *TechniqueResult
	for i := 0; i < b.N; i++ {
		cfg := env.NewConfig()
		cfg.ClockSlack = spec.ClockSlack
		base, err := env.Synthesize(spec, cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err = RunConventionalSMT(base, cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Structure: every MT cell carries its own MTE pin connection.
		for _, inst := range res.Design.Instances() {
			if inst.Cell.Flavor == liberty.FlavorMTConv && inst.Net("MTE") == nil {
				b.Fatalf("%s lacks its MTE connection", inst.Name)
			}
		}
	}
	b.ReportMetric(float64(res.Counts.MT), "mt-cells")
	b.ReportMetric(float64(res.Counts.MTEBuffers), "mte-buffers")
}

// BenchmarkFig3ImprovedStructure regenerates the Fig. 3 structure: shared
// switches, holders only on MT→non-MT nets — and proves the Fig. 2 and
// Fig. 3 circuits stay logically equivalent ("the circuits in Fig.2 and
// Fig.3 are equivalent").
func BenchmarkFig3ImprovedStructure(b *testing.B) {
	env := benchEnv(b)
	spec := SmallTest()
	var sharing float64
	var holders int
	for i := 0; i < b.N; i++ {
		cfg := env.NewConfig()
		cfg.ClockSlack = spec.ClockSlack
		base, err := env.Synthesize(spec, cfg)
		if err != nil {
			b.Fatal(err)
		}
		conv, err := RunConventionalSMT(base, cfg)
		if err != nil {
			b.Fatal(err)
		}
		imp, err := RunImprovedSMT(base, cfg)
		if err != nil {
			b.Fatal(err)
		}
		eq, why, err := sim.Equivalent(conv.Design, imp.Design, 24, 42)
		if err != nil {
			b.Fatal(err)
		}
		if !eq {
			b.Fatalf("Fig.2 and Fig.3 circuits differ: %s", why)
		}
		if imp.Counts.Switches >= imp.Counts.MT {
			b.Fatal("no switch sharing")
		}
		sharing = float64(imp.Counts.MT) / float64(imp.Counts.Switches)
		holders = imp.Counts.Holders
	}
	b.ReportMetric(sharing, "cells-per-switch")
	b.ReportMetric(float64(holders), "holders")
}

// BenchmarkFig4FlowStages regenerates the Fig. 4 flow end to end and
// reports the stage count and final vitals — the "design methodology from
// RTL to final layout" walkthrough.
func BenchmarkFig4FlowStages(b *testing.B) {
	env := benchEnv(b)
	spec := SmallTest()
	var res *TechniqueResult
	for i := 0; i < b.N; i++ {
		cfg := env.NewConfig()
		cfg.ClockSlack = spec.ClockSlack
		base, err := env.Synthesize(spec, cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err = RunImprovedSMT(base, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.WNSNs < 0 {
			b.Fatalf("flow broke timing: WNS=%v", res.WNSNs)
		}
		if len(res.Stages) < 6 {
			b.Fatalf("flow reported %d stages", len(res.Stages))
		}
	}
	b.ReportMetric(float64(len(res.Stages)), "stages")
	b.ReportMetric(res.WNSNs*1000, "wns-ps")
}

// BenchmarkIncrementalVsFull times the shape of the optimization hot
// loop — batches of cell swaps each followed by a re-time — on the
// largest generated circuit (Circuit A, ~800 instances), single-threaded.
// The "full" variant re-analyzes the whole design after every batch the
// way the pre-incremental loops did; the "incremental" variant updates
// one persistent sta.Incremental graph. The speedup is the point: the
// pass loop must no longer scale with full-design re-analysis.
func BenchmarkIncrementalVsFull(b *testing.B) {
	env := benchEnv(b)
	spec := CircuitA()
	cfg := env.NewConfig()
	cfg.ClockSlack = spec.ClockSlack
	base, err := env.Synthesize(spec, cfg)
	if err != nil {
		b.Fatal(err)
	}
	stCfg := sta.Config{
		ClockPeriodNs: cfg.ClockPeriodNs,
		ClockPort:     "clk",
		InputSlewNs:   0.03,
		InputDelayNs:  0.1,
		Extractor:     &parasitics.EstimateExtractor{Proc: env.Proc},
	}
	// The swap schedule: every 5th comb cell with an HVT variant, toggled
	// in batches of 4 — the cadence of the assignment loop's later passes
	// and of critical-cell reverts.
	schedule := func(d *netlist.Design) []*netlist.Instance {
		var swaps []*netlist.Instance
		i := 0
		for _, inst := range d.Instances() {
			if inst.Cell.Kind != liberty.KindComb {
				continue
			}
			if i++; i%5 != 0 {
				continue
			}
			if env.Lib.Variant(inst.Cell, liberty.FlavorHVT) != nil {
				swaps = append(swaps, inst)
			}
		}
		return swaps
	}
	const batch = 4
	toggle := func(d *netlist.Design, inst *netlist.Instance) {
		f := liberty.FlavorHVT
		if inst.Cell.Flavor == liberty.FlavorHVT {
			f = liberty.FlavorLVT
		}
		if err := d.ReplaceCell(inst, env.Lib.Variant(inst.Cell, f)); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d := base.Clone()
			swaps := schedule(d)
			b.StartTimer()
			if _, err := sta.Analyze(d, stCfg); err != nil {
				b.Fatal(err)
			}
			for at := 0; at < len(swaps); at += batch {
				for _, inst := range swaps[at:min(at+batch, len(swaps))] {
					toggle(d, inst)
				}
				if _, err := sta.Analyze(d, stCfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		var st sta.IncrementalStats
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d := base.Clone()
			swaps := schedule(d)
			b.StartTimer()
			inc, err := sta.NewIncremental(d, stCfg)
			if err != nil {
				b.Fatal(err)
			}
			for at := 0; at < len(swaps); at += batch {
				for _, inst := range swaps[at:min(at+batch, len(swaps))] {
					toggle(d, inst)
				}
				if _, err := inc.Update(); err != nil {
					b.Fatal(err)
				}
			}
			st = inc.Stats()
		}
		b.ReportMetric(float64(st.NetsRetimed), "nets-retimed")
		b.ReportMetric(float64(st.SwapUpdates), "updates")
	})
}

// BenchmarkCompareSequential and BenchmarkCompareParallel time the
// three-technique comparison on the small circuit with the same fresh,
// cache-free config per iteration, so the pair isolates the engine's
// worker-pool speedup (parallel should be bounded by the slowest
// technique instead of the sum of all three).
func BenchmarkCompareSequential(b *testing.B) {
	env := benchEnv(b)
	spec := SmallTest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := env.NewConfig()
		cfg.ClockSlack = spec.ClockSlack
		cfg.Cache = nil
		if _, err := env.CompareWithConfig(spec, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompareParallel(b *testing.B) {
	env := benchEnv(b)
	spec := SmallTest()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := env.NewConfig()
		cfg.ClockSlack = spec.ClockSlack
		cfg.Cache = nil
		if _, err := env.CompareParallelWithConfig(spec, cfg, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkActivityUncached times one random-vector activity estimation
// of SmallTest, the call every measure, switch-structure and reopt stage
// makes (the analysis cache does not memoize it).
func BenchmarkActivityUncached(b *testing.B) {
	env := benchEnv(b)
	cfg := env.NewConfig()
	spec := SmallTest()
	cfg.ClockSlack = spec.ClockSlack
	base, err := env.Synthesize(spec, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.EstimateActivity(base, cfg.ActivityCycles, cfg.Seed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunBatchTable1 runs the full Table-1 batch (both circuits,
// all techniques) through the engine, the production-shaped workload.
func BenchmarkRunBatchTable1(b *testing.B) {
	env := benchEnv(b)
	specs := []CircuitSpec{CircuitA(), CircuitB()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comps, err := env.RunBatch(specs, BatchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if comps[0] == nil || comps[1] == nil {
			b.Fatal("batch lost a comparison")
		}
	}
}

// BenchmarkAblationBounceLimit sweeps the VGND bounce cap — the designer
// limit of Section 3 — and reports the area delta between the tightest and
// loosest setting.
func BenchmarkAblationBounceLimit(b *testing.B) {
	env := benchEnv(b)
	spec := SmallTest()
	var tight, loose float64
	for i := 0; i < b.N; i++ {
		for _, frac := range []float64{0.025, 0.10} {
			cfg := env.NewConfig()
			cfg.ClockSlack = spec.ClockSlack
			cfg.Rules.MaxBounceV = frac * env.Proc.Vdd
			base, err := env.Synthesize(spec, cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := RunImprovedSMT(base, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if frac == 0.025 {
				tight = res.AreaUm2
			} else {
				loose = res.AreaUm2
			}
		}
		if tight < loose {
			b.Fatalf("tighter bounce cap should cost area: %v vs %v", tight, loose)
		}
	}
	b.ReportMetric(tight-loose, "area-cost-um2")
}

// BenchmarkAblationClusterCaps sweeps the EM cells-per-switch rule.
func BenchmarkAblationClusterCaps(b *testing.B) {
	env := benchEnv(b)
	spec := SmallTest()
	var frag, shared int
	for i := 0; i < b.N; i++ {
		for _, cap := range []int{4, 48} {
			cfg := env.NewConfig()
			cfg.ClockSlack = spec.ClockSlack
			cfg.Rules.MaxCellsPerSW = cap
			base, err := env.Synthesize(spec, cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := RunImprovedSMT(base, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if cap == 4 {
				frag = res.Counts.Switches
			} else {
				shared = res.Counts.Switches
			}
		}
		if frag < shared {
			b.Fatal("smaller EM cap must fragment clusters into more switches")
		}
	}
	b.ReportMetric(float64(frag), "switches-cap4")
	b.ReportMetric(float64(shared), "switches-cap48")
}

// BenchmarkAblationPostRouteReopt measures the pre-route (star-estimate)
// vs post-route (trunk) switch sizing divergence the paper's SPEF-based
// re-optimization exists to fix.
func BenchmarkAblationPostRouteReopt(b *testing.B) {
	env := benchEnv(b)
	spec := gen.CircuitA()
	var resized int
	var clusters int
	for i := 0; i < b.N; i++ {
		cfg := env.NewConfig()
		cfg.ClockSlack = spec.ClockSlack
		base, err := core.PrepareBase(spec.Module, cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.RunImprovedSMT(base, cfg)
		if err != nil {
			b.Fatal(err)
		}
		resized = res.ReoptResized
		clusters = len(res.Clusters)
	}
	b.ReportMetric(float64(resized), "switches-resized")
	b.ReportMetric(float64(clusters), "clusters")
}
