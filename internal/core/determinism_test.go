package core

import (
	"bytes"
	"context"
	"math"
	"testing"

	"selectivemt/internal/gen"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/sta"
	"selectivemt/internal/verilog"
)

// TestFlowDeterministic runs the improved flow twice from scratch and
// requires bit-identical outputs — the property that makes every number in
// EXPERIMENTS.md reproducible and guards against map-iteration order
// sneaking into any engine.
func TestFlowDeterministic(t *testing.T) {
	run := func() (string, float64, float64, int) {
		l := lib(t)
		cfg := DefaultConfig(sharedProc, l)
		cfg.ClockSlack = 1.12
		base, err := PrepareBase(gen.SmallTest().Module, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunRegistered(context.Background(), "Improved-SMT", base, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := verilog.Write(&buf, res.Design); err != nil {
			t.Fatal(err)
		}
		return buf.String(), res.AreaUm2, res.StandbyLeakMW, len(res.Clusters)
	}
	v1, a1, l1, c1 := run()
	v2, a2, l2, c2 := run()
	if a1 != a2 || l1 != l2 || c1 != c2 {
		t.Fatalf("metrics differ between runs: area %v/%v leak %v/%v clusters %d/%d",
			a1, a2, l1, l2, c1, c2)
	}
	if v1 != v2 {
		t.Fatal("final netlists differ between identical runs")
	}
}

// TestMeasuredTimingMatchesFreshAnalysis covers the incremental path at
// flow level: the flows now ride the incremental timer through the
// assignment and ECO loops, and measure() reuses the ECO's final timing
// when the design revision proves the netlist untouched. The reported
// numbers must still be bit-identical to a from-scratch post-route
// Analyze of the finished design.
func TestMeasuredTimingMatchesFreshAnalysis(t *testing.T) {
	l := lib(t)
	cfg := DefaultConfig(sharedProc, l)
	cfg.ClockSlack = 1.12
	base, err := PrepareBase(gen.SmallTest().Module, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Dual-Vth", "Conventional-SMT", "Improved-SMT"} {
		res, err := RunRegistered(context.Background(), name, base, cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ctsArr := func(*netlist.Instance) float64 { return 0 }
		if res.CTS != nil {
			ctsArr = res.CTS.Arrival
		}
		post := cfg.staConfig(&parasitics.SteinerExtractor{Proc: cfg.Proc,
			TrunkNets: func(n *netlist.Net) bool { return n.IsVGND }}, ctsArr)
		fresh, err := sta.Analyze(res.Design, post)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Float64bits(res.WNSNs) != math.Float64bits(fresh.WNS) {
			t.Errorf("%s: reported WNS %v != fresh analysis %v", name, res.WNSNs, fresh.WNS)
		}
		if math.Float64bits(res.WorstHoldNs) != math.Float64bits(fresh.WorstHold) {
			t.Errorf("%s: reported WorstHold %v != fresh analysis %v", name, res.WorstHoldNs, fresh.WorstHold)
		}
	}
}

// TestConventionalDeterministic covers the other mutating flow.
func TestConventionalDeterministic(t *testing.T) {
	run := func() (float64, float64) {
		l := lib(t)
		cfg := DefaultConfig(sharedProc, l)
		cfg.ClockSlack = 1.12
		base, err := PrepareBase(gen.SmallTest().Module, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunRegistered(context.Background(), "Conventional-SMT", base, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.AreaUm2, res.StandbyLeakMW
	}
	a1, l1 := run()
	a2, l2 := run()
	if a1 != a2 || l1 != l2 {
		t.Fatalf("conventional flow nondeterministic: %v/%v %v/%v", a1, a2, l1, l2)
	}
}
