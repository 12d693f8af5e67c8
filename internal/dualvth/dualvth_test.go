package dualvth

import (
	"testing"

	"selectivemt/internal/assign"
	"selectivemt/internal/gen"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/place"
	"selectivemt/internal/power"
	"selectivemt/internal/sim"
	"selectivemt/internal/sta"
	"selectivemt/internal/synth"
	"selectivemt/internal/tech"
)

var (
	sharedLib  *liberty.Library
	sharedProc *tech.Process
	// greedy is the paper's strategy, the one these tests run.
	greedy, _ = assign.Lookup("greedy")
)

func lib(t *testing.T) *liberty.Library {
	t.Helper()
	if sharedLib == nil {
		sharedProc = tech.Default130()
		l, err := liberty.Generate(sharedProc, liberty.DefaultBuildOptions(sharedProc))
		if err != nil {
			t.Fatal(err)
		}
		sharedLib = l
	}
	return sharedLib
}

// prepDesign maps and places the small test circuit and returns it with an
// STA config at slack× the minimum period.
func prepDesign(t *testing.T, slack float64) (*netlist.Design, sta.Config) {
	t.Helper()
	l := lib(t)
	d, err := synth.Map(gen.SmallTest().Module, l, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := place.Place(d, place.DefaultOptions(sharedProc.RowHeightUm, sharedProc.SitePitchUm)); err != nil {
		t.Fatal(err)
	}
	cfg := sta.Config{
		ClockPeriodNs: 100,
		ClockPort:     "clk",
		InputSlewNs:   0.03,
		Extractor:     &parasitics.EstimateExtractor{Proc: sharedProc},
	}
	pmin, err := sta.MinPeriod(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ClockPeriodNs = pmin * slack
	return d, cfg
}

func TestAssignMeetsTiming(t *testing.T) {
	d, cfg := prepDesign(t, 1.2)
	res, err := Assign(d, cfg, greedy, assign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.WNS < 0 {
		t.Fatalf("assignment broke timing: WNS=%v", res.Timing.WNS)
	}
	if res.Moved == 0 {
		t.Error("nothing swapped to HVT at a relaxed clock")
	}
	if res.Kept == 0 {
		t.Error("everything swapped — the critical paths should have stayed LVT")
	}
	fl := d.CountByFlavor()
	if fl[liberty.FlavorHVT] != res.Moved {
		t.Errorf("flavor count %d != reported %d", fl[liberty.FlavorHVT], res.Moved)
	}
}

func TestAssignReducesLeakage(t *testing.T) {
	d, cfg := prepDesign(t, 1.25)
	before := power.ActiveLeakage(d)
	if _, err := Assign(d, cfg, greedy, assign.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	after := power.ActiveLeakage(d)
	if !(after < before/2) {
		t.Errorf("dual-Vth should cut leakage sharply: %v → %v", before, after)
	}
}

func TestTighterClockKeepsMoreLVT(t *testing.T) {
	dTight, cfgTight := prepDesign(t, 1.03)
	dLoose, cfgLoose := prepDesign(t, 1.6)
	rTight, err := Assign(dTight, cfgTight, greedy, assign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rLoose, err := Assign(dLoose, cfgLoose, greedy, assign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !(rTight.Kept > rLoose.Kept) {
		t.Errorf("tight clock kept %d LVT, loose kept %d — expected more under pressure",
			rTight.Kept, rLoose.Kept)
	}
}

func TestAssignPreservesFunction(t *testing.T) {
	d, cfg := prepDesign(t, 1.2)
	ref := d.Clone()
	if _, err := Assign(d, cfg, greedy, assign.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	eq, why, err := sim.Equivalent(ref, d, 40, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("dual-Vth changed logic: %s", why)
	}
}

func TestAssignMixedProducesMTCells(t *testing.T) {
	d, cfg := prepDesign(t, 1.15)
	res, err := AssignMixed(d, cfg, greedy, assign.DefaultOptions(), liberty.FlavorMTNoVGND)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.WNS < 0 {
		t.Fatalf("mixed assignment broke timing: WNS=%v", res.Timing.WNS)
	}
	fl := d.CountByFlavor()
	if fl[liberty.FlavorMTNoVGND] == 0 {
		t.Error("no MT cells assigned at a near-critical clock")
	}
	if fl[liberty.FlavorHVT] == 0 {
		t.Error("no HVT cells assigned")
	}
	// Only flops may remain plain LVT after the mixed pass (they have no
	// MT variants) — and possibly cells reverted for timing.
	for _, inst := range d.Instances() {
		if inst.Cell.Flavor == liberty.FlavorLVT && inst.Cell.Kind == liberty.KindComb {
			// Reverted-for-timing combinational LVT cells must be critical-ish.
			if res.Timing.InstSlack(inst) > cfg.ClockPeriodNs*0.25 {
				t.Errorf("%s left LVT with huge slack %v", inst.Name, res.Timing.InstSlack(inst))
			}
		}
	}
}

func TestAssignMixedEquivalence(t *testing.T) {
	d, cfg := prepDesign(t, 1.15)
	ref := d.Clone()
	if _, err := AssignMixed(d, cfg, greedy, assign.DefaultOptions(), liberty.FlavorMTNoVGND); err != nil {
		t.Fatal(err)
	}
	eq, why, err := sim.Equivalent(ref, d, 40, 123)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("mixed assignment changed logic: %s", why)
	}
}

func TestImpossibleClockStillTerminates(t *testing.T) {
	d, cfg := prepDesign(t, 0.5) // infeasible period
	res, err := Assign(d, cfg, greedy, assign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Nothing (or almost nothing) should be swapped; all cells LVT.
	if res.Moved > d.NumInstances()/10 {
		t.Errorf("infeasible clock still swapped %d cells", res.Moved)
	}
}
