package core

import (
	"context"
	"testing"

	"selectivemt/internal/gen"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/sim"
	"selectivemt/internal/tech"
)

var (
	sharedLib  *liberty.Library
	sharedProc *tech.Process
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

// prepared caches the base design + all three technique runs for the small
// test circuit (the full flows are the expensive part).
type prepared struct {
	cfg                  *Config
	base                 *netlist.Design
	dual, conv, improved *TechniqueResult
}

var cached *prepared

func runAll(t *testing.T) *prepared {
	t.Helper()
	if cached != nil {
		return cached
	}
	l := lib(t)
	cfg := DefaultConfig(sharedProc, l)
	cfg.ClockSlack = 1.12
	base, err := PrepareBase(gen.SmallTest().Module, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dual, err := RunRegistered(context.Background(), "Dual-Vth", base, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := RunRegistered(context.Background(), "Conventional-SMT", base, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	improved, err := RunRegistered(context.Background(), "Improved-SMT", base, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cached = &prepared{cfg: cfg, base: base, dual: dual, conv: conv, improved: improved}
	return cached
}

func TestFlowsProduceValidNetlists(t *testing.T) {
	p := runAll(t)
	for _, r := range []*TechniqueResult{p.dual, p.conv, p.improved} {
		if err := r.Validate(); err != nil {
			t.Errorf("%s: %v", r.Technique, err)
		}
	}
}

func TestFlowsMeetTiming(t *testing.T) {
	p := runAll(t)
	for _, r := range []*TechniqueResult{p.dual, p.conv, p.improved} {
		if r.WNSNs < -0.02*p.cfg.ClockPeriodNs {
			t.Errorf("%s: WNS %v ns at period %v", r.Technique, r.WNSNs, r.ClockPeriodNs)
		}
		if r.WorstHoldNs < 0 {
			t.Errorf("%s: hold violation %v survived ECO", r.Technique, r.WorstHoldNs)
		}
	}
}

func TestFlowsPreserveFunction(t *testing.T) {
	p := runAll(t)
	for _, r := range []*TechniqueResult{p.dual, p.conv, p.improved} {
		eq, why, err := sim.Equivalent(p.base, r.Design, 30, 7)
		if err != nil {
			t.Fatalf("%s: %v", r.Technique, err)
		}
		if !eq {
			t.Errorf("%s changed logic: %s", r.Technique, why)
		}
	}
}

// TestTableOneShape is the paper's headline result on the small circuit:
// leakage Dual ≫ Con-SMT > Imp-SMT; area Dual < Imp-SMT < Con-SMT.
func TestTableOneShape(t *testing.T) {
	p := runAll(t)
	d, c, i := p.dual, p.conv, p.improved
	// Leakage ordering. The tiny test circuit is flop-dominated, which
	// compresses the SMT savings; the full-size assertions live in the
	// Table-1 bench on circuits A and B.
	if !(c.StandbyLeakMW < 0.8*d.StandbyLeakMW) {
		t.Errorf("conventional SMT leakage %v not below dual-Vth %v", c.StandbyLeakMW, d.StandbyLeakMW)
	}
	if !(i.StandbyLeakMW < c.StandbyLeakMW) {
		t.Errorf("improved leakage %v not below conventional %v", i.StandbyLeakMW, c.StandbyLeakMW)
	}
	// Area ordering.
	if !(d.AreaUm2 < i.AreaUm2) {
		t.Errorf("dual area %v should be the smallest (improved %v)", d.AreaUm2, i.AreaUm2)
	}
	if !(i.AreaUm2 < c.AreaUm2) {
		t.Errorf("improved area %v not below conventional %v", i.AreaUm2, c.AreaUm2)
	}
}

func TestImprovedStructure(t *testing.T) {
	p := runAll(t)
	r := p.improved
	if len(r.Clusters) == 0 {
		t.Fatal("no clusters built")
	}
	totalCells := 0
	for _, cl := range r.Clusters {
		if cl.Switch == nil || cl.Net == nil || cl.SwitchCell == nil {
			t.Fatal("cluster not materialized")
		}
		totalCells += len(cl.Cells)
		if len(cl.Cells) > p.cfg.Rules.MaxCellsPerSW {
			t.Errorf("cluster of %d cells violates EM rule %d", len(cl.Cells), p.cfg.Rules.MaxCellsPerSW)
		}
	}
	// Sharing: strictly fewer switches than MT cells.
	if len(r.Clusters) >= totalCells {
		t.Errorf("%d switches for %d MT cells — no sharing", len(r.Clusters), totalCells)
	}
	avg := float64(totalCells) / float64(len(r.Clusters))
	if avg < 2 {
		t.Errorf("average sharing %v < 2", avg)
	}
	// Every MT cell is in exactly one cluster.
	seen := make(map[*netlist.Instance]bool)
	for _, cl := range r.Clusters {
		for _, inst := range cl.Cells {
			if seen[inst] {
				t.Fatalf("%s in two clusters", inst.Name)
			}
			seen[inst] = true
		}
	}
	mtCount := 0
	for _, inst := range r.Design.Instances() {
		if inst.Cell.Flavor == liberty.FlavorMTVGND {
			mtCount++
		}
	}
	if len(seen) != mtCount {
		t.Errorf("%d MT cells clustered, %d exist", len(seen), mtCount)
	}
	if r.Counts.Switches != len(r.Clusters) {
		t.Errorf("switch count %d != clusters %d", r.Counts.Switches, len(r.Clusters))
	}
}

func TestHolderRuleOnFinalNetlist(t *testing.T) {
	p := runAll(t)
	d := p.improved.Design
	for _, n := range d.Nets() {
		if n.Driver.Inst == nil || n.Driver.Inst.Cell.Flavor != liberty.FlavorMTVGND {
			continue
		}
		needs := false
		has := false
		for _, s := range n.Sinks {
			if s.Inst == nil {
				needs = true
				continue
			}
			if s.Inst.Cell.Kind == liberty.KindHolder {
				has = true
				continue
			}
			if !IsGatedMT(s.Inst) {
				needs = true
			}
		}
		if needs && !has {
			t.Errorf("net %s needs a holder but has none", n.Name)
		}
		if !needs && has {
			t.Errorf("net %s has an unnecessary holder (area waste)", n.Name)
		}
	}
	// And there must be MT→MT nets that legitimately have no holder,
	// otherwise the selective rule did nothing.
	savings := 0
	for _, n := range d.Nets() {
		if n.Driver.Inst != nil && n.Driver.Inst.Cell.Flavor == liberty.FlavorMTVGND && !hasHolder(n) {
			savings++
		}
	}
	if savings == 0 {
		t.Error("no holder-free MT nets; the selective rule never fired")
	}
}

func TestMTENetworkFanout(t *testing.T) {
	p := runAll(t)
	for _, r := range []*TechniqueResult{p.conv, p.improved} {
		found := false
		for _, n := range r.Design.Nets() {
			if !n.IsMTE {
				continue
			}
			found = true
			if len(n.Sinks) > p.cfg.MTEMaxFanout {
				t.Errorf("%s: MTE net %s fanout %d exceeds %d",
					r.Technique, n.Name, len(n.Sinks), p.cfg.MTEMaxFanout)
			}
		}
		if !found {
			t.Errorf("%s: no MTE network", r.Technique)
		}
	}
	// Conventional MTE fans out to every MT cell, improved only to
	// switches + holders: conventional needs at least as many MTE buffers.
	if p.conv.Counts.MTEBuffers < p.improved.Counts.MTEBuffers {
		t.Errorf("conventional MTE buffers %d < improved %d — fanout relation inverted",
			p.conv.Counts.MTEBuffers, p.improved.Counts.MTEBuffers)
	}
}

func TestInitialSingleSwitchMotivation(t *testing.T) {
	p := runAll(t)
	r := p.improved
	// The naive single-switch structure should violate the bounce budget
	// (that is why clustering exists). With a small circuit it may pass;
	// we only require it to be strictly worse than the final structure's
	// guarantee.
	if r.InitialSingleSwitchBounceV <= 0 {
		t.Skip("no MT cells")
	}
	if r.InitialSingleSwitchBounceV <= p.cfg.Rules.MaxBounceV/4 {
		t.Errorf("single-switch bounce %v suspiciously easy vs limit %v",
			r.InitialSingleSwitchBounceV, p.cfg.Rules.MaxBounceV)
	}
}

func TestStageReports(t *testing.T) {
	p := runAll(t)
	if len(p.improved.Stages) < 6 {
		t.Errorf("improved flow reported %d stages, want the full Fig.4 sequence", len(p.improved.Stages))
	}
	for _, s := range p.improved.Stages {
		if s.AreaUm2 <= 0 {
			t.Errorf("stage %q has no area", s.Name)
		}
	}
}

func TestConvertToVGNDUnit(t *testing.T) {
	l := lib(t)
	d := netlist.New("c", l)
	d.AddPort("a", netlist.DirInput)
	d.AddPort("y", netlist.DirOutput)
	g, _ := d.AddInstance("g", l.Cell("INV_X1_MN"))
	d.Connect(g, "A", d.NetByName("a"))
	d.Connect(g, "ZN", d.NetByName("y"))
	n, err := ConvertToVGND(d)
	if err != nil || n != 1 {
		t.Fatalf("converted %d, err %v", n, err)
	}
	if g.Cell.Flavor != liberty.FlavorMTVGND {
		t.Error("flavor not converted")
	}
	// Idempotent.
	n, err = ConvertToVGND(d)
	if err != nil || n != 0 {
		t.Errorf("second conversion did %d", n)
	}
}

func TestNeedsHolderUnit(t *testing.T) {
	l := lib(t)
	d := netlist.New("h", l)
	d.AddPort("a", netlist.DirInput)
	mt1, _ := d.AddInstance("mt1", l.Cell("INV_X1_MV"))
	mt2, _ := d.AddInstance("mt2", l.Cell("INV_X1_MV"))
	hv, _ := d.AddInstance("hv", l.Cell("INV_X1_H"))
	n1, _ := d.AddNet("n1")
	n2, _ := d.AddNet("n2")
	d.Connect(mt1, "A", d.NetByName("a"))
	d.Connect(mt1, "ZN", n1)
	d.Connect(mt2, "A", n1)
	o2 := d.NewNetAuto("o")
	d.Connect(mt2, "ZN", o2)
	d.Connect(hv, "A", n2)
	o3 := d.NewNetAuto("o")
	d.Connect(hv, "ZN", o3)
	// n1 feeds only MT → no holder needed.
	if NeedsHolder(n1) {
		t.Error("MT→MT net should not need a holder")
	}
	// Retarget mt1's output to also feed the HVT cell.
	d.Disconnect(hv, "A")
	d.Connect(hv, "A", n1)
	if !NeedsHolder(n1) {
		t.Error("MT→HVT net must need a holder")
	}
	// Non-MT driver never needs one.
	if NeedsHolder(n2) {
		t.Error("undriven/non-MT net flagged")
	}
}

func TestPostRouteReoptIdempotent(t *testing.T) {
	p := runAll(t)
	// Running reopt again must change nothing: sizes already converged.
	cur := currents{avg: map[*netlist.Instance]float64{}, peak: map[*netlist.Instance]float64{}}
	n, err := PostRouteReoptimize(p.improved.Design, p.improved.Clusters, cur, p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("second reopt resized %d switches", n)
	}
}

func TestExtractVGND(t *testing.T) {
	p := runAll(t)
	trees := ExtractVGND(p.improved.Design, p.cfg)
	if len(trees) != len(p.improved.Clusters) {
		t.Errorf("%d VGND trees for %d clusters", len(trees), len(p.improved.Clusters))
	}
	for _, tr := range trees {
		if tr.TotalCap() <= 0 {
			t.Errorf("net %s: empty extraction", tr.NetName)
		}
	}
}
