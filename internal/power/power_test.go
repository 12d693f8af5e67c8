package power

import (
	"math"
	"testing"

	"selectivemt/internal/liberty"
	"selectivemt/internal/logic"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
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

// mixed builds: in → LVT INV → n1 → HVT NAND(b=in2) → out, plus a flop.
func mixed(t *testing.T) *netlist.Design { return mixedClockedBy(t, "clk") }

// mixedClockedBy is mixed with its clock port named clock.
func mixedClockedBy(t *testing.T, clock string) *netlist.Design {
	t.Helper()
	l := lib(t)
	d := netlist.New("mixed", l)
	d.AddPort("in", netlist.DirInput)
	d.AddPort("in2", netlist.DirInput)
	d.AddPort(clock, netlist.DirInput)
	d.AddPort("out", netlist.DirOutput)
	n1, _ := d.AddNet("n1")
	n2, _ := d.AddNet("n2")
	inv, _ := d.AddInstance("inv", l.Cell("INV_X1_L"))
	nd, _ := d.AddInstance("nd", l.Cell("NAND2_X1_H"))
	ff, _ := d.AddInstance("ff", l.Cell("DFF_X1_L"))
	d.Connect(inv, "A", d.NetByName("in"))
	d.Connect(inv, "ZN", n1)
	d.Connect(nd, "A", n1)
	d.Connect(nd, "B", d.NetByName("in2"))
	d.Connect(nd, "ZN", n2)
	d.Connect(ff, "D", n2)
	d.Connect(ff, "CK", d.NetByName(clock))
	d.Connect(ff, "Q", d.NetByName("out"))
	return d
}

func TestStandbyUngated(t *testing.T) {
	d := mixed(t)
	rep, err := Standby(d, StandbyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StandbyLeakMW <= 0 {
		t.Fatal("no leakage computed")
	}
	if rep.Breakdown[CatLVT] <= 0 || rep.Breakdown[CatHVT] <= 0 || rep.Breakdown[CatFF] <= 0 {
		t.Errorf("breakdown missing categories: %+v", rep.Breakdown)
	}
	// LVT inverter should out-leak the HVT NAND by a large factor.
	if rep.Breakdown[CatLVT] < 20*rep.Breakdown[CatHVT] {
		t.Errorf("LVT %v not ≫ HVT %v", rep.Breakdown[CatLVT], rep.Breakdown[CatHVT])
	}
}

func TestStandbyStateDependence(t *testing.T) {
	d := mixed(t)
	rep0, err := Standby(d, StandbyOptions{Inputs: map[string]logic.Value{
		"in": logic.V0, "in2": logic.V0}})
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := Standby(d, StandbyOptions{Inputs: map[string]logic.Value{
		"in": logic.V1, "in2": logic.V1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep0.StandbyLeakMW == rep1.StandbyLeakMW {
		t.Error("leakage should depend on the standby input vector")
	}
}

func TestStandbyGatingReducesLeakage(t *testing.T) {
	d := mixed(t)
	base, err := Standby(d, StandbyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Swap the LVT inverter to the improved MT variant and gate it.
	inv := d.Instance("inv")
	if err := d.ReplaceCell(inv, lib(t).Cell("INV_X1_MN")); err != nil {
		t.Fatal(err)
	}
	gated, err := Standby(d, StandbyOptions{
		Gated:    func(i *netlist.Instance) bool { return i == inv },
		HolderOn: func(n *netlist.Net) bool { return n == d.NetByName("n1") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if gated.StandbyLeakMW >= base.StandbyLeakMW {
		t.Errorf("gating did not reduce leakage: %v vs %v", gated.StandbyLeakMW, base.StandbyLeakMW)
	}
	if gated.Breakdown[CatMT] != 0 {
		t.Errorf("improved MT cell should bill zero to the cell: %v", gated.Breakdown[CatMT])
	}
	if gated.Breakdown[CatLVT] != 0 {
		t.Error("no LVT cells should remain")
	}
}

func TestStandbyWithoutHolderPropagatesX(t *testing.T) {
	// Without a holder, the downstream HVT gate's input is X and the
	// analysis falls back to average leakage rather than crashing.
	d := mixed(t)
	inv := d.Instance("inv")
	d.ReplaceCell(inv, lib(t).Cell("INV_X1_MN"))
	rep, err := Standby(d, StandbyOptions{
		Gated: func(i *netlist.Instance) bool { return i == inv },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StandbyLeakMW <= 0 {
		t.Error("no leakage computed")
	}
}

func TestSwitchAndHolderCategories(t *testing.T) {
	l := lib(t)
	d := mixed(t)
	mte, _ := d.AddNet("MTE")
	mte.IsMTE = true
	d.AddPort("mte_in", netlist.DirInput)
	sw, _ := d.AddInstance("sw", l.SwitchCells()[2])
	d.Connect(sw, "MTE", d.NetByName("mte_in"))
	vg, _ := d.AddNet("vgnd1")
	vg.IsVGND = true
	d.Connect(sw, "VGND", vg)
	h, _ := d.AddInstance("hold", l.Holder())
	d.Connect(h, "A", d.NetByName("n1"))
	d.Connect(h, "MTE", d.NetByName("mte_in"))
	rep, err := Standby(d, StandbyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Breakdown[CatSwitch] <= 0 {
		t.Error("switch leakage missing")
	}
	if rep.Breakdown[CatHolder] <= 0 {
		t.Error("holder leakage missing")
	}
}

func TestActiveLeakage(t *testing.T) {
	d := mixed(t)
	mw := ActiveLeakage(d)
	if mw <= 0 {
		t.Fatal("no active leakage")
	}
	rep, _ := Standby(d, StandbyOptions{})
	// With nothing gated, active ≥ standby state-dependent total is not
	// guaranteed per state, but active (state-averaged) should be in the
	// same ballpark: within 5×.
	if mw > 5*rep.StandbyLeakMW || rep.StandbyLeakMW > 5*mw {
		t.Errorf("active %v vs standby %v implausible", mw, rep.StandbyLeakMW)
	}
}

func TestDynamicPower(t *testing.T) {
	d := mixed(t)
	act, err := sim.EstimateActivity(d, 128, 7)
	if err != nil {
		t.Fatal(err)
	}
	ex := &parasitics.EstimateExtractor{Proc: sharedProc}
	mw, err := Dynamic(d, act, sharedProc, 2.0, ex)
	if err != nil {
		t.Fatal(err)
	}
	if mw <= 0 {
		t.Fatal("no dynamic power")
	}
	// Faster clock → more power.
	mw2, _ := Dynamic(d, act, sharedProc, 1.0, ex)
	if mw2 <= mw {
		t.Errorf("halving the period should double power: %v vs %v", mw2, mw)
	}
	if _, err := Dynamic(d, act, sharedProc, 0, ex); err == nil {
		t.Error("zero period accepted")
	}
}

// TestDynamicNilActivity: a nil activity is no switching, as in
// Currents: 0 mW rather than a nil dereference, with the period still
// checked.
func TestDynamicNilActivity(t *testing.T) {
	d := mixed(t)
	ex := &parasitics.EstimateExtractor{Proc: sharedProc}
	mw, err := Dynamic(d, nil, sharedProc, 2.0, ex)
	if err != nil || mw != 0 {
		t.Errorf("Dynamic with no activity = %v, %v; want 0 mW", mw, err)
	}
	if _, err := Dynamic(d, nil, sharedProc, 0, ex); err == nil {
		t.Error("zero period accepted")
	}
	cc, err := Currents(d, nil, sharedProc, 2.0, ex)
	if err != nil {
		t.Fatal(err)
	}
	if avg := cc.AvgMA[d.Instance("inv")]; avg != 0 {
		t.Errorf("Currents with no activity: average %v mA, want 0", avg)
	}
}

func TestCurrents(t *testing.T) {
	d := mixed(t)
	act, err := sim.EstimateActivity(d, 128, 9)
	if err != nil {
		t.Fatal(err)
	}
	ex := &parasitics.EstimateExtractor{Proc: sharedProc}
	cc, err := Currents(d, act, sharedProc, 2.0, ex)
	if err != nil {
		t.Fatal(err)
	}
	inv := d.Instance("inv")
	if cc.PeakMA[inv] <= 0 {
		t.Error("peak current missing")
	}
	if cc.AvgMA[inv] < 0 {
		t.Error("negative average current")
	}
	// Average is far below peak (activity ≪ 1 per cycle).
	if cc.AvgMA[inv] > cc.PeakMA[inv] {
		t.Errorf("avg %v above peak %v", cc.AvgMA[inv], cc.PeakMA[inv])
	}
	if _, err := Currents(d, act, sharedProc, 0, ex); err == nil {
		t.Error("zero period accepted")
	}
}

// TestActivityIndependentOfClockName: the stimulus finds the clock from
// the netlist, so naming the clock port clk or CK leaves every other net's
// activity bit-identical and the dynamic power equal.
func TestActivityIndependentOfClockName(t *testing.T) {
	lib(t)
	ex := &parasitics.EstimateExtractor{Proc: sharedProc}
	measure := func(clock string) (*netlist.Design, *sim.Activity, float64) {
		d := mixedClockedBy(t, clock)
		act, err := sim.EstimateActivity(d, 96, 7)
		if err != nil {
			t.Fatal(err)
		}
		mw, err := Dynamic(d, act, sharedProc, 2.0, ex)
		if err != nil {
			t.Fatal(err)
		}
		return d, act, mw
	}
	da, actA, mwA := measure("clk")
	db, actB, mwB := measure("CK")
	for _, na := range da.Nets() {
		if na.Name == "clk" {
			continue
		}
		nb := db.NetByName(na.Name)
		if math.Float64bits(actA.Toggle[na]) != math.Float64bits(actB.Toggle[nb]) ||
			math.Float64bits(actA.ProbOne[na]) != math.Float64bits(actB.ProbOne[nb]) {
			t.Errorf("net %s: toggle %v P(1) %v with the clock named clk, %v %v named CK",
				na.Name, actA.Toggle[na], actA.ProbOne[na], actB.Toggle[nb], actB.ProbOne[nb])
		}
	}
	if math.Float64bits(mwA) != math.Float64bits(mwB) {
		t.Errorf("dynamic power %v mW with the clock named clk, %v named CK", mwA, mwB)
	}
}
