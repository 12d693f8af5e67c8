package sta

import (
	"math"
	"testing"

	"selectivemt/internal/geom"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
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

func cfg(t *testing.T, period float64) Config {
	return Config{
		ClockPeriodNs: period,
		ClockPort:     "clk",
		InputSlewNs:   0.03,
		Extractor:     &parasitics.EstimateExtractor{Proc: sharedProc},
	}
}

// buildPipe builds: in → ff1 → chainLen×INV → ff2 → out, all placed on a line.
func buildPipe(t *testing.T, chainLen int, flavor liberty.Flavor) *netlist.Design {
	t.Helper()
	l := lib(t)
	d := netlist.New("pipe", l)
	d.AddPort("in", netlist.DirInput)
	d.AddPort("clk", netlist.DirInput)
	d.AddPort("out", netlist.DirOutput)
	clk := d.NetByName("clk")
	clk.IsClock = true
	// Flops have no MT variants; use the flavor when it exists, else LVT.
	ffFlavor := "L"
	if l.Cell("DFF_X1_"+string(flavor)) != nil {
		ffFlavor = string(flavor)
	}
	ff1, _ := d.AddInstance("ff1", l.Cell("DFF_X1_"+ffFlavor))
	ff2, _ := d.AddInstance("ff2", l.Cell("DFF_X1_"+ffFlavor))
	d.Connect(ff1, "D", d.NetByName("in"))
	d.Connect(ff1, "CK", clk)
	d.Connect(ff2, "CK", clk)
	prev, _ := d.AddNet("q1")
	d.Connect(ff1, "Q", prev)
	invCell := l.Cell("INV_X1_" + string(flavor))
	if invCell == nil {
		t.Fatalf("no INV flavor %s", flavor)
	}
	for i := 0; i < chainLen; i++ {
		inv, _ := d.NewInstanceAuto("inv", invCell)
		d.Connect(inv, "A", prev)
		next := d.NewNetAuto("n")
		d.Connect(inv, "ZN", next)
		inv.Pos, inv.Placed = geom.Pt(float64(i)*2, 0), true
		prev = next
	}
	d.Connect(ff2, "D", prev)
	q2, _ := d.AddNet("q2")
	d.Connect(ff2, "Q", q2)
	ob, _ := d.AddInstance("ob", l.Cell("BUF_X2_"+flavorOr(l, flavor)))
	d.Connect(ob, "A", q2)
	d.Connect(ob, "Z", d.NetByName("out"))
	ff1.Pos, ff1.Placed = geom.Pt(0, 0), true
	ff2.Pos, ff2.Placed = geom.Pt(float64(chainLen)*2, 0), true
	ob.Pos, ob.Placed = geom.Pt(float64(chainLen)*2+2, 0), true
	return d
}

func flavorOr(l *liberty.Library, f liberty.Flavor) string {
	if l.Cell("BUF_X2_"+string(f)) != nil {
		return string(f)
	}
	return "L"
}

func TestAnalyzeBasics(t *testing.T) {
	d := buildPipe(t, 8, liberty.FlavorLVT)
	r, err := Analyze(d, cfg(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if r.WNS <= 0 {
		t.Errorf("8-inverter chain at 5ns should meet timing, WNS=%v", r.WNS)
	}
	if r.TNS != 0 {
		t.Errorf("TNS = %v, want 0", r.TNS)
	}
	// Arrival grows along the chain.
	q1 := d.NetByName("q1")
	dIn := d.Instance("ff2").Conns["D"]
	aq, _, _ := r.Arrival(q1)
	if ad, _, _ := r.Arrival(dIn); !(ad > aq) {
		t.Error("arrival does not accumulate along the chain")
	}
}

func TestTightClockFails(t *testing.T) {
	d := buildPipe(t, 40, liberty.FlavorLVT)
	r, err := Analyze(d, cfg(t, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if r.WNS >= 0 {
		t.Errorf("40-stage chain at 0.3ns should fail, WNS=%v", r.WNS)
	}
	if r.TNS >= 0 {
		t.Errorf("TNS = %v, want negative", r.TNS)
	}
}

func TestHVTSlowerThanLVT(t *testing.T) {
	dl := buildPipe(t, 20, liberty.FlavorLVT)
	dh := buildPipe(t, 20, liberty.FlavorHVT)
	pl, err := MinPeriod(dl, cfg(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	ph, err := MinPeriod(dh, cfg(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !(ph > pl) {
		t.Fatalf("HVT min period %v not above LVT %v", ph, pl)
	}
	ratio := ph / pl
	if ratio < 1.15 || ratio > 1.8 {
		t.Errorf("HVT/LVT period ratio %v outside [1.15,1.8]", ratio)
	}
}

func TestMTBetweenLVTAndHVT(t *testing.T) {
	pl, _ := MinPeriod(buildPipe(t, 20, liberty.FlavorLVT), cfg(t, 10))
	pm, _ := MinPeriod(buildPipe(t, 20, liberty.FlavorMTNoVGND), cfg(t, 10))
	ph, _ := MinPeriod(buildPipe(t, 20, liberty.FlavorHVT), cfg(t, 10))
	if !(pl < pm && pm < ph) {
		t.Errorf("period ordering wrong: LVT=%v MT=%v HVT=%v", pl, pm, ph)
	}
}

func TestSlackConsistency(t *testing.T) {
	d := buildPipe(t, 10, liberty.FlavorLVT)
	r, err := Analyze(d, cfg(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Slack along a single chain should be (near) constant and equal WNS
	// for the driving cone.
	for _, inst := range d.Instances() {
		if inst.Cell.IsSequential() || inst.Name == "ob" {
			continue
		}
		s := r.InstSlack(inst)
		if math.IsInf(s, 1) {
			t.Fatalf("%s unconstrained", inst.Name)
		}
		if math.Abs(s-r.WNS) > 0.05 {
			t.Errorf("%s slack %v far from WNS %v on a single chain", inst.Name, s, r.WNS)
		}
	}
}

func TestCriticalInstances(t *testing.T) {
	d := buildPipe(t, 10, liberty.FlavorLVT)
	pmin, _ := MinPeriod(d, cfg(t, 10))
	// At 1.5× min period nothing should be critical with zero margin...
	r, _ := Analyze(d, cfg(t, pmin*1.5))
	if n := len(r.CriticalInstances(0)); n != 0 {
		t.Errorf("relaxed clock: %d critical instances", n)
	}
	// ...but with a margin equal to half the period, the chain is critical.
	if n := len(r.CriticalInstances(pmin * 0.75)); n == 0 {
		t.Error("margin query found nothing")
	}
	// At 0.9× min period the chain must be critical.
	r2, _ := Analyze(d, cfg(t, pmin*0.9))
	if n := len(r2.CriticalInstances(0)); n == 0 {
		t.Error("tight clock: no critical instances found")
	}
}

func TestWorstPaths(t *testing.T) {
	d := buildPipe(t, 12, liberty.FlavorLVT)
	r, err := Analyze(d, cfg(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	paths := r.WorstPaths(3)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	p := paths[0]
	if len(p.Steps) < 12 {
		t.Errorf("worst path has %d steps, want ≥12 (the inverter chain)", len(p.Steps))
	}
	// Path arrival must be nondecreasing source→endpoint.
	for i := 1; i < len(p.Steps); i++ {
		if p.Steps[i].ArriveNs < p.Steps[i-1].ArriveNs-1e-9 {
			t.Fatalf("path arrival decreases at step %d", i)
		}
	}
	// First path is the worst.
	if len(paths) > 1 && paths[0].SlackNs > paths[1].SlackNs+1e-9 {
		t.Error("paths not sorted by slack")
	}
}

func TestHoldWithSkew(t *testing.T) {
	// A single inverter between two flops is hold-risky when the capture
	// clock arrives late (positive skew at ff2).
	d := buildPipe(t, 1, liberty.FlavorLVT)
	c := cfg(t, 5)
	r, err := Analyze(d, c)
	if err != nil {
		t.Fatal(err)
	}
	base := r.WorstHold
	// Now skew the capture flop's clock late by 0.5ns.
	c.ClockArrival = func(inst *netlist.Instance) float64 {
		if inst.Name == "ff2" {
			return 0.5
		}
		return 0
	}
	r2, err := Analyze(d, c)
	if err != nil {
		t.Fatal(err)
	}
	if !(r2.WorstHold < base) {
		t.Errorf("late capture clock should hurt hold: %v vs %v", r2.WorstHold, base)
	}
	if r2.WorstHold >= 0 {
		t.Errorf("0.5ns skew across one inverter should violate hold, slack=%v", r2.WorstHold)
	}
	if len(r2.HoldViolations) == 0 {
		t.Error("violating flop not reported")
	}
}

func TestSkewAffectsSetup(t *testing.T) {
	d := buildPipe(t, 20, liberty.FlavorLVT)
	c := cfg(t, 5)
	r, _ := Analyze(d, c)
	// Late capture clock gives the path more time: setup improves.
	c.ClockArrival = func(inst *netlist.Instance) float64 {
		if inst.Name == "ff2" {
			return 0.3
		}
		return 0
	}
	r2, _ := Analyze(d, c)
	if !(r2.WNS > r.WNS) {
		t.Errorf("late capture should improve setup: %v vs %v", r2.WNS, r.WNS)
	}
}

func TestLoadIncreasesDelay(t *testing.T) {
	// Adding fanout to a net must reduce slack (STA monotonicity).
	d := buildPipe(t, 6, liberty.FlavorLVT)
	r1, _ := Analyze(d, cfg(t, 2))
	mid := d.NetByName("q1")
	l := lib(t)
	for i := 0; i < 8; i++ {
		s, _ := d.NewInstanceAuto("load", l.Cell("NAND2_X4_L"))
		d.Connect(s, "A", mid)
		d.Connect(s, "B", mid)
		o := d.NewNetAuto("lo")
		d.Connect(s, "ZN", o)
		s.Pos, s.Placed = geom.Pt(30, 30), true
	}
	r2, _ := Analyze(d, cfg(t, 2))
	if !(r2.WNS < r1.WNS) {
		t.Errorf("extra load did not hurt timing: %v vs %v", r2.WNS, r1.WNS)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	d := buildPipe(t, 2, liberty.FlavorLVT)
	if _, err := Analyze(d, Config{ClockPeriodNs: 0}); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := Analyze(d, Config{ClockPeriodNs: 1}); err == nil {
		t.Error("missing extractor accepted")
	}
}

func TestMinPeriodAchievable(t *testing.T) {
	d := buildPipe(t, 15, liberty.FlavorLVT)
	pmin, err := MinPeriod(d, cfg(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	if pmin <= 0 {
		t.Fatalf("min period %v", pmin)
	}
	r, err := Analyze(d, cfg(t, pmin*1.001))
	if err != nil {
		t.Fatal(err)
	}
	if r.WNS < -1e-6 {
		t.Errorf("analysis at min period fails: WNS=%v", r.WNS)
	}
	r2, err := Analyze(d, cfg(t, pmin*0.95))
	if err != nil {
		t.Fatal(err)
	}
	if r2.WNS >= 0 {
		t.Errorf("analysis below min period passes: WNS=%v", r2.WNS)
	}
}
