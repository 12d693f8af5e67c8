package core

import (
	"testing"

	"selectivemt/internal/assign"
	"selectivemt/internal/dualvth"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/power"
	"selectivemt/internal/sim"
	"selectivemt/internal/sta"
	"selectivemt/internal/vgnd"
)

// Extension features: gate-sizing recovery (the "and gate-sizing" half of
// the paper's ref [1]) and staggered wake-up scheduling.

func TestRecoverSizingSavesAreaAndLeakage(t *testing.T) {
	p := runAll(t)
	d := p.dual.Design.Clone()
	areaBefore := d.TotalArea()
	leakBefore := power.ActiveLeakage(d)
	cfg := p.cfg.staConfig(&parasitics.EstimateExtractor{Proc: p.cfg.Proc}, nil)
	greedy, _ := assign.Lookup("greedy")
	opts := assign.DefaultOptions()
	opts.SlackMarginNs = 0.02 * p.cfg.ClockPeriodNs
	n, err := dualvth.RecoverSizing(d, cfg, greedy, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("nothing downsized (got %d)", n)
	}
	if got := d.TotalArea(); got >= areaBefore {
		t.Errorf("area not reduced: %v → %v", areaBefore, got)
	}
	if got := power.ActiveLeakage(d); got >= leakBefore {
		t.Errorf("leakage not reduced: %v → %v", leakBefore, got)
	}
	// Timing still met and logic unchanged.
	timing, err := sta.Analyze(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if timing.WNS < 0 {
		t.Errorf("sizing recovery broke timing: WNS %v", timing.WNS)
	}
	eq, why, err := sim.Equivalent(p.dual.Design, d, 25, 17)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("sizing changed logic: %s", why)
	}
}

func TestScheduleWakeupRespectsLimit(t *testing.T) {
	p := runAll(t)
	clusters := p.improved.Clusters
	if len(clusters) < 2 {
		t.Skip("need multiple clusters")
	}
	// Simultaneous baseline.
	all, err := ScheduleWakeup(clusters, p.cfg.Proc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Groups) != 1 || all.PeakInrushMA != all.SimultaneousInrushMA {
		t.Fatalf("simultaneous schedule malformed: %+v", all)
	}
	// Staggered at half the simultaneous inrush.
	limit := all.SimultaneousInrushMA / 2
	st, err := ScheduleWakeup(clusters, p.cfg.Proc, limit)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Groups) < 2 {
		t.Errorf("limit %.2f should force multiple stages", limit)
	}
	if st.PeakInrushMA > limit*(1+1e-9) {
		t.Errorf("peak inrush %.3f exceeds limit %.3f", st.PeakInrushMA, limit)
	}
	if st.TotalWakeupNs < all.TotalWakeupNs {
		t.Error("staggering cannot be faster than simultaneous")
	}
	// Every cluster appears exactly once.
	seen := make(map[int]bool)
	for _, g := range st.Groups {
		for _, idx := range g {
			if seen[idx] {
				t.Fatalf("cluster %d scheduled twice", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != len(clusters) {
		t.Fatalf("%d of %d clusters scheduled", len(seen), len(clusters))
	}
}

func TestScheduleWakeupImpossibleLimit(t *testing.T) {
	p := runAll(t)
	if len(p.improved.Clusters) == 0 {
		t.Skip("no clusters")
	}
	if _, err := ScheduleWakeup(p.improved.Clusters, p.cfg.Proc, 1e-9); err == nil {
		t.Error("impossible inrush limit accepted")
	}
}

func TestScheduleWakeupEmpty(t *testing.T) {
	p := runAll(t)
	s, err := ScheduleWakeup(nil, p.cfg.Proc, 1)
	if err != nil || len(s.Groups) != 0 {
		t.Error("empty cluster list should yield an empty schedule")
	}
}

// --- failure injection: the flow surfaces broken configurations ---

func TestInsertSwitchesRequiresMV(t *testing.T) {
	l := lib(t)
	p := runAll(t)
	d := netlist.New("bad", l)
	d.AddPort("a", netlist.DirInput)
	g, _ := d.AddInstance("g", l.Cell("INV_X1_MN")) // no VGND port
	d.Connect(g, "A", d.NetByName("a"))
	o, _ := d.AddNet("o")
	d.Connect(g, "ZN", o)
	cl := &vgnd.Cluster{Cells: []*netlist.Instance{g}, SwitchCell: l.SwitchCells()[0]}
	if err := InsertSwitches(d, []*vgnd.Cluster{cl}, p.cfg.PlaceOpts); err == nil {
		t.Error("MN cell (no VGND port) accepted by switch insertion")
	}
}

func TestInsertSwitchesUnsizedCluster(t *testing.T) {
	l := lib(t)
	p := runAll(t)
	d := netlist.New("bad2", l)
	d.AddPort("a", netlist.DirInput)
	g, _ := d.AddInstance("g", l.Cell("INV_X1_MV"))
	d.Connect(g, "A", d.NetByName("a"))
	o, _ := d.AddNet("o")
	d.Connect(g, "ZN", o)
	cl := &vgnd.Cluster{Cells: []*netlist.Instance{g}} // SwitchCell nil
	if err := InsertSwitches(d, []*vgnd.Cluster{cl}, p.cfg.PlaceOpts); err == nil {
		t.Error("unsized cluster accepted")
	}
}

func TestBuildMTEWithoutBufferCell(t *testing.T) {
	l := lib(t)
	p := runAll(t)
	stripped := liberty.NewLibrary("stripped", l.Proc)
	for _, name := range l.CellNames() {
		if name == "BUF_X4_H" {
			continue
		}
		if err := stripped.Add(l.Cells[name]); err != nil {
			t.Fatal(err)
		}
	}
	d := netlist.New("m", stripped)
	d.AddPort("src", netlist.DirInput)
	// Several switches so buffering would be required at fanout cap 2.
	for i := 0; i < 6; i++ {
		sw, _ := d.NewInstanceAuto("sw", stripped.SwitchCells()[0])
		vn := d.NewNetAuto("v")
		d.Connect(sw, "VGND", vn)
	}
	if _, err := BuildMTE(d, 2, p.cfg.PlaceOpts); err == nil {
		t.Error("missing MTE buffer cell not reported")
	}
}

func TestBuildMTEIdempotent(t *testing.T) {
	p := runAll(t)
	d := p.improved.Design
	before := d.NumInstances()
	n, err := BuildMTE(d, p.cfg.MTEMaxFanout, p.cfg.PlaceOpts)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || d.NumInstances() != before {
		t.Errorf("second BuildMTE changed the design (%d buffers)", n)
	}
}

func TestDriveSizingLadder(t *testing.T) {
	// RecoverSizing then the improved flow: both still meet timing and
	// reduce combined area versus the unsized dual flow.
	p := runAll(t)
	d := p.dual.Design
	fl := d.CountByFlavor()
	if fl[liberty.FlavorLVT]+fl[liberty.FlavorHVT] == 0 {
		t.Fatal("dual design empty?")
	}
	// The sizing helper must refuse nothing structurally: clone and apply
	// with a huge margin so nothing is eligible.
	c := d.Clone()
	cfg := p.cfg.staConfig(&parasitics.EstimateExtractor{Proc: p.cfg.Proc}, nil)
	greedy, _ := assign.Lookup("greedy")
	opts := assign.DefaultOptions()
	opts.SlackMarginNs = p.cfg.ClockPeriodNs // nothing has this much slack
	n, err := dualvth.RecoverSizing(c, cfg, greedy, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n > 0 {
		t.Errorf("downsized %d cells with an impossible margin", n)
	}

}
