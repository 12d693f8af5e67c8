package sta

import (
	"math"
	"testing"

	"selectivemt/internal/geom"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
)

// buildReconvergent builds a reconvergent fanout: ff1.Q splits into a long
// chain and a short chain, both feeding a NAND into ff2.D — exercises
// multi-fanin max/min arrival and required-time propagation.
func buildReconvergent(t *testing.T, longLen int) (*netlist.Design, *netlist.Instance) {
	t.Helper()
	l := lib(t)
	d := netlist.New("reconv", l)
	d.AddPort("in", netlist.DirInput)
	d.AddPort("clk", netlist.DirInput)
	d.AddPort("out", netlist.DirOutput)
	clk := d.NetByName("clk")
	ff1, _ := d.AddInstance("ff1", l.Cell("DFF_X1_L"))
	ff2, _ := d.AddInstance("ff2", l.Cell("DFF_X1_L"))
	d.Connect(ff1, "D", d.NetByName("in"))
	d.Connect(ff1, "CK", clk)
	d.Connect(ff2, "CK", clk)
	q, _ := d.AddNet("q")
	d.Connect(ff1, "Q", q)
	// Long arm.
	prev := q
	for i := 0; i < longLen; i++ {
		inv, _ := d.NewInstanceAuto("long", l.Cell("INV_X1_L"))
		d.Connect(inv, "A", prev)
		n := d.NewNetAuto("ln")
		d.Connect(inv, "ZN", n)
		inv.Pos, inv.Placed = geom.Pt(float64(i), 0), true
		prev = n
	}
	longEnd := prev
	// Short arm: one buffer.
	sb, _ := d.AddInstance("short", l.Cell("BUF_X2_L"))
	d.Connect(sb, "A", q)
	shortEnd, _ := d.AddNet("sn")
	d.Connect(sb, "Z", shortEnd)
	sb.Pos, sb.Placed = geom.Pt(1, 2), true
	// Reconverge.
	nd, _ := d.AddInstance("join", l.Cell("NAND2_X1_L"))
	d.Connect(nd, "A", longEnd)
	d.Connect(nd, "B", shortEnd)
	dn, _ := d.AddNet("dn")
	d.Connect(nd, "ZN", dn)
	d.Connect(ff2, "D", dn)
	q2, _ := d.AddNet("q2")
	d.Connect(ff2, "Q", q2)
	ob, _ := d.AddInstance("ob", l.Cell("BUF_X2_L"))
	d.Connect(ob, "A", q2)
	d.Connect(ob, "Z", d.NetByName("out"))
	ff1.Pos, ff1.Placed = geom.Pt(0, 1), true
	ff2.Pos, ff2.Placed = geom.Pt(float64(longLen), 1), true
	nd.Pos, nd.Placed = geom.Pt(float64(longLen)-1, 1), true
	ob.Pos, ob.Placed = geom.Pt(float64(longLen)+1, 1), true
	return d, nd
}

func TestReconvergenceMaxMin(t *testing.T) {
	d, join := buildReconvergent(t, 12)
	r, err := Analyze(d, cfg(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	out := join.OutputNet()
	// Max arrival must exceed min arrival at the join: the two arms have
	// very different depths.
	if amax, amin, _ := r.Arrival(out); !(amax > amin+0.1) {
		t.Errorf("max %v vs min %v at reconvergence — arms not separated", amax, amin)
	}
	// Worst path must go down the long arm.
	paths := r.WorstPaths(1)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	longCount := 0
	for _, s := range paths[0].Steps {
		if s.Inst != nil && len(s.Inst.Name) >= 4 && s.Inst.Name[:4] == "long" {
			longCount++
		}
	}
	if longCount < 10 {
		t.Errorf("worst path only visits %d long-arm cells", longCount)
	}
}

func TestRequiredTimesConsistent(t *testing.T) {
	d, _ := buildReconvergent(t, 8)
	r, err := Analyze(d, cfg(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	// For every constrained net, required ≥ arrival − |WNS| (slack can't
	// be worse than the worst slack).
	for _, n := range d.Nets() {
		req, ok := r.Required(n)
		if !ok {
			continue
		}
		arr, _, ok := r.Arrival(n)
		if !ok {
			continue
		}
		slack := req - arr
		if slack < r.WNS-1e-9 {
			t.Fatalf("net %s slack %v below WNS %v", n.Name, slack, r.WNS)
		}
	}
}

func TestUnconstrainedNetsInfiniteSlack(t *testing.T) {
	l := lib(t)
	d := netlist.New("uncon", l)
	d.AddPort("clk", netlist.DirInput)
	// A gate driven by nothing constrained, feeding nothing constrained.
	a, _ := d.AddNet("a")
	g, _ := d.AddInstance("g", l.Cell("INV_X1_L"))
	d.Connect(g, "A", a)
	o, _ := d.AddNet("o")
	d.Connect(g, "ZN", o)
	r, err := Analyze(d, cfg(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(r.Slack(o), 1) {
		t.Errorf("unconstrained net slack = %v, want +Inf", r.Slack(o))
	}
	if !math.IsInf(r.InstSlack(g), 1) {
		t.Error("unconstrained instance should have infinite slack")
	}
	// No endpoints: WNS defaults to the period (trivially met).
	if r.WNS < 0 {
		t.Errorf("WNS = %v for an unconstrained design", r.WNS)
	}
}

func TestHolderLoadSlowsMTNet(t *testing.T) {
	// A holder on a net adds pin capacitance and must reduce slack —
	// the STA-visible cost of the paper's output holders.
	d := buildPipe(t, 8, liberty.FlavorLVT)
	r1, err := Analyze(d, cfg(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	l := lib(t)
	q1 := d.NetByName("q1")
	h, _ := d.NewInstanceAuto("hold", l.Holder())
	if err := d.Connect(h, "A", q1); err != nil {
		t.Fatal(err)
	}
	h.Pos, h.Placed = geom.Pt(5, 5), true
	r2, err := Analyze(d, cfg(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !(r2.WNS < r1.WNS) {
		t.Errorf("holder load did not slow the path: %v vs %v", r2.WNS, r1.WNS)
	}
}

func TestClockPortNotADataArrival(t *testing.T) {
	d := buildPipe(t, 4, liberty.FlavorLVT)
	r, err := Analyze(d, cfg(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	clk := d.NetByName("clk")
	if _, _, ok := r.Arrival(clk); ok {
		t.Error("clock net must not carry a data arrival")
	}
}
