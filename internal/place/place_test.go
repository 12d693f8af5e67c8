package place

import (
	"math/rand"
	"testing"

	"selectivemt/internal/geom"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/tech"
)

var sharedLib *liberty.Library

func lib(t *testing.T) *liberty.Library {
	t.Helper()
	if sharedLib == nil {
		proc := tech.Default130()
		l, err := liberty.Generate(proc, liberty.DefaultBuildOptions(proc))
		if err != nil {
			t.Fatal(err)
		}
		sharedLib = l
	}
	return sharedLib
}

func opts(t *testing.T) Options {
	proc := tech.Default130()
	return DefaultOptions(proc.RowHeightUm, proc.SitePitchUm)
}

// buildRandomDesign creates a connected random DAG of nGates gates.
func buildRandomDesign(t *testing.T, nGates int, seed int64) *netlist.Design {
	t.Helper()
	l := lib(t)
	rng := rand.New(rand.NewSource(seed))
	d := netlist.New("rand", l)
	d.AddPort("in0", netlist.DirInput)
	d.AddPort("in1", netlist.DirInput)
	live := []*netlist.Net{d.NetByName("in0"), d.NetByName("in1")}
	cells := []string{"INV_X1_L", "NAND2_X1_L", "NOR2_X1_L", "BUF_X2_L"}
	for i := 0; i < nGates; i++ {
		c := l.Cell(cells[rng.Intn(len(cells))])
		g, _ := d.NewInstanceAuto("g", c)
		for _, in := range c.Inputs() {
			d.Connect(g, in.Name, live[rng.Intn(len(live))])
		}
		out := d.NewNetAuto("n")
		d.Connect(g, c.Output().Name, out)
		live = append(live, out)
	}
	d.AddPort("out", netlist.DirOutput)
	last, _ := d.NewInstanceAuto("g", l.Cell("BUF_X2_L"))
	d.Connect(last, "A", live[len(live)-1])
	outNet := d.NetByName("out")
	// Rewire: buffer drives the out net.
	d.Connect(last, "Z", outNet)
	return d
}

func TestPlaceBasics(t *testing.T) {
	d := buildRandomDesign(t, 200, 3)
	res, err := Place(d, opts(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Core.Area() <= 0 {
		t.Fatal("empty core")
	}
	// Every instance placed inside the core.
	for _, inst := range d.Instances() {
		if !inst.Placed {
			t.Fatalf("%s not placed", inst.Name)
		}
		if !res.Core.Expand(1e-6).Contains(inst.Pos) {
			t.Fatalf("%s at %v outside core %v", inst.Name, inst.Pos, res.Core)
		}
	}
	// Ports pinned on the boundary.
	for _, p := range d.Ports() {
		if !p.Placed {
			t.Fatalf("port %s not placed", p.Name)
		}
	}
	if res.HPWL <= 0 {
		t.Error("zero HPWL")
	}
	// Core area should reflect the utilization target.
	util := d.TotalArea() / res.Core.Area()
	if util < 0.3 || util > 0.95 {
		t.Errorf("utilization %v far from target", util)
	}
}

func TestPlaceImprovesOverRandom(t *testing.T) {
	d := buildRandomDesign(t, 300, 7)
	o := opts(t)
	o.Iterations = 1
	if _, err := Place(d, o); err != nil {
		t.Fatal(err)
	}
	oneIter := HPWL(d)
	d2 := buildRandomDesign(t, 300, 7)
	o2 := opts(t)
	o2.Iterations = 30
	if _, err := Place(d2, o2); err != nil {
		t.Fatal(err)
	}
	manyIter := HPWL(d2)
	if manyIter >= oneIter {
		t.Errorf("more iterations did not reduce HPWL: %v vs %v", manyIter, oneIter)
	}
}

func TestPlaceRowsAligned(t *testing.T) {
	d := buildRandomDesign(t, 120, 5)
	o := opts(t)
	if _, err := Place(d, o); err != nil {
		t.Fatal(err)
	}
	for _, inst := range d.Instances() {
		// y must sit at a row center.
		rel := (inst.Pos.Y - d.Core.Lo.Y - o.RowHeightUm/2) / o.RowHeightUm
		if diff := rel - float64(int(rel+0.5)); diff > 1e-6 && diff < -1e-6 {
			t.Fatalf("%s y=%v not row aligned", inst.Name, inst.Pos.Y)
		}
	}
}

func TestPlaceValidation(t *testing.T) {
	d := buildRandomDesign(t, 10, 1)
	bad := opts(t)
	bad.RowHeightUm = 0
	if _, err := Place(d, bad); err == nil {
		t.Error("zero row height accepted")
	}
	bad2 := opts(t)
	bad2.TargetUtil = 1.5
	if _, err := Place(d, bad2); err == nil {
		t.Error("util > 1 accepted")
	}
	empty := netlist.New("empty", lib(t))
	if _, err := Place(empty, opts(t)); err == nil {
		t.Error("empty design accepted")
	}
}

func TestNetHPWL(t *testing.T) {
	l := lib(t)
	d := netlist.New("h", l)
	n, _ := d.AddNet("n")
	a, _ := d.AddInstance("a", l.Cell("INV_X1_L"))
	b, _ := d.AddInstance("b", l.Cell("INV_X1_L"))
	d.Connect(a, "ZN", n)
	d.Connect(b, "A", n)
	a.Pos, a.Placed = geom.Pt(0, 0), true
	b.Pos, b.Placed = geom.Pt(3, 4), true
	if got := NetHPWL(n); got != 7 {
		t.Errorf("NetHPWL = %v, want 7", got)
	}
	// Single endpoint → 0.
	d.Disconnect(b, "A")
	if got := NetHPWL(n); got != 0 {
		t.Errorf("single-endpoint HPWL = %v", got)
	}
}

func TestPlaceNear(t *testing.T) {
	d := buildRandomDesign(t, 80, 9)
	o := opts(t)
	if _, err := Place(d, o); err != nil {
		t.Fatal(err)
	}
	sw, _ := d.AddInstance("sw", lib(t).SwitchCells()[0])
	target := d.Core.Center()
	PlaceNear(d, sw, target, o)
	if !sw.Placed {
		t.Fatal("not placed")
	}
	if sw.Pos.Manhattan(target) > o.RowHeightUm+o.SitePitchUm {
		t.Errorf("placed %v, far from target %v", sw.Pos, target)
	}
	if !d.Core.Contains(sw.Pos) {
		t.Error("placed outside core")
	}
	// Out-of-core target clamps.
	PlaceNear(d, sw, geom.Pt(-100, -100), o)
	if !d.Core.Contains(sw.Pos) {
		t.Error("clamp failed")
	}
}

func TestEndpointPositions(t *testing.T) {
	d := buildRandomDesign(t, 30, 13)
	if _, err := Place(d, opts(t)); err != nil {
		t.Fatal(err)
	}
	for _, n := range d.Nets() {
		pts := EndpointPositions(n)
		if n.Degree() >= 2 && len(pts) < 2 {
			t.Fatalf("net %s: %d endpoints located, degree %d", n.Name, len(pts), n.Degree())
		}
	}
}

func TestConnectedCellsAreClose(t *testing.T) {
	// Locality sanity: average connected-pair distance must be well below
	// the core diagonal (this is what the clustering step relies on).
	d := buildRandomDesign(t, 400, 21)
	res, err := Place(d, opts(t))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	var n int
	for _, net := range d.Nets() {
		pts := EndpointPositions(net)
		for i := 1; i < len(pts); i++ {
			sum += pts[0].Manhattan(pts[i])
			n++
		}
	}
	avg := sum / float64(n)
	diag := res.Core.W() + res.Core.H()
	if avg > diag/2.5 {
		t.Errorf("avg connected distance %v vs core half-perimeter %v: no locality", avg, diag)
	}
}

// TestNetCenterMatchesCentroid: the in-place net center equals
// geom.Centroid of the collected endpoint positions bit for bit, and it
// allocates nothing.
func TestNetCenterMatchesCentroid(t *testing.T) {
	d := buildRandomDesign(t, 200, 3)
	if _, err := Place(d, opts(t)); err != nil {
		t.Fatal(err)
	}
	nets := d.Nets()
	for _, n := range nets {
		var pts []geom.Point
		for _, r := range append([]netlist.PinRef{n.Driver}, n.Sinks...) {
			if p, ok := endpointPos(r); ok {
				pts = append(pts, p)
			}
		}
		got, ok := netCenter(n)
		if ok != (len(pts) > 0) || got != geom.Centroid(pts) {
			t.Fatalf("net %s: center %v (%v), centroid of %d endpoints %v", n.Name, got, ok, len(pts), geom.Centroid(pts))
		}
	}
	if a := testing.AllocsPerRun(10, func() {
		for _, n := range nets {
			netCenter(n)
		}
	}); a != 0 {
		t.Errorf("netCenter allocates %v per sweep, want 0", a)
	}
}
