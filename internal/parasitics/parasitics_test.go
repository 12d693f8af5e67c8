package parasitics

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"selectivemt/internal/geom"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/route"
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

// fanoutNet builds a placed net: drv at origin driving k INV sinks.
func fanoutNet(t *testing.T, k int) (*netlist.Design, *netlist.Net) {
	t.Helper()
	l := lib(t)
	d := netlist.New("n", l)
	n, _ := d.AddNet("w")
	drv, _ := d.AddInstance("drv", l.Cell("BUF_X2_L"))
	d.Connect(drv, "Z", n)
	drv.Pos, drv.Placed = geom.Pt(0, 0), true
	for i := 0; i < k; i++ {
		s, _ := d.NewInstanceAuto("s", l.Cell("INV_X1_L"))
		d.Connect(s, "A", n)
		s.Pos, s.Placed = geom.Pt(float64(10*(i+1)), float64(5*i)), true
	}
	return d, n
}

func TestElmoreHandChain(t *testing.T) {
	// root -R1=2- n1(C=1) -R2=3- n2(C=2): delay(n1)=2*3=6, delay(n2)=6+3*2=12.
	tr := &RCTree{
		NetName:  "x",
		NodeName: []string{"x:0", "x:1", "x:2"},
		Parent:   []int{-1, 0, 1},
		RkOhm:    []float64{0, 2, 3},
		CapPF:    []float64{0, 1, 2},
		SinkNode: []int{2},
	}
	d := tr.ElmoreDelays()
	if math.Abs(d[1]-6) > 1e-12 || math.Abs(d[2]-12) > 1e-12 {
		t.Errorf("elmore = %v", d)
	}
	if got := tr.SinkDelays(); len(got) != 1 || math.Abs(got[0]-12) > 1e-12 {
		t.Errorf("sink delays = %v", got)
	}
	if tr.TotalCap() != 3 {
		t.Errorf("total cap = %v", tr.TotalCap())
	}
	if tr.MaxResistanceToSink() != 5 {
		t.Errorf("max R = %v", tr.MaxResistanceToSink())
	}
}

func TestEstimateExtractor(t *testing.T) {
	proc := tech.Default130()
	d, n := fanoutNet(t, 3)
	_ = d
	ex := &EstimateExtractor{Proc: proc}
	tr := ex.Extract(n)
	if len(tr.SinkNode) != 3 {
		t.Fatalf("sinks = %d", len(tr.SinkNode))
	}
	// Total cap ≥ sum of pin caps.
	var pins float64
	for _, s := range n.Sinks {
		pins += s.Inst.Cell.Pin(s.Pin).CapPF
	}
	if tr.TotalCap() < pins {
		t.Errorf("total cap %v below pin cap %v", tr.TotalCap(), pins)
	}
	// Farther sink has larger delay.
	delays := tr.SinkDelays()
	if !(delays[2] > delays[0]) {
		t.Errorf("delays not ordered by distance: %v", delays)
	}
}

func TestSteinerExtractorMatchesTopology(t *testing.T) {
	proc := tech.Default130()
	d, n := fanoutNet(t, 4)
	_ = d
	ex := &SteinerExtractor{Proc: proc}
	tr := ex.Extract(n)
	if len(tr.SinkNode) != 4 {
		t.Fatalf("sinks = %d", len(tr.SinkNode))
	}
	for _, dly := range tr.SinkDelays() {
		if dly <= 0 {
			t.Errorf("non-positive sink delay %v", dly)
		}
	}
	// Post-route wire cap should correspond to the Steiner length.
	var pinsum float64
	for _, s := range n.Sinks {
		pinsum += s.Inst.Cell.Pin(s.Pin).CapPF
	}
	wireCap := tr.TotalCap() - pinsum
	pts := endpointPoints(n)
	length := route.Steiner(pts).Length()
	if math.Abs(wireCap-proc.WireCap(length)) > 1e-9 {
		t.Errorf("wire cap %v vs expected %v", wireCap, proc.WireCap(length))
	}
}

func TestSteinerExtractorFallsBackWhenUnplaced(t *testing.T) {
	proc := tech.Default130()
	d, n := fanoutNet(t, 2)
	// Unplace one sink.
	n.Sinks[0].Inst.Placed = false
	_ = d
	ex := &SteinerExtractor{Proc: proc}
	tr := ex.Extract(n)
	if len(tr.SinkNode) != len(n.Sinks) {
		t.Fatalf("fallback must keep SinkNode parallel to Sinks: %d vs %d",
			len(tr.SinkNode), len(n.Sinks))
	}
}

func TestTrunkNetsRouteAsTrunk(t *testing.T) {
	proc := tech.Default130()
	d, n := fanoutNet(t, 5)
	_ = d
	n.IsVGND = true
	ex := &SteinerExtractor{Proc: proc, TrunkNets: func(net *netlist.Net) bool { return net.IsVGND }}
	tr := ex.Extract(n)
	if tr.TotalCap() <= 0 {
		t.Error("empty trunk extraction")
	}
}

func TestSPEFRoundTrip(t *testing.T) {
	proc := tech.Default130()
	d, n := fanoutNet(t, 4)
	_ = d
	ex := &SteinerExtractor{Proc: proc}
	tr := ex.Extract(n)
	var buf bytes.Buffer
	if err := WriteSPEF(&buf, "testdesign", []*RCTree{tr}); err != nil {
		t.Fatal(err)
	}
	spef, err := ParseSPEF(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	if spef.Design != "testdesign" {
		t.Errorf("design = %q", spef.Design)
	}
	got := spef.Net("w")
	if got == nil {
		t.Fatal("net w missing")
	}
	if math.Abs(got.TotalCap()-tr.TotalCap()) > 1e-12 {
		t.Errorf("total cap %v != %v", got.TotalCap(), tr.TotalCap())
	}
	// Elmore delays to every node must match (the tree may be re-indexed
	// but root-to-leaf structure is preserved). Compare the multiset of
	// node delays.
	a := tr.ElmoreDelays()
	b := got.ElmoreDelays()
	if len(a) != len(b) {
		t.Fatalf("node counts differ: %d vs %d", len(a), len(b))
	}
	suma, sumb := 0.0, 0.0
	maxa, maxb := 0.0, 0.0
	for i := range a {
		suma += a[i]
		sumb += b[i]
		maxa = math.Max(maxa, a[i])
		maxb = math.Max(maxb, b[i])
	}
	if math.Abs(suma-sumb) > 1e-9 || math.Abs(maxa-maxb) > 1e-9 {
		t.Errorf("elmore profile differs: sum %v vs %v, max %v vs %v", suma, sumb, maxa, maxb)
	}
	if spef.Net("nope") != nil {
		t.Error("unknown net should be nil")
	}
}

func TestParseSPEFErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"data outside net", "1 a:1 0.5\n"},
		{"bad cap", "*D_NET x 1\n*CAP\n1 x:1\n*END\n"},
		{"bad res", "*D_NET x 1\n*RES\n1 x:0 x:1\n*END\n"},
		{"bad number", "*D_NET x 1\n*CAP\n1 x:1 zz\n*END\n"},
		{"disconnected", "*D_NET x 1\n*CAP\n1 x:5 0.5\n*END\n"},
	}
	for _, c := range cases {
		if _, err := ParseSPEF(bytes.NewReader([]byte(c.src))); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestParseSPEFNamesFirstDisconnectedNode: with two nodes cut off from
// the root, the error names the first of them in file order, every time.
func TestParseSPEFNamesFirstDisconnectedNode(t *testing.T) {
	src := "*D_NET x 1\n*CAP\n1 x:1 0.5\n2 x:7 0.1\n3 x:3 0.2\n*RES\n1 x:0 x:1 0.1\n2 x:3 x:7 0.1\n*END\n"
	for i := 0; i < 20; i++ {
		_, err := ParseSPEF(strings.NewReader(src))
		if err == nil || !strings.Contains(err.Error(), "node x:7 not connected") {
			t.Fatalf("run %d: error %v, want one naming x:7", i, err)
		}
	}
}

func TestElmoreMonotoneAlongPath(t *testing.T) {
	proc := tech.Default130()
	d, n := fanoutNet(t, 6)
	_ = d
	tr := (&SteinerExtractor{Proc: proc}).Extract(n)
	delays := tr.ElmoreDelays()
	for i := 1; i < len(delays); i++ {
		if delays[i] < delays[tr.Parent[i]]-1e-15 {
			t.Fatalf("delay decreases downstream at node %d", i)
		}
	}
}
