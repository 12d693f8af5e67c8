package netlist

import (
	"fmt"
	"math/rand"
	"testing"

	"selectivemt/internal/liberty"
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

// buildChain constructs in→INV→NAND2(with in2)→out.
func buildChain(t *testing.T) (*Design, *Instance, *Instance) {
	t.Helper()
	d := New("chain", lib(t))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := d.AddPort("in", DirInput)
	must(err)
	_, err = d.AddPort("in2", DirInput)
	must(err)
	_, err = d.AddPort("out", DirOutput)
	must(err)
	mid, err := d.AddNet("mid")
	must(err)
	inv, err := d.AddInstance("u_inv", lib(t).Cell("INV_X1_L"))
	must(err)
	nd, err := d.AddInstance("u_nand", lib(t).Cell("NAND2_X1_L"))
	must(err)
	must(d.Connect(inv, "A", d.NetByName("in")))
	must(d.Connect(inv, "ZN", mid))
	must(d.Connect(nd, "A", mid))
	must(d.Connect(nd, "B", d.NetByName("in2")))
	must(d.Connect(nd, "ZN", d.NetByName("out")))
	return d, inv, nd
}

func TestBuildAndValidate(t *testing.T) {
	d, _, _ := buildChain(t)
	if err := d.Validate(StrictValidate()); err != nil {
		t.Fatal(err)
	}
	if d.NumInstances() != 2 || d.NumNets() != 4 {
		t.Errorf("counts: %d insts %d nets", d.NumInstances(), d.NumNets())
	}
	if d.TotalArea() <= 0 {
		t.Error("area should be positive")
	}
}

func TestDuplicateErrors(t *testing.T) {
	d := New("dup", lib(t))
	if _, err := d.AddPort("p", DirInput); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("p", DirInput); err == nil {
		t.Error("duplicate port accepted")
	}
	if _, err := d.AddNet("p"); err == nil {
		t.Error("net name clashing with port net accepted")
	}
	if _, err := d.AddInstance("i", lib(t).Cell("INV_X1_L")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddInstance("i", lib(t).Cell("INV_X1_L")); err == nil {
		t.Error("duplicate instance accepted")
	}
	if _, err := d.AddInstance("j", nil); err == nil {
		t.Error("nil cell accepted")
	}
}

func TestSingleDriverEnforced(t *testing.T) {
	d := New("drv", lib(t))
	n, _ := d.AddNet("n")
	a, _ := d.AddInstance("a", lib(t).Cell("INV_X1_L"))
	b, _ := d.AddInstance("b", lib(t).Cell("INV_X1_L"))
	if err := d.Connect(a, "ZN", n); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(b, "ZN", n); err == nil {
		t.Error("second driver accepted")
	}
	// Input port on a driven net must also fail.
	if _, err := d.AddPort("n", DirInput); err == nil {
		t.Error("input port on driven net accepted")
	}
}

func TestConnectErrors(t *testing.T) {
	d := New("c", lib(t))
	n, _ := d.AddNet("n")
	a, _ := d.AddInstance("a", lib(t).Cell("INV_X1_L"))
	if err := d.Connect(a, "NOPE", n); err == nil {
		t.Error("nonexistent pin accepted")
	}
	if err := d.Connect(a, "A", n); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(a, "A", n); err == nil {
		t.Error("double connection accepted")
	}
}

func TestDisconnectAndRemove(t *testing.T) {
	d, inv, _ := buildChain(t)
	if err := d.Disconnect(inv, "A"); err != nil {
		t.Fatal(err)
	}
	if inv.Net("A") != nil {
		t.Error("pin still connected")
	}
	in := d.NetByName("in")
	if len(in.Sinks) != 0 {
		t.Error("sink not removed from net")
	}
	if err := d.Disconnect(inv, "A"); err == nil {
		t.Error("double disconnect accepted")
	}
	if err := d.RemoveInstance(inv); err != nil {
		t.Fatal(err)
	}
	if d.Instance("u_inv") != nil {
		t.Error("instance still present")
	}
	mid := d.NetByName("mid")
	if mid.HasDriver() {
		t.Error("driver not cleared by RemoveInstance")
	}
	// Validate must now fail (nand input undriven) unless allowed.
	if err := d.Validate(StrictValidate()); err == nil {
		t.Error("undriven net not caught")
	}
	if err := d.Validate(ValidateOptions{AllowUndrivenNets: true}); err != nil {
		t.Errorf("allowed undriven nets still fail: %v", err)
	}
}

func TestRemoveNet(t *testing.T) {
	d := New("rn", lib(t))
	n, _ := d.AddNet("n")
	a, _ := d.AddInstance("a", lib(t).Cell("INV_X1_L"))
	d.Connect(a, "A", n)
	if err := d.RemoveNet(n); err == nil {
		t.Error("connected net removed")
	}
	d.Disconnect(a, "A")
	if err := d.RemoveNet(n); err != nil {
		t.Fatal(err)
	}
	if d.NetByName("n") != nil {
		t.Error("net still present")
	}
}

// TestRemoveThenReAddListsOnce: removing an instance or a net and adding
// its name again lists the new element once, at the end of insertion
// order, in iteration, TotalArea, Fingerprint and Clone.
func TestRemoveThenReAddListsOnce(t *testing.T) {
	d, inv, _ := buildChain(t)
	inv2 := lib(t).Cell("INV_X1_L")
	if err := d.RemoveInstance(inv); err != nil {
		t.Fatal(err)
	}
	re, err := d.AddInstance("u_inv", inv2)
	if err != nil {
		t.Fatal(err)
	}
	mid := d.NetByName("mid")
	if err := d.Disconnect(d.Instance("u_nand"), "A"); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveNet(mid); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddNet("mid"); err != nil {
		t.Fatal(err)
	}

	// A design built in the final insertion order from the start.
	want := New("chain", lib(t))
	for _, p := range []struct {
		name string
		dir  Dir
	}{{"in", DirInput}, {"in2", DirInput}, {"out", DirOutput}} {
		if _, err := want.AddPort(p.name, p.dir); err != nil {
			t.Fatal(err)
		}
	}
	nd, _ := want.AddInstance("u_nand", lib(t).Cell("NAND2_X1_L"))
	want.AddInstance("u_inv", inv2)
	want.AddNet("mid")
	want.Connect(nd, "B", want.NetByName("in2"))
	want.Connect(nd, "ZN", want.NetByName("out"))

	names := func(d *Design) (insts, nets []string) {
		for _, i := range d.Instances() {
			insts = append(insts, i.Name)
		}
		for _, n := range d.Nets() {
			nets = append(nets, n.Name)
		}
		return insts, nets
	}
	for _, c := range []struct {
		name string
		d    *Design
	}{{"design", d}, {"clone", d.Clone()}} {
		gi, gn := names(c.d)
		wi, wn := names(want)
		if fmt.Sprint(gi) != fmt.Sprint(wi) || fmt.Sprint(gn) != fmt.Sprint(wn) {
			t.Errorf("%s: instances %v nets %v, want %v and %v", c.name, gi, gn, wi, wn)
		}
		if c.d.NumInstances() != len(gi) || c.d.NumNets() != len(gn) {
			t.Errorf("%s: counts %d/%d, iteration %d/%d", c.name, c.d.NumInstances(), c.d.NumNets(), len(gi), len(gn))
		}
		if got, w := c.d.TotalArea(), want.TotalArea(); got != w {
			t.Errorf("%s: total area %v, want %v", c.name, got, w)
		}
		if c.d.Fingerprint() != want.Fingerprint() {
			t.Errorf("%s: fingerprint differs from a design built in the same order", c.name)
		}
	}
	if d.Instance("u_inv") != re {
		t.Error("lookup does not return the re-added instance")
	}
}

func TestReplaceCellVariants(t *testing.T) {
	d, inv, nand := buildChain(t)
	l := lib(t)
	// LVT → HVT swap.
	if err := d.ReplaceCell(inv, l.Cell("INV_X1_H")); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(StrictValidate()); err != nil {
		t.Fatal(err)
	}
	// LVT → MT-without-VGND swap.
	if err := d.ReplaceCell(nand, l.Cell("NAND2_X1_MN")); err != nil {
		t.Fatal(err)
	}
	// MN → MV swap adds a floating VGND pin: pre-MT validation accepts it.
	if err := d.ReplaceCell(nand, l.Cell("NAND2_X1_MV")); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(PreMTValidate()); err != nil {
		t.Fatal(err)
	}
	// Swapping to a cell lacking a connected pin must fail.
	if err := d.ReplaceCell(nand, l.Cell("INV_X1_L")); err == nil {
		t.Error("incompatible swap accepted")
	}
}

func TestInsertBuffer(t *testing.T) {
	d := New("buf", lib(t))
	l := lib(t)
	d.AddPort("in", DirInput)
	drv, _ := d.AddInstance("drv", l.Cell("INV_X1_L"))
	d.Connect(drv, "A", d.NetByName("in"))
	n, _ := d.AddNet("n")
	d.Connect(drv, "ZN", n)
	var sinks []*Instance
	for i := 0; i < 4; i++ {
		s, _ := d.NewInstanceAuto("sink", l.Cell("INV_X1_L"))
		d.Connect(s, "A", n)
		out := d.NewNetAuto("o")
		d.Connect(s, "ZN", out)
		sinks = append(sinks, s)
	}
	// Move the last two sinks behind a buffer.
	moved := []PinRef{{Inst: sinks[2], Pin: "A"}, {Inst: sinks[3], Pin: "A"}}
	buf, err := d.InsertBuffer(n, l.Cell("BUF_X2_L"), moved)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(StrictValidate()); err != nil {
		t.Fatal(err)
	}
	if len(n.Sinks) != 3 { // 2 remaining sinks + buffer input
		t.Errorf("net n has %d sinks, want 3", len(n.Sinks))
	}
	bufOut := buf.OutputNet()
	if bufOut == nil || len(bufOut.Sinks) != 2 {
		t.Errorf("buffer output sinks wrong: %+v", bufOut)
	}
	// Errors: empty sink list, foreign sink, non-buffer cell.
	if _, err := d.InsertBuffer(n, l.Cell("BUF_X2_L"), nil); err == nil {
		t.Error("empty sink list accepted")
	}
	if _, err := d.InsertBuffer(n, l.Cell("BUF_X2_L"), moved); err == nil {
		t.Error("sinks no longer on net accepted")
	}
	if _, err := d.InsertBuffer(n, l.Cell("NAND2_X1_L"), n.Sinks[:1]); err == nil {
		t.Error("non-buffer cell accepted")
	}
}

func TestTopoOrderChainAndDiamond(t *testing.T) {
	d, inv, nand := buildChain(t)
	order, err := d.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != inv || order[1] != nand {
		t.Errorf("order wrong: %v then %v", order[0].Name, order[1].Name)
	}
}

func TestTopoOrderFlopBoundary(t *testing.T) {
	// in → INV → DFF.D ; DFF.Q → INV2 → out. The two inverters have no
	// ordering constraint through the flop.
	d := New("seq", lib(t))
	l := lib(t)
	d.AddPort("in", DirInput)
	d.AddPort("clk", DirInput)
	d.AddPort("out", DirOutput)
	n1, _ := d.AddNet("n1")
	n2, _ := d.AddNet("n2")
	i1, _ := d.AddInstance("i1", l.Cell("INV_X1_L"))
	ff, _ := d.AddInstance("ff", l.Cell("DFF_X1_L"))
	i2, _ := d.AddInstance("i2", l.Cell("INV_X1_L"))
	d.Connect(i1, "A", d.NetByName("in"))
	d.Connect(i1, "ZN", n1)
	d.Connect(ff, "D", n1)
	d.Connect(ff, "CK", d.NetByName("clk"))
	d.Connect(ff, "Q", n2)
	d.Connect(i2, "A", n2)
	d.Connect(i2, "ZN", d.NetByName("out"))
	order, err := d.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 {
		t.Fatalf("order len %d", len(order))
	}
	// A sequential loop through a flop must not be reported as a cycle.
	d2 := New("loop", lib(t))
	d2.AddPort("clk", DirInput)
	q, _ := d2.AddNet("q")
	qb, _ := d2.AddNet("qb")
	ff2, _ := d2.AddInstance("ff", l.Cell("DFF_X1_L"))
	nv, _ := d2.AddInstance("inv", l.Cell("INV_X1_L"))
	d2.Connect(ff2, "CK", d2.NetByName("clk"))
	d2.Connect(ff2, "Q", q)
	d2.Connect(nv, "A", q)
	d2.Connect(nv, "ZN", qb)
	d2.Connect(ff2, "D", qb)
	if _, err := d2.TopoOrder(); err != nil {
		t.Errorf("flop feedback reported as combinational cycle: %v", err)
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	d := New("cyc", lib(t))
	l := lib(t)
	a, _ := d.AddNet("a")
	b, _ := d.AddNet("b")
	i1, _ := d.AddInstance("i1", l.Cell("INV_X1_L"))
	i2, _ := d.AddInstance("i2", l.Cell("INV_X1_L"))
	d.Connect(i1, "A", a)
	d.Connect(i1, "ZN", b)
	d.Connect(i2, "A", b)
	d.Connect(i2, "ZN", a)
	if _, err := d.TopoOrder(); err == nil {
		t.Error("combinational cycle not detected")
	}
}

func TestCloneDeepEquality(t *testing.T) {
	d, inv, _ := buildChain(t)
	inv.Pos.X, inv.Pos.Y, inv.Placed = 3, 4, true
	c := d.Clone()
	if err := c.Validate(StrictValidate()); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	if c.NumInstances() != d.NumInstances() || c.NumNets() != d.NumNets() {
		t.Fatal("clone counts differ")
	}
	ci := c.Instance("u_inv")
	if ci == inv {
		t.Fatal("clone shares instance pointers")
	}
	if ci.Pos != inv.Pos || !ci.Placed {
		t.Error("placement not cloned")
	}
	// Mutating the clone must not touch the original.
	c.ReplaceCell(ci, lib(t).Cell("INV_X1_H"))
	if inv.Cell.Name != "INV_X1_L" {
		t.Error("clone mutation leaked into original")
	}
	// Ports cloned with direction.
	if c.PortByName("out").Dir != DirOutput {
		t.Error("port direction lost")
	}
}

func TestValidateCatchesFloatingInput(t *testing.T) {
	d := New("v", lib(t))
	l := lib(t)
	a, _ := d.AddInstance("a", l.Cell("NAND2_X1_L"))
	n, _ := d.AddNet("n")
	d.Connect(a, "ZN", n)
	in, _ := d.AddNet("in")
	d.Connect(a, "A", in)
	if err := d.Validate(ValidateOptions{AllowUndrivenNets: true}); err == nil {
		t.Error("floating input B not caught")
	}
	opts := ValidateOptions{AllowUndrivenNets: true, AllowUnconnected: map[string]bool{"B": true}}
	if err := d.Validate(opts); err != nil {
		t.Errorf("allowed floating pin still fails: %v", err)
	}
}

func TestCountHelpers(t *testing.T) {
	d, _, _ := buildChain(t)
	fl := d.CountByFlavor()
	if fl[liberty.FlavorLVT] != 2 {
		t.Errorf("flavor counts: %v", fl)
	}
	kd := d.CountByKind()
	if kd[liberty.KindComb] != 2 {
		t.Errorf("kind counts: %v", kd)
	}
}

func TestPinRefString(t *testing.T) {
	d, inv, _ := buildChain(t)
	_ = d
	r := PinRef{Inst: inv, Pin: "A"}
	if r.String() != "u_inv.A" {
		t.Errorf("PinRef.String = %q", r.String())
	}
	if (PinRef{}).String() != "<nil>" {
		t.Error("zero PinRef should render <nil>")
	}
}

// TestRandomEditsPreserveInvariants performs a random walk of legal edits
// and checks Validate after each step — the invariant the whole flow
// depends on.
func TestRandomEditsPreserveInvariants(t *testing.T) {
	l := lib(t)
	rng := rand.New(rand.NewSource(11))
	d := New("rand", l)
	d.AddPort("in", DirInput)
	drv, _ := d.AddInstance("drv0", l.Cell("BUF_X2_L"))
	d.Connect(drv, "A", d.NetByName("in"))
	root, _ := d.AddNet("root")
	d.Connect(drv, "Z", root)
	live := []*Net{root}

	for step := 0; step < 200; step++ {
		switch rng.Intn(4) {
		case 0: // add a sink gate on a random live net
			n := live[rng.Intn(len(live))]
			g, _ := d.NewInstanceAuto("g", l.Cell("INV_X1_L"))
			if err := d.Connect(g, "A", n); err != nil {
				t.Fatal(err)
			}
			out := d.NewNetAuto("n")
			d.Connect(g, "ZN", out)
			live = append(live, out)
		case 1: // swap a random instance's flavor
			insts := d.Instances()
			inst := insts[rng.Intn(len(insts))]
			if inst.Cell.Kind != liberty.KindComb {
				continue
			}
			variants := []liberty.Flavor{liberty.FlavorLVT, liberty.FlavorHVT, liberty.FlavorMTNoVGND}
			v := l.Variant(inst.Cell, variants[rng.Intn(len(variants))])
			if v != nil {
				if err := d.ReplaceCell(inst, v); err != nil {
					t.Fatal(err)
				}
			}
		case 2: // buffer a heavily loaded net
			n := live[rng.Intn(len(live))]
			if len(n.Sinks) < 2 {
				continue
			}
			half := make([]PinRef, 0)
			for i, s := range n.Sinks {
				if i%2 == 0 && s.Inst != nil {
					half = append(half, s)
				}
			}
			if len(half) == 0 {
				continue
			}
			if _, err := d.InsertBuffer(n, l.Cell("BUF_X2_L"), half); err != nil {
				t.Fatal(err)
			}
		case 3: // remove a leaf instance (one whose output has no sinks)
			insts := d.Instances()
			inst := insts[rng.Intn(len(insts))]
			out := inst.OutputNet()
			if inst == drv || out == nil || len(out.Sinks) > 0 {
				continue
			}
			if err := d.RemoveInstance(inst); err != nil {
				t.Fatal(err)
			}
			for i, n := range live {
				if n == out {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		}
		if err := d.Validate(ValidateOptions{AllowUndrivenNets: true,
			AllowUnconnected: map[string]bool{"MTE": true, "VGND": true}}); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if _, err := d.TopoOrder(); err != nil {
		t.Fatal(err)
	}
}
