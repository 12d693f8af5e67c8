package sim

import (
	"math"
	"strings"
	"testing"

	"selectivemt/internal/liberty"
	"selectivemt/internal/logic"
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

// buildComb returns a design computing y = !(a & b).
func buildComb(t *testing.T) *netlist.Design {
	t.Helper()
	l := lib(t)
	d := netlist.New("comb", l)
	d.AddPort("a", netlist.DirInput)
	d.AddPort("b", netlist.DirInput)
	d.AddPort("y", netlist.DirOutput)
	g, _ := d.AddInstance("g", l.Cell("NAND2_X1_L"))
	d.Connect(g, "A", d.NetByName("a"))
	d.Connect(g, "B", d.NetByName("b"))
	d.Connect(g, "ZN", d.NetByName("y"))
	return d
}

func TestCombEval(t *testing.T) {
	d := buildComb(t)
	s, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ a, b, want logic.Value }{
		{logic.V0, logic.V0, logic.V1},
		{logic.V0, logic.V1, logic.V1},
		{logic.V1, logic.V0, logic.V1},
		{logic.V1, logic.V1, logic.V0},
		{logic.VX, logic.V1, logic.VX},
		{logic.V0, logic.VX, logic.V1}, // controlling input
	}
	for _, c := range cases {
		s.SetInput("a", c.a)
		s.SetInput("b", c.b)
		s.Eval()
		got, _ := s.PortValue("y")
		if got != c.want {
			t.Errorf("NAND(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestCloneNetsReadX: a clone's nets carry the netlist IDs of the
// original's, but the original's simulator has never seen them, so they
// read the constant X.
func TestCloneNetsReadX(t *testing.T) {
	d := buildComb(t)
	s, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	s.SetInput("a", logic.V0)
	s.SetInput("b", logic.V1)
	s.Eval()
	nets, c := d.Nets(), d.Clone()
	for i, n := range c.Nets() {
		orig := nets[i]
		if orig.ID() != n.ID() || s.Value(orig) == logic.VX {
			t.Fatalf("net %s: original ID %d reads %v, clone ID %d", n.Name, orig.ID(), s.Value(orig), n.ID())
		}
		if got := s.Value(n); got != logic.VX {
			t.Errorf("clone net %s reads %v, want X", n.Name, got)
		}
	}
}

func TestSetInputErrors(t *testing.T) {
	d := buildComb(t)
	s, _ := New(d)
	if err := s.SetInput("nope", logic.V0); err == nil {
		t.Error("unknown port accepted")
	}
	if err := s.SetInput("y", logic.V0); err == nil {
		t.Error("driving an output accepted")
	}
	if _, err := s.PortValue("nope"); err == nil {
		t.Error("unknown port value read accepted")
	}
}

// buildCounterBit builds a 1-bit toggle circuit: ff.Q -> INV -> ff.D.
func buildCounterBit(t *testing.T) *netlist.Design {
	t.Helper()
	l := lib(t)
	d := netlist.New("tff", l)
	d.AddPort("clk", netlist.DirInput)
	d.AddPort("q", netlist.DirOutput)
	qb, _ := d.AddNet("qb")
	ff, _ := d.AddInstance("ff", l.Cell("DFF_X1_L"))
	inv, _ := d.AddInstance("inv", l.Cell("INV_X1_L"))
	d.Connect(ff, "CK", d.NetByName("clk"))
	d.Connect(ff, "Q", d.NetByName("q"))
	d.Connect(inv, "A", d.NetByName("q"))
	d.Connect(inv, "ZN", qb)
	d.Connect(ff, "D", qb)
	return d
}

func TestSequentialStep(t *testing.T) {
	d := buildCounterBit(t)
	s, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	s.ResetState(logic.V0)
	s.Eval()
	want := logic.V0
	for i := 0; i < 6; i++ {
		got, _ := s.PortValue("q")
		if got != want {
			t.Fatalf("cycle %d: q = %v, want %v", i, got, want)
		}
		s.Step()
		want = want.Not()
	}
}

func TestEquivalentIdentical(t *testing.T) {
	a := buildComb(t)
	b := buildComb(t)
	eq, why, err := Equivalent(a, b, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("identical designs reported different: %s", why)
	}
}

func TestEquivalentAfterVthSwap(t *testing.T) {
	// The fundamental flow invariant: flavor swaps never change function.
	a := buildComb(t)
	b := buildComb(t)
	g := b.Instance("g")
	for _, fl := range []liberty.Flavor{liberty.FlavorHVT, liberty.FlavorMTNoVGND, liberty.FlavorMTConv} {
		v := lib(t).Variant(g.Cell, fl)
		if v == nil {
			t.Fatalf("no variant %s", fl)
		}
		if err := b.ReplaceCell(g, v); err != nil {
			t.Fatal(err)
		}
		eq, why, err := Equivalent(a, b, 30, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("after swap to %s: %s", fl, why)
		}
	}
}

func TestEquivalentCatchesDifference(t *testing.T) {
	a := buildComb(t)
	l := lib(t)
	b := netlist.New("comb", l)
	b.AddPort("a", netlist.DirInput)
	b.AddPort("b", netlist.DirInput)
	b.AddPort("y", netlist.DirOutput)
	g, _ := b.AddInstance("g", l.Cell("NOR2_X1_L")) // different function
	b.Connect(g, "A", b.NetByName("a"))
	b.Connect(g, "B", b.NetByName("b"))
	b.Connect(g, "ZN", b.NetByName("y"))
	eq, why, err := Equivalent(a, b, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Error("NAND vs NOR reported equivalent")
	}
	if why == "" {
		t.Error("mismatch reason empty")
	}
}

func TestEvalStandbyHolderSemantics(t *testing.T) {
	// a → MT-INV → n1 → HVT-INV → y. Gate the first inverter.
	l := lib(t)
	d := netlist.New("sb", l)
	d.AddPort("a", netlist.DirInput)
	d.AddPort("y", netlist.DirOutput)
	n1, _ := d.AddNet("n1")
	mt, _ := d.AddInstance("mt", l.Cell("INV_X1_MN"))
	hv, _ := d.AddInstance("hv", l.Cell("INV_X1_H"))
	d.Connect(mt, "A", d.NetByName("a"))
	d.Connect(mt, "ZN", n1)
	d.Connect(hv, "A", n1)
	d.Connect(hv, "ZN", d.NetByName("y"))
	s, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	s.SetInput("a", logic.V0)
	gated := func(i *netlist.Instance) bool { return i == mt }

	// Without a holder the MT output floats: downstream sees X.
	s.EvalStandby(gated, func(n *netlist.Net) bool { return false })
	if got := s.Value(n1); got != logic.VX {
		t.Errorf("floating MT output = %v, want X", got)
	}
	if got, _ := s.PortValue("y"); got != logic.VX {
		t.Errorf("downstream of floating net = %v, want X", got)
	}
	// With a holder the net holds 1 and downstream evaluates normally.
	s.EvalStandby(gated, func(n *netlist.Net) bool { return n == n1 })
	if got := s.Value(n1); got != logic.V1 {
		t.Errorf("held MT output = %v, want 1", got)
	}
	if got, _ := s.PortValue("y"); got != logic.V0 {
		t.Errorf("downstream of held net = %v, want 0", got)
	}
}

// TestEvalStandbyGatedFlopOneValue: a gated flop listed between two gates
// that read its output. Flops are sources, so the order keeps instance
// order here; both readers must see the forced value, not the first one
// the flop's state.
func TestEvalStandbyGatedFlopOneValue(t *testing.T) {
	l := lib(t)
	d := netlist.New("gff", l)
	d.AddPort("d", netlist.DirInput)
	d.AddPort("clk", netlist.DirInput)
	q, _ := d.AddNet("q")
	g1, _ := d.AddInstance("g1", l.Cell("INV_X1_L"))
	ff, _ := d.AddInstance("ff", l.Cell("DFF_X1_L"))
	g2, _ := d.AddInstance("g2", l.Cell("INV_X1_L"))
	o1, _ := d.AddNet("o1")
	o2, _ := d.AddNet("o2")
	for _, c := range []struct {
		inst *netlist.Instance
		pin  string
		net  *netlist.Net
	}{{g1, "A", q}, {g1, "ZN", o1}, {ff, "D", d.NetByName("d")}, {ff, "CK", d.NetByName("clk")},
		{ff, "Q", q}, {g2, "A", q}, {g2, "ZN", o2}} {
		if err := d.Connect(c.inst, c.pin, c.net); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Instances(); got[0] != g1 || got[1] != ff || got[2] != g2 {
		t.Fatalf("instance order %v, want g1 ff g2", got)
	}
	gated := func(i *netlist.Instance) bool { return i == ff }
	for _, c := range []struct {
		holder bool
		want   logic.Value // on both readers
	}{{false, logic.VX}, {true, logic.V0}} {
		s.ResetState(logic.V0)
		s.EvalStandby(gated, func(n *netlist.Net) bool { return c.holder && n == q })
		if v1, v2 := s.Value(o1), s.Value(o2); v1 != c.want || v2 != c.want {
			t.Errorf("holder %v: g1 = %v, g2 = %v, want both %v", c.holder, v1, v2, c.want)
		}
	}
}

func TestEstimateActivity(t *testing.T) {
	d := buildCounterBit(t)
	act, err := EstimateActivity(d, 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	q := d.NetByName("q")
	// A toggle flop switches every cycle.
	if act.Toggle[q] < 0.9 {
		t.Errorf("toggle rate of q = %v, want ≈1", act.Toggle[q])
	}
	if act.ProbOne[q] < 0.3 || act.ProbOne[q] > 0.7 {
		t.Errorf("P(1) of q = %v, want ≈0.5", act.ProbOne[q])
	}
	if act.Cycles <= 0 {
		t.Error("no cycles counted")
	}
}

func TestActivityCombinational(t *testing.T) {
	d := buildComb(t)
	act, err := EstimateActivity(d, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	y := d.NetByName("y")
	// NAND output is 1 with p=3/4 under random inputs.
	if act.ProbOne[y] < 0.6 || act.ProbOne[y] > 0.9 {
		t.Errorf("P(y=1) = %v, want ≈0.75", act.ProbOne[y])
	}
	if act.Toggle[y] <= 0 || act.Toggle[y] >= 1 {
		t.Errorf("toggle = %v", act.Toggle[y])
	}
}

func TestInstanceInputState(t *testing.T) {
	d := buildComb(t)
	s, _ := New(d)
	s.SetInput("a", logic.V1)
	s.SetInput("b", logic.V0)
	s.Eval()
	env := s.InstanceInputState(d.Instance("g"))
	if env["A"] != logic.V1 || env["B"] != logic.V0 {
		t.Errorf("env = %v", env)
	}
}

// TestDataInputNamedClkToggles: a data port named clk is stimulated like
// any other input; only a port whose net reaches a clock pin is the clock.
func TestDataInputNamedClkToggles(t *testing.T) {
	l := lib(t)
	d := netlist.New("clk_data", l)
	d.AddPort("clk", netlist.DirInput)
	d.AddPort("y", netlist.DirOutput)
	g, _ := d.AddInstance("g", l.Cell("INV_X1_L"))
	d.Connect(g, "A", d.NetByName("clk"))
	d.Connect(g, "ZN", d.NetByName("y"))
	if got := InputNames(d); len(got) != 1 || got[0] != "clk" {
		t.Fatalf("InputNames = %v, want [clk]", got)
	}
	act, err := EstimateActivity(d, 96, 3)
	if err != nil {
		t.Fatal(err)
	}
	if act.Toggle[d.NetByName("y")] == 0 {
		t.Error("a data input named clk got no stimulus")
	}
}

// TestInputNamesSkipsClockAndEnable: the clock is recognized through a
// clock buffer's A pin and the sleep enable through an enable pin, under
// any names.
func TestInputNamesSkipsClockAndEnable(t *testing.T) {
	l := lib(t)
	d := netlist.New("named", l)
	for _, p := range []string{"d", "ck_in", "sleep"} {
		d.AddPort(p, netlist.DirInput)
	}
	d.AddPort("q", netlist.DirOutput)
	ckb, _ := d.AddNet("ckb")
	cb, _ := d.AddInstance("cb", l.Cell("CKBUF_X2_H"))
	d.Connect(cb, "A", d.NetByName("ck_in"))
	d.Connect(cb, "Z", ckb)
	ff, _ := d.AddInstance("ff", l.Cell("DFF_X1_L"))
	d.Connect(ff, "D", d.NetByName("d"))
	d.Connect(ff, "CK", ckb)
	d.Connect(ff, "Q", d.NetByName("q"))
	h, _ := d.AddInstance("h", l.Holder())
	d.Connect(h, "A", d.NetByName("q"))
	d.Connect(h, "MTE", d.NetByName("sleep"))
	if got := InputNames(d); len(got) != 1 || got[0] != "d" {
		t.Fatalf("InputNames = %v, want [d]", got)
	}
}

// TestCompileRejectsWideCells: a cell with more data inputs than the
// truth tables cover is an error naming the cell.
func TestCompileRejectsWideCells(t *testing.T) {
	l := liberty.NewLibrary("wide", lib(t).Proc)
	pins := []*liberty.Pin{}
	var terms []*logic.Expr
	for i := 0; i < maxInputs+1; i++ {
		name := string(rune('A' + i))
		pins = append(pins, &liberty.Pin{Name: name, Dir: liberty.DirInput})
		terms = append(terms, logic.Var(name))
	}
	pins = append(pins, &liberty.Pin{Name: "Z", Dir: liberty.DirOutput, Function: logic.And(terms...)})
	wide := &liberty.Cell{Name: "AND9_X1", Kind: liberty.KindComb, Pins: pins}
	if err := l.Add(wide); err != nil {
		t.Fatal(err)
	}
	d := netlist.New("wide", l)
	g, _ := d.AddInstance("g", wide)
	z, _ := d.AddNet("z")
	d.Connect(g, "Z", z)
	if _, err := New(d); err == nil || !strings.Contains(err.Error(), "AND9_X1") {
		t.Fatalf("New = %v, want an error naming AND9_X1", err)
	}
}

// TestEvalStepStandbyAllocateNothing pins the compiled hot loops at zero
// heap allocations per call.
func TestEvalStepStandbyAllocateNothing(t *testing.T) {
	d := buildCounterBit(t)
	s, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	s.ResetState(logic.V0)
	gated := func(i *netlist.Instance) bool { return i.Name == "inv" }
	holderOn := func(*netlist.Net) bool { return true }
	for name, f := range map[string]func(){
		"Eval":        s.Eval,
		"Step":        s.Step,
		"EvalStandby": func() { s.EvalStandby(gated, holderOn) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
}

// checkTables requires c's leakage table to hold Cell.LeakageAt and its
// truth table (if any) the output function on every 0/1/X state of the
// data pins, clock-flagged pins left out of the function's environment.
func checkTables(t *testing.T, s *Simulator, c *liberty.Cell) {
	t.Helper()
	ci := s.cellOf(c)
	if ci.leak < 0 {
		t.Fatalf("%s has no leakage table", c.Name)
	}
	var pins []*liberty.Pin
	for _, k := range ci.data {
		pins = append(pins, c.Pins[k])
	}
	size := 1
	for range pins {
		size *= 3
	}
	for idx := 0; idx < size; idx++ {
		env := map[string]logic.Value{}
		fnEnv := map[string]logic.Value{}
		rest := idx
		for _, p := range pins {
			env[p.Name] = logic.Value(rest % 3)
			if !p.IsClock {
				fnEnv[p.Name] = env[p.Name]
			}
			rest /= 3
		}
		if got, want := s.leak[ci.leak+int32(idx)], c.LeakageAt(env); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s in %v: leakage table %v, LeakageAt %v", c.Name, env, got, want)
		}
		if ci.truth >= 0 {
			if got, want := s.truth[ci.truth+int32(idx)], norm(c.Output().Function.Eval(fnEnv)); got != want {
				t.Fatalf("%s in %v: truth table %v, function %v", c.Name, env, got, want)
			}
		}
	}
}

// TestLeakageTables: every combinational library cell's tables equal
// LeakageAt and its function on all 3^k states, and so do those of a cell
// whose data pins include a clock-flagged one, which its function
// ignores and its leakage states read.
func TestLeakageTables(t *testing.T) {
	l := lib(t)
	s, err := New(netlist.New("empty", l))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range l.CellNames() {
		if c := l.Cell(name); !c.IsSequential() {
			checkTables(t, s, c)
		}
	}
	gatedAnd := &liberty.Cell{
		Name: "CKAND_X1", Kind: liberty.KindComb,
		Pins: []*liberty.Pin{
			{Name: "CK", Dir: liberty.DirInput, IsClock: true},
			{Name: "A", Dir: liberty.DirInput},
			{Name: "Z", Dir: liberty.DirOutput, Function: logic.And(logic.Var("CK"), logic.Var("A"))},
		},
		LeakageMW: 3,
		LeakageStates: []liberty.LeakageState{
			{When: logic.And(logic.Var("CK"), logic.Var("A")), PowerMW: 1},
			{When: logic.Not(logic.Var("CK")), PowerMW: 2},
		},
	}
	checkTables(t, s, gatedAnd)
}
