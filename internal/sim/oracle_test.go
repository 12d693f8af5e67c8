package sim_test

// The oracle below is a direct map-keyed evaluator with the simulator's
// semantics: net values in a map keyed by net, flop state in a map keyed
// by instance, one Function.Eval per gate per evaluation over a fresh
// pin-name environment, and an activity loop that re-evaluates inside
// every Step. The property tests hold the compiled simulator to it bit for
// bit on random circuits and on the final designs of all three techniques.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"selectivemt/internal/core"
	"selectivemt/internal/gen"
	"selectivemt/internal/liberty"
	"selectivemt/internal/logic"
	"selectivemt/internal/netlist"
	"selectivemt/internal/sim"
	"selectivemt/internal/tech"
)

type oracle struct {
	d     *netlist.Design
	order []*netlist.Instance
	val   map[*netlist.Net]logic.Value
	state map[*netlist.Instance]logic.Value
}

func newOracle(d *netlist.Design) (*oracle, error) {
	order, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}
	o := &oracle{
		d:     d,
		order: order,
		val:   make(map[*netlist.Net]logic.Value, d.NumNets()),
		state: make(map[*netlist.Instance]logic.Value),
	}
	for _, n := range d.Nets() {
		o.val[n] = logic.VX
	}
	for _, inst := range order {
		if inst.Cell.IsSequential() {
			o.state[inst] = logic.VX
		}
	}
	return o, nil
}

func (o *oracle) ResetState(v logic.Value) {
	for inst := range o.state {
		o.state[inst] = v
	}
}

func (o *oracle) SetInput(port string, v logic.Value) error {
	p := o.d.PortByName(port)
	if p == nil || p.Dir != netlist.DirInput {
		return fmt.Errorf("sim: no input port %q", port)
	}
	o.val[p.Net] = v
	return nil
}

func (o *oracle) PortValue(name string) (logic.Value, error) {
	p := o.d.PortByName(name)
	if p == nil {
		return logic.VX, fmt.Errorf("sim: no port %q", name)
	}
	return o.val[p.Net], nil
}

func (o *oracle) presentState() {
	for inst, st := range o.state {
		if q := inst.OutputNet(); q != nil {
			o.val[q] = st
		}
	}
}

func (o *oracle) Eval() {
	o.presentState()
	for _, inst := range o.order {
		o.evalInstance(inst)
	}
}

// EvalStandby forces every gated flop's output before it evaluates a gate,
// so each net carries one value through the evaluation.
func (o *oracle) EvalStandby(gated func(*netlist.Instance) bool, holderOn func(*netlist.Net) bool) {
	o.presentState()
	hold := func(inst *netlist.Instance) {
		if out := inst.OutputNet(); out != nil {
			if holderOn != nil && holderOn(out) {
				o.val[out] = logic.V1
			} else {
				o.val[out] = logic.VX
			}
		}
	}
	for _, inst := range o.order {
		if inst.Cell.IsSequential() && gated != nil && gated(inst) {
			hold(inst)
		}
	}
	for _, inst := range o.order {
		switch {
		case inst.Cell.IsSequential():
		case gated != nil && gated(inst):
			hold(inst)
		default:
			o.evalInstance(inst)
		}
	}
}

func (o *oracle) evalInstance(inst *netlist.Instance) {
	if inst.Cell.IsSequential() {
		return
	}
	out := inst.Cell.Output()
	if out == nil || out.Function == nil {
		return
	}
	outNet := inst.Net(out.Name)
	if outNet == nil {
		return
	}
	env := make(map[string]logic.Value, 4)
	for _, p := range inst.Cell.Inputs() {
		if n := inst.Net(p.Name); n != nil {
			env[p.Name] = o.val[n]
		} else {
			env[p.Name] = logic.VX
		}
	}
	o.val[outNet] = out.Function.Eval(env)
}

func (o *oracle) Step() {
	next := make(map[*netlist.Instance]logic.Value, len(o.state))
	for inst := range o.state {
		if d := inst.Net("D"); d != nil {
			next[inst] = o.val[d]
		} else {
			next[inst] = logic.VX
		}
	}
	o.state = next
	o.Eval()
}

func oracleEquivalent(a, b *netlist.Design, nCycles int, seed int64) (bool, string, error) {
	sa, err := newOracle(a)
	if err != nil {
		return false, "", err
	}
	sb, err := newOracle(b)
	if err != nil {
		return false, "", err
	}
	ins := sim.InputNames(a)
	insB := sim.InputNames(b)
	if len(ins) != len(insB) {
		return false, fmt.Sprintf("input count %d vs %d", len(ins), len(insB)), nil
	}
	outs := sim.OutputNames(a)
	outsB := sim.OutputNames(b)
	if len(outs) != len(outsB) {
		return false, fmt.Sprintf("output count %d vs %d", len(outs), len(outsB)), nil
	}
	sa.ResetState(logic.V0)
	sb.ResetState(logic.V0)
	rng := rand.New(rand.NewSource(seed))
	for cyc := 0; cyc < nCycles; cyc++ {
		for _, in := range ins {
			v := logic.FromBool(rng.Intn(2) == 1)
			if err := sa.SetInput(in, v); err != nil {
				return false, "", err
			}
			if err := sb.SetInput(in, v); err != nil {
				return false, "", err
			}
		}
		sa.Eval()
		sb.Eval()
		for _, out := range outs {
			va, _ := sa.PortValue(out)
			vb, _ := sb.PortValue(out)
			if va != vb {
				return false, fmt.Sprintf("cycle %d output %s: %v vs %v", cyc, out, va, vb), nil
			}
		}
		sa.Step()
		sb.Step()
	}
	return true, "", nil
}

func oracleActivity(d *netlist.Design, nCycles int, seed int64) (*sim.Activity, error) {
	s, err := newOracle(d)
	if err != nil {
		return nil, err
	}
	s.ResetState(logic.V0)
	ins := sim.InputNames(d)
	rng := rand.New(rand.NewSource(seed))
	warmup := nCycles / 8
	toggles := make(map[*netlist.Net]int, d.NumNets())
	ones := make(map[*netlist.Net]int, d.NumNets())
	prev := make(map[*netlist.Net]logic.Value, d.NumNets())
	counted := 0
	for cyc := 0; cyc < nCycles; cyc++ {
		for _, in := range ins {
			s.SetInput(in, logic.FromBool(rng.Intn(2) == 1))
		}
		s.Eval()
		if cyc >= warmup {
			counted++
			for _, n := range d.Nets() {
				v := s.val[n]
				if v == logic.V1 {
					ones[n]++
				}
				if pv, ok := prev[n]; ok && pv != v && pv != logic.VX && v != logic.VX {
					toggles[n]++
				}
			}
		}
		for _, n := range d.Nets() {
			prev[n] = s.val[n]
		}
		s.Step()
	}
	act := &sim.Activity{
		Toggle:  make(map[*netlist.Net]float64, d.NumNets()),
		ProbOne: make(map[*netlist.Net]float64, d.NumNets()),
		Cycles:  counted,
	}
	if counted == 0 {
		counted = 1
	}
	for _, n := range d.Nets() {
		act.Toggle[n] = float64(toggles[n]) / float64(counted)
		act.ProbOne[n] = float64(ones[n]) / float64(counted)
	}
	return act, nil
}

var (
	oracleLib  *liberty.Library
	oracleProc *tech.Process
)

func library(t testing.TB) *liberty.Library {
	t.Helper()
	if oracleLib == nil {
		oracleProc = tech.Default130()
		l, err := liberty.Generate(oracleProc, liberty.DefaultBuildOptions(oracleProc))
		if err != nil {
			t.Fatal(err)
		}
		oracleLib = l
	}
	return oracleLib
}

// cellsOf returns the library's cells of one kind in library order.
func cellsOf(l *liberty.Library, kind liberty.Kind) []*liberty.Cell {
	var out []*liberty.Cell
	for _, name := range l.CellNames() {
		if c := l.Cell(name); c.Kind == kind {
			out = append(out, c)
		}
	}
	return out
}

// randomDesign builds a random sequential netlist from every cell class
// the flow uses: combinational cells of all five flavors (MV cells on
// switch-driven VGND nets, M cells on the MTE net), flops clocked directly
// and through clock buffers, holders and sleep switches. Flops and gates
// interleave in instance order; some pins stay open, some nets undriven,
// and clock-buffer outputs may feed data logic, so X reaches everywhere.
// The clock port is named clk or CK at random.
func randomDesign(t testing.TB, rng *rand.Rand) *netlist.Design {
	t.Helper()
	l := library(t)
	comb := cellsOf(l, liberty.KindComb)
	flops := cellsOf(l, liberty.KindFF)
	ckbufs := cellsOf(l, liberty.KindClockBuf)
	switches := cellsOf(l, liberty.KindSwitch)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	d := netlist.New(fmt.Sprintf("rand%d", rng.Int63()), l)
	var pool []*netlist.Net // nets a data pin may read
	for i, n := 0, 1+rng.Intn(6); i < n; i++ {
		p, err := d.AddPort(fmt.Sprintf("in%d", i), netlist.DirInput)
		must(err)
		pool = append(pool, p.Net)
	}
	clkName := "clk"
	if rng.Intn(2) == 0 {
		clkName = "CK"
	}
	clk, err := d.AddPort(clkName, netlist.DirInput)
	must(err)
	mte, err := d.AddPort("MTE", netlist.DirInput)
	must(err)
	mte.Net.IsMTE = true
	clocks := []*netlist.Net{clk.Net}
	var vgnds []*netlist.Net
	var outs []*netlist.Port
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		p, err := d.AddPort(fmt.Sprintf("out%d", i), netlist.DirOutput)
		must(err)
		outs = append(outs, p)
	}
	pick := func() *netlist.Net {
		if rng.Intn(12) == 0 {
			return nil // open pin
		}
		return pool[rng.Intn(len(pool))]
	}
	var ffs []*netlist.Instance
	nInst := 8 + rng.Intn(40)
	for i := 0; i < nInst; i++ {
		name := fmt.Sprintf("u%d", i)
		switch r := rng.Intn(20); {
		case r < 3: // flop; D is wired at the end so it may close a loop
			ff, err := d.AddInstance(name, flops[rng.Intn(len(flops))])
			must(err)
			must(d.Connect(ff, "CK", clocks[rng.Intn(len(clocks))]))
			if rng.Intn(10) > 0 {
				q, err := d.AddNet(name + "_q")
				must(err)
				must(d.Connect(ff, "Q", q))
				pool = append(pool, q)
			}
			ffs = append(ffs, ff)
		case r < 4: // clock buffer
			cb, err := d.AddInstance(name, ckbufs[rng.Intn(len(ckbufs))])
			must(err)
			must(d.Connect(cb, "A", clocks[rng.Intn(len(clocks))]))
			z, err := d.AddNet(name + "_z")
			must(err)
			z.IsClock = true
			must(d.Connect(cb, "Z", z))
			clocks = append(clocks, z)
			if rng.Intn(3) == 0 {
				pool = append(pool, z)
			}
		case r < 5: // sleep switch
			sw, err := d.AddInstance(name, switches[rng.Intn(len(switches))])
			must(err)
			must(d.Connect(sw, "MTE", mte.Net))
			v, err := d.AddNet(name + "_vgnd")
			must(err)
			v.IsVGND = true
			must(d.Connect(sw, "VGND", v))
			vgnds = append(vgnds, v)
		case r < 6: // holder
			h, err := d.AddInstance(name, l.Holder())
			must(err)
			if n := pick(); n != nil {
				must(d.Connect(h, "A", n))
			}
			must(d.Connect(h, "MTE", mte.Net))
		case r < 7: // undriven net
			n, err := d.AddNet(name + "_float")
			must(err)
			pool = append(pool, n)
		default:
			c := comb[rng.Intn(len(comb))]
			g, err := d.AddInstance(name, c)
			must(err)
			for _, p := range c.Inputs() {
				if n := pick(); n != nil {
					must(d.Connect(g, p.Name, n))
				}
			}
			if p := c.Pin("MTE"); p != nil && rng.Intn(4) > 0 {
				must(d.Connect(g, "MTE", mte.Net))
			}
			if p := c.Pin("VGND"); p != nil && len(vgnds) > 0 && rng.Intn(4) > 0 {
				must(d.Connect(g, "VGND", vgnds[rng.Intn(len(vgnds))]))
			}
			if rng.Intn(12) > 0 {
				z, err := d.AddNet(name + "_z")
				must(err)
				must(d.Connect(g, c.Output().Name, z))
				pool = append(pool, z)
			}
		}
	}
	for _, ff := range ffs {
		if n := pick(); n != nil {
			must(d.Connect(ff, "D", n))
		}
	}
	buf := l.Cell("BUF_X1_L")
	for i, p := range outs {
		if rng.Intn(8) == 0 {
			continue // undriven output
		}
		b, err := d.AddInstance(fmt.Sprintf("obuf%d", i), buf)
		must(err)
		if n := pick(); n != nil {
			must(d.Connect(b, "A", n))
		}
		must(d.Connect(b, "Z", p.Net))
	}
	return d
}

// randomPredicates returns gating and holder predicates over a random
// third of d's instances and nets.
func randomPredicates(d *netlist.Design, rng *rand.Rand) (func(*netlist.Instance) bool, func(*netlist.Net) bool) {
	gated := make(map[*netlist.Instance]bool)
	for _, inst := range d.Instances() {
		if rng.Intn(3) == 0 {
			gated[inst] = true
		}
	}
	held := make(map[*netlist.Net]bool)
	for _, n := range d.Nets() {
		if rng.Intn(3) == 0 {
			held[n] = true
		}
	}
	return func(i *netlist.Instance) bool { return gated[i] }, func(n *netlist.Net) bool { return held[n] }
}

func randomValue(rng *rand.Rand) logic.Value { return logic.Value(rng.Intn(3)) }

// sameNets fails the test on the first net whose value differs.
func sameNets(t *testing.T, what string, d *netlist.Design, s *sim.Simulator, o *oracle) {
	t.Helper()
	for _, n := range d.Nets() {
		if got, want := s.Value(n), o.val[n]; got != want {
			t.Fatalf("%s: %s net %s = %v, oracle %v", d.Name, what, n.Name, got, want)
		}
	}
}

// checkActivity requires EstimateActivity to equal the oracle bit for bit.
func checkActivity(t *testing.T, d *netlist.Design, nCycles int, seed int64) {
	t.Helper()
	got, err := sim.EstimateActivity(d, nCycles, seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleActivity(d, nCycles, seed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles {
		t.Fatalf("%s (%d cycles, seed %d): Cycles %d, oracle %d", d.Name, nCycles, seed, got.Cycles, want.Cycles)
	}
	if len(got.Toggle) != len(want.Toggle) || len(got.ProbOne) != len(want.ProbOne) {
		t.Fatalf("%s: %d/%d nets, oracle %d/%d", d.Name, len(got.Toggle), len(got.ProbOne), len(want.Toggle), len(want.ProbOne))
	}
	for _, n := range d.Nets() {
		gt, okT := got.Toggle[n]
		gp, okP := got.ProbOne[n]
		if !okT || !okP ||
			math.Float64bits(gt) != math.Float64bits(want.Toggle[n]) ||
			math.Float64bits(gp) != math.Float64bits(want.ProbOne[n]) {
			t.Fatalf("%s (%d cycles, seed %d) net %s: toggle %v P(1) %v, oracle %v %v",
				d.Name, nCycles, seed, n.Name, gt, gp, want.Toggle[n], want.ProbOne[n])
		}
	}
}

// checkEquivalent requires Equivalent to give the oracle's verdict,
// reason and error.
func checkEquivalent(t *testing.T, a, b *netlist.Design, nCycles int, seed int64) {
	t.Helper()
	eq, why, err := sim.Equivalent(a, b, nCycles, seed)
	oeq, owhy, oerr := oracleEquivalent(a, b, nCycles, seed)
	if eq != oeq || why != owhy || fmt.Sprint(err) != fmt.Sprint(oerr) {
		t.Fatalf("Equivalent(%s, %s) = %v %q %v, oracle %v %q %v", a.Name, b.Name, eq, why, err, oeq, owhy, oerr)
	}
}

// checkStandby settles both simulators in standby under the predicates
// from state st and requires equal values on every net.
func checkStandby(t *testing.T, d *netlist.Design, st logic.Value, inputs []logic.Value,
	gated func(*netlist.Instance) bool, holderOn func(*netlist.Net) bool) {
	t.Helper()
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOracle(d)
	if err != nil {
		t.Fatal(err)
	}
	s.ResetState(st)
	o.ResetState(st)
	i := 0
	for _, p := range d.Ports() {
		if p.Dir == netlist.DirInput {
			s.SetInput(p.Name, inputs[i%len(inputs)])
			o.SetInput(p.Name, inputs[i%len(inputs)])
			i++
		}
	}
	s.EvalStandby(gated, holderOn)
	o.EvalStandby(gated, holderOn)
	sameNets(t, "standby", d, s, o)
}

// mutate returns a clone of d with one gate swapped for a cell of another
// function on the same pins, or nil when d has no such gate.
func mutate(d *netlist.Design, rng *rand.Rand) *netlist.Design {
	c := d.Clone()
	l := c.Lib
	swaps := map[string]string{"NAND2": "NOR2", "NOR2": "NAND2", "NAND3": "NOR3", "NOR3": "NAND3",
		"AND2": "OR2", "OR2": "AND2"}
	var cands []*netlist.Instance
	for _, inst := range c.Instances() {
		if _, ok := swaps[inst.Cell.Base]; ok && inst.Cell.Kind == liberty.KindComb {
			cands = append(cands, inst)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	inst := cands[rng.Intn(len(cands))]
	to := l.Cell(fmt.Sprintf("%s_X%d_%s", swaps[inst.Cell.Base], inst.Cell.Drive, inst.Cell.Flavor))
	if to == nil {
		return nil
	}
	if err := c.ReplaceCell(inst, to); err != nil {
		return nil
	}
	return c
}

func TestCompiledMatchesOracleOnRandomCircuits(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := randomDesign(t, rng)

		// Eval and Step from a random flop state under random 0/1/X inputs.
		s, err := sim.New(d)
		if err != nil {
			t.Fatal(err)
		}
		o, err := newOracle(d)
		if err != nil {
			t.Fatal(err)
		}
		st := randomValue(rng)
		s.ResetState(st)
		o.ResetState(st)
		for cyc := 0; cyc < 6; cyc++ {
			for _, p := range d.Ports() {
				if p.Dir == netlist.DirInput {
					v := randomValue(rng)
					s.SetInput(p.Name, v)
					o.SetInput(p.Name, v)
				}
			}
			s.Eval()
			o.Eval()
			sameNets(t, fmt.Sprintf("cycle %d Eval", cyc), d, s, o)
			s.Step()
			o.Step()
			sameNets(t, fmt.Sprintf("cycle %d Step", cyc), d, s, o)
		}

		for _, nCycles := range []int{0, 5, 96} {
			for _, actSeed := range []int64{1, seed} {
				checkActivity(t, d, nCycles, actSeed)
			}
		}

		inputs := []logic.Value{randomValue(rng), randomValue(rng), randomValue(rng)}
		gated, holderOn := randomPredicates(d, rng)
		checkStandby(t, d, randomValue(rng), inputs, gated, holderOn)
		checkStandby(t, d, logic.V0, inputs, gated, nil)
		checkStandby(t, d, logic.V1, inputs, nil, nil)

		checkEquivalent(t, d, d.Clone(), 40, seed)
		if m := mutate(d, rng); m != nil {
			checkEquivalent(t, d, m, 40, seed)
		}
		other := randomDesign(t, rng)
		checkEquivalent(t, d, other, 20, seed)
		checkEquivalent(t, d, other, 0, seed)
	}
}

// TestCompiledMatchesOracleOnFlowDesigns runs the three techniques on
// Circuits A and B and compares the simulator with the oracle on each
// final design. Those designs hold everything the flow inserts: MV cells
// on shared switches, holders, MTE buffers, the clock tree and hold
// buffers.
func TestCompiledMatchesOracleOnFlowDesigns(t *testing.T) {
	if testing.Short() {
		t.Skip("full technique flows skipped in -short mode")
	}
	l := library(t)
	for _, spec := range []gen.CircuitSpec{gen.CircuitA(), gen.CircuitB()} {
		cfg := core.DefaultConfig(oracleProc, l)
		cfg.ClockSlack = spec.ClockSlack
		base, err := core.PrepareBase(spec.Module, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var finals []*core.TechniqueResult
		for _, name := range []string{"Dual-Vth", "Conventional-SMT", "Improved-SMT"} {
			res, err := core.RunRegistered(context.Background(), name, base, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			finals = append(finals, res)
		}
		rng := rand.New(rand.NewSource(1))
		for i, res := range finals {
			d := res.Design
			checkActivity(t, d, cfg.ActivityCycles, cfg.Seed)
			checkActivity(t, d, 5, int64(i))
			zeros := []logic.Value{logic.V0}
			if i > 0 {
				checkStandby(t, d, logic.V0, zeros, core.IsGatedMT, core.HolderOn)
			}
			gated, holderOn := randomPredicates(d, rng)
			checkStandby(t, d, logic.V0, []logic.Value{randomValue(rng), randomValue(rng)}, gated, holderOn)
		}
		checkEquivalent(t, finals[0].Design, finals[2].Design, 24, 42)
		checkEquivalent(t, finals[1].Design, finals[2].Design, 24, 42)
		checkEquivalent(t, base, finals[0].Design, 24, 7)
	}
}
