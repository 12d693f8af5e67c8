package sim_test

// The tests below hold a simulator that follows its design's journal to
// a fresh compile of the same design, bit for bit, after every batch of
// the edits the flow makes: on random circuits under random batches, and
// on the designs of all three techniques stage by stage.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"selectivemt/internal/core"
	"selectivemt/internal/gen"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/power"
	"selectivemt/internal/sim"
)

// followCycles and followSeed are the one activity estimate every check
// asks for, so a kept estimate is compared as often as a fresh one.
const (
	followCycles = 48
	followSeed   = 7
)

type predicates struct {
	gated    func(*netlist.Instance) bool
	holderOn func(*netlist.Net) bool
}

// sameAsFresh updates s and requires it to answer what a fresh compile of
// its design does: the instance list; every net after an Eval of the
// state the update left, when it saw an edit; every net after Eval and
// Step from a random state under random inputs; every net and the
// standby leakage (total, breakdown and per instance) under each of the
// predicates; and the activity estimate.
func sameAsFresh(t *testing.T, what string, s *sim.Simulator, rng *rand.Rand, preds ...predicates) {
	t.Helper()
	d := s.Design()
	noops := s.Stats().Noops
	if err := s.Update(); err != nil {
		t.Fatalf("%s: Update: %v", what, err)
	}
	fresh, err := sim.New(d)
	if err != nil {
		t.Fatalf("%s: New: %v", what, err)
	}
	insts := d.Instances()
	if got := s.Instances(); len(got) != len(insts) {
		t.Fatalf("%s: %d instances, the design has %d", what, len(got), len(insts))
	}
	for i, inst := range s.Instances() {
		if inst != insts[i] {
			t.Fatalf("%s: instance %d is %s, the design lists %s", what, i, inst.Name, insts[i].Name)
		}
	}
	sameValues := func(step string) {
		t.Helper()
		for _, n := range d.Nets() {
			if a, b := s.Value(n), fresh.Value(n); a != b {
				t.Fatalf("%s: %s: net %s = %v, fresh compile %v", what, step, n.Name, a, b)
			}
		}
	}
	if s.Stats().Noops == noops {
		// An update that saw an edit leaves every net and flop at X, as
		// New does; a clean one leaves the simulator as it was.
		s.Eval()
		fresh.Eval()
		sameValues("first Eval")
	}
	st := randomValue(rng)
	s.ResetState(st)
	fresh.ResetState(st)
	for cyc := 0; cyc < 3; cyc++ {
		for _, p := range d.Ports() {
			if p.Dir == netlist.DirInput {
				v := randomValue(rng)
				s.SetInput(p.Name, v)
				fresh.SetInput(p.Name, v)
			}
		}
		s.Eval()
		fresh.Eval()
		sameValues(fmt.Sprintf("cycle %d Eval", cyc))
		s.Step()
		fresh.Step()
		sameValues(fmt.Sprintf("cycle %d Step", cyc))
	}
	gated, holderOn := randomPredicates(d, rng)
	preds = append(preds, predicates{gated, holderOn}, predicates{})
	for pi, p := range preds {
		opts := power.StandbyOptions{Gated: p.gated, HolderOn: p.holderOn}
		a, err := power.StandbyWith(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := power.StandbyWith(fresh, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameValues(fmt.Sprintf("standby %d", pi))
		if math.Float64bits(a.StandbyLeakMW) != math.Float64bits(b.StandbyLeakMW) || len(a.Breakdown) != len(b.Breakdown) {
			t.Fatalf("%s: standby %d: leakage %v over %d categories, fresh compile %v over %d",
				what, pi, a.StandbyLeakMW, len(a.Breakdown), b.StandbyLeakMW, len(b.Breakdown))
		}
		for cat, mw := range b.Breakdown { // rangemap:ok each entry checked on its own
			if math.Float64bits(a.Breakdown[cat]) != math.Float64bits(mw) {
				t.Fatalf("%s: standby %d: %s leakage %v, fresh compile %v", what, pi, cat, a.Breakdown[cat], mw)
			}
		}
		for i, inst := range insts {
			if a, b := s.Leakage(i), fresh.Leakage(i); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: standby %d: %s leaks %v, fresh compile %v", what, pi, inst.Name, a, b)
			}
		}
	}
	a, err := s.Activity(followCycles, followSeed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.Activity(followCycles, followSeed)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || len(a.Toggle) != len(b.Toggle) || len(a.ProbOne) != len(b.ProbOne) {
		t.Fatalf("%s: activity over %d cycles and %d nets, fresh compile %d and %d",
			what, a.Cycles, len(a.Toggle), b.Cycles, len(b.Toggle))
	}
	for _, n := range d.Nets() {
		if math.Float64bits(a.Toggle[n]) != math.Float64bits(b.Toggle[n]) ||
			math.Float64bits(a.ProbOne[n]) != math.Float64bits(b.ProbOne[n]) {
			t.Fatalf("%s: net %s toggles %v P(1) %v, fresh compile %v %v",
				what, n.Name, a.Toggle[n], a.ProbOne[n], b.Toggle[n], b.ProbOne[n])
		}
	}
}

// sourceNets lists the nets a rewired data pin may read without closing
// a combinational loop: input-port nets, flop outputs and undriven nets.
func sourceNets(d *netlist.Design) []*netlist.Net {
	var out []*netlist.Net
	for _, n := range d.Nets() {
		drv := n.Driver
		if drv.Inst == nil || drv.Inst.Cell.IsSequential() {
			out = append(out, n)
		}
	}
	return out
}

// dataPins lists an instance's pins the simulator reads: inputs but
// enable and VGND pins.
func dataPins(c *liberty.Cell) []*liberty.Pin {
	var out []*liberty.Pin
	for _, p := range c.Pins {
		if p.Dir == liberty.DirInput && !p.IsEnable && !p.IsVGND {
			out = append(out, p)
		}
	}
	return out
}

// Edit kinds of a random batch. The first three are swaps; the swap-only
// batches the test asks for draw from the first two, which keep the pins.
const (
	editSwapFlavor   = iota // among LVT, HVT and MT without VGND port: same pins
	editSwapFunction        // NAND2 for NOR2 and the like: same pins, new table
	editSwapMT              // any flavor, MTE and VGND pins included
	editBuffer              // InsertBuffer, in front of flop D pins and output ports too
	editInstance            // a new gate on new nets
	editPort                // a new input or output port
	editRewire              // disconnect a data pin, connect it elsewhere
	editMTE                 // flip a net's IsMTE flag
	editOutput              // disconnect an output: a recompile
	editRemove              // remove an instance: a recompile
	numEdits
)

// applyEdit makes one edit of the given kind on d, if d offers one.
func applyEdit(t *testing.T, d *netlist.Design, rng *rand.Rand, kind int) {
	t.Helper()
	l := d.Lib
	insts := d.Instances()
	pick := func(keep func(*netlist.Instance) bool) *netlist.Instance {
		var cands []*netlist.Instance
		for _, inst := range insts {
			if keep(inst) {
				cands = append(cands, inst)
			}
		}
		if len(cands) == 0 {
			return nil
		}
		return cands[rng.Intn(len(cands))]
	}
	comb := func(inst *netlist.Instance) bool { return inst.Cell.Kind == liberty.KindComb }
	swap := func(inst *netlist.Instance, to *liberty.Cell) {
		if inst != nil && to != nil {
			_ = d.ReplaceCell(inst, to) // a cell lacking a connected pin is refused
		}
	}
	switch kind {
	case editSwapFlavor:
		flavors := []liberty.Flavor{liberty.FlavorLVT, liberty.FlavorHVT, liberty.FlavorMTNoVGND}
		inst := pick(func(inst *netlist.Instance) bool {
			f := inst.Cell.Flavor
			return comb(inst) && (f == flavors[0] || f == flavors[1] || f == flavors[2])
		})
		if inst != nil {
			swap(inst, l.Variant(inst.Cell, flavors[rng.Intn(len(flavors))]))
		}
	case editSwapFunction:
		pairs := map[string]string{"NAND2": "NOR2", "NOR2": "NAND2", "NAND3": "NOR3", "NOR3": "NAND3",
			"AND2": "OR2", "OR2": "AND2"}
		inst := pick(func(inst *netlist.Instance) bool { _, ok := pairs[inst.Cell.Base]; return ok && comb(inst) })
		if inst != nil {
			swap(inst, l.Cell(fmt.Sprintf("%s_X%d_%s", pairs[inst.Cell.Base], inst.Cell.Drive, inst.Cell.Flavor)))
		}
	case editSwapMT:
		inst := pick(comb)
		if inst != nil {
			flavors := []liberty.Flavor{liberty.FlavorLVT, liberty.FlavorHVT, liberty.FlavorMTConv,
				liberty.FlavorMTNoVGND, liberty.FlavorMTVGND}
			swap(inst, l.Variant(inst.Cell, flavors[rng.Intn(len(flavors))]))
		}
	case editBuffer:
		buf := l.Cell("BUF_X1_L")
		var net *netlist.Net
		var sinks []netlist.PinRef
		switch rng.Intn(3) {
		case 0: // in front of a flop's D pin
			if ff := pick(func(inst *netlist.Instance) bool { return inst.Cell.IsSequential() && inst.Net("D") != nil }); ff != nil {
				net, sinks = ff.Net("D"), []netlist.PinRef{{Inst: ff, Pin: "D"}}
			}
		case 1: // in front of an output port
			for _, p := range d.Ports() {
				if p.Dir == netlist.DirOutput && rng.Intn(2) == 0 {
					net, sinks = p.Net, []netlist.PinRef{{Port: p}}
				}
			}
		default: // some of a net's sinks
			nets := d.Nets()
			n := nets[rng.Intn(len(nets))]
			for _, sk := range n.Sinks {
				if rng.Intn(2) == 0 {
					sinks = append(sinks, sk)
				}
			}
			net = n
		}
		if net != nil && len(sinks) > 0 {
			if _, err := d.InsertBuffer(net, buf, sinks); err != nil {
				t.Fatal(err)
			}
		}
	case editInstance:
		cells := cellsOf(l, liberty.KindComb)
		c := cells[rng.Intn(len(cells))]
		g, err := d.NewInstanceAuto("new", c)
		if err != nil {
			t.Fatal(err)
		}
		srcs := sourceNets(d)
		for _, p := range dataPins(c) {
			if rng.Intn(8) > 0 {
				if err := d.Connect(g, p.Name, srcs[rng.Intn(len(srcs))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if rng.Intn(6) > 0 {
			if err := d.Connect(g, c.Output().Name, d.NewNetAuto("new")); err != nil {
				t.Fatal(err)
			}
		}
	case editPort:
		name := fmt.Sprintf("p%d", d.Revision())
		if rng.Intn(2) == 0 {
			p, err := d.AddPort(name, netlist.DirInput)
			if err != nil {
				t.Fatal(err)
			}
			if inst := pick(comb); inst != nil {
				for _, pin := range dataPins(inst.Cell) {
					if inst.Net(pin.Name) != nil {
						if err := d.Disconnect(inst, pin.Name); err != nil {
							t.Fatal(err)
						}
					}
					if err := d.Connect(inst, pin.Name, p.Net); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
		} else {
			nets := d.Nets() // not the port's own: the buffer would drive its input
			p, err := d.AddPort(name, netlist.DirOutput)
			if err != nil {
				t.Fatal(err)
			}
			b, err := d.NewInstanceAuto("obuf", l.Cell("BUF_X1_L"))
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Connect(b, "A", nets[rng.Intn(len(nets))]); err != nil {
				t.Fatal(err)
			}
			if err := d.Connect(b, "Z", p.Net); err != nil {
				t.Fatal(err)
			}
		}
	case editRewire:
		inst := pick(func(inst *netlist.Instance) bool { return len(dataPins(inst.Cell)) > 0 })
		if inst == nil {
			return
		}
		pins := dataPins(inst.Cell)
		pin := pins[rng.Intn(len(pins))].Name
		if inst.Cell.IsSequential() {
			pin = "D"
		}
		if inst.Net(pin) != nil {
			if err := d.Disconnect(inst, pin); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(4) > 0 {
			srcs := sourceNets(d)
			if err := d.Connect(inst, pin, srcs[rng.Intn(len(srcs))]); err != nil {
				t.Fatal(err)
			}
		}
	case editMTE:
		var inputs []*netlist.Net
		for _, p := range d.Ports() {
			if p.Dir == netlist.DirInput {
				inputs = append(inputs, p.Net)
			}
		}
		n := inputs[rng.Intn(len(inputs))]
		n.IsMTE = !n.IsMTE
		d.NoteNetChanged(n)
	case editOutput:
		if inst := pick(func(inst *netlist.Instance) bool { return inst.OutputNet() != nil }); inst != nil {
			if err := d.Disconnect(inst, inst.Cell.Output().Name); err != nil {
				t.Fatal(err)
			}
		}
	case editRemove:
		if inst := pick(func(*netlist.Instance) bool { return true }); inst != nil {
			if err := d.RemoveInstance(inst); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSimulatorFollowsRandomEdits drives random circuits through random
// journal batches and holds the followed simulator to a fresh compile
// after each. Batches without a removal or a lost output are applied
// without a compile; swap-only batches in place; the others recompile.
func TestSimulatorFollowsRandomEdits(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := randomDesign(t, rng)
		s, err := sim.New(d)
		if err != nil {
			t.Fatal(err)
		}
		sameAsFresh(t, fmt.Sprintf("%s compiled", d.Name), s, rng)
		for batch := 0; batch < 12; batch++ {
			before := s.Stats()
			kinds := make([]int, 1+rng.Intn(4))
			swapOnly := rng.Intn(3) == 0
			recompiles := false
			for i := range kinds {
				switch {
				case swapOnly:
					kinds[i] = rng.Intn(editSwapFunction + 1)
				default:
					kinds[i] = rng.Intn(numEdits)
					if rng.Intn(3) > 0 && kinds[i] >= editOutput {
						kinds[i] = editBuffer // keep most batches patchable
					}
				}
				recompiles = recompiles || kinds[i] >= editOutput
				applyEdit(t, d, rng, kinds[i])
			}
			what := fmt.Sprintf("%s batch %d %v", d.Name, batch, kinds)
			sameAsFresh(t, what, s, rng)
			after := s.Stats()
			switch {
			case recompiles:
			case after.Compiles != before.Compiles:
				t.Fatalf("%s: recompiled (%+v -> %+v)", what, before, after)
			case swapOnly && after.Swaps == before.Swaps && after.Noops == before.Noops:
				t.Fatalf("%s: a swap-only batch was not applied in place (%+v -> %+v)", what, before, after)
			}
		}
	}
}

// TestSimulatorRecompilesOnRemoval: a removal renumbers instances and
// nets, so the batch recompiles, and the result is exact.
func TestSimulatorRecompilesOnRemoval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomDesign(t, rng)
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	applyEdit(t, d, rng, editBuffer)
	applyEdit(t, d, rng, editRemove)
	sameAsFresh(t, "removal", s, rng)
	if got := s.Stats().Compiles; got != 2 {
		t.Fatalf("a removal batch compiled %d times in all, want 2", got)
	}
}

// TestSimulatorUpdateAllocatesNothing: a clean journal and a batch of
// swaps between cells with the same pins update without a heap
// allocation, once both cells' tables exist.
func TestSimulatorUpdateAllocatesNothing(t *testing.T) {
	l := library(t)
	d := netlist.New("swaps", l)
	in, _ := d.AddPort("a", netlist.DirInput)
	out, _ := d.AddPort("y", netlist.DirOutput)
	prev := in.Net
	var gates []*netlist.Instance
	for i := 0; i < 16; i++ {
		g, _ := d.AddInstance(fmt.Sprintf("g%d", i), l.Cell("INV_X1_L"))
		d.Connect(g, "A", prev)
		next := out.Net
		if i < 15 {
			next, _ = d.AddNet(fmt.Sprintf("n%d", i))
		}
		d.Connect(g, "ZN", next)
		gates, prev = append(gates, g), next
	}
	s, err := sim.New(d)
	if err != nil {
		t.Fatal(err)
	}
	cells := [2]*liberty.Cell{l.Cell("INV_X1_H"), l.Cell("INV_X1_L")}
	flip := 0
	swapAll := func() {
		for _, g := range gates {
			if err := d.ReplaceCell(g, cells[flip%2]); err != nil {
				t.Fatal(err)
			}
		}
		flip++
	}
	update := func() {
		if err := s.Update(); err != nil {
			t.Fatal(err)
		}
	}
	// Swap until the journal has reached its retained bound, so that
	// recording a swap no longer grows it either.
	for i := 0; i < 1100; i++ {
		swapAll()
		update()
	}
	if n := testing.AllocsPerRun(50, func() {
		swapAll()
		update()
		update() // a clean journal
	}); n != 0 {
		t.Errorf("a swap batch and its updates allocate %v times", n)
	}
	if st := s.Stats(); st.Compiles != 1 || st.Swaps != 1151 || st.Noops != 51 {
		t.Errorf("stats %+v, want 1 compile, 1151 swap batches and 51 clean updates", st)
	}
	sameAsFresh(t, "after swaps", s, rand.New(rand.NewSource(1)))
}

// TestSimulatorFollowsFlows follows the designs of all three techniques
// on SmallTest and Circuit A from the first stage to the last, checking
// the simulator against a fresh compile after every stage, under the
// flow's own standby predicates too; it compiles once per run.
func TestSimulatorFollowsFlows(t *testing.T) {
	l := library(t)
	for _, spec := range []gen.CircuitSpec{gen.SmallTest(), gen.CircuitA()} {
		cfg := core.DefaultConfig(oracleProc, l)
		cfg.ClockSlack = spec.ClockSlack
		base, err := core.PrepareBase(spec.Module, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, technique := range []string{"Dual-Vth", "Conventional-SMT", "Improved-SMT"} {
			p, ok := core.LookupPipeline(technique)
			if !ok {
				t.Fatalf("no pipeline %q", technique)
			}
			var s *sim.Simulator
			rng := rand.New(rand.NewSource(1))
			stages := []core.Stage{core.NewStage("compile", func(_ context.Context, st *core.FlowState) (*core.StageReport, error) {
				var err error
				s, err = sim.New(st.Design)
				return nil, err
			})}
			for _, stage := range p.Stages() {
				stages = append(stages, stage, core.NewStage("check", func(_ context.Context, st *core.FlowState) (*core.StageReport, error) {
					sameAsFresh(t, fmt.Sprintf("%s %s after %s", spec.Module.Name, technique, stage.Name()), s, rng,
						predicates{core.IsGatedMT, core.HolderOn})
					return nil, nil
				}))
			}
			if _, err := core.RunPipeline(context.Background(), core.NewPipeline(technique, stages...), base, cfg, nil); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.Compiles != 1 {
				t.Errorf("%s %s: the followed simulator compiled %d times (%+v), want once",
					spec.Module.Name, technique, st.Compiles, st)
			}
		}
	}
}
