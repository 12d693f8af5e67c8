package sta

import (
	"fmt"
	"testing"

	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/place"
)

// postRouteCfg is the hold-ECO timer's shape: Steiner extraction with
// VGND nets routed as trunks, so net-flag flips move the RC.
func postRouteCfg(t *testing.T, period float64) Config {
	t.Helper()
	lib(t)
	c := cfg(t, period)
	c.Extractor = &parasitics.SteinerExtractor{Proc: sharedProc,
		TrunkNets: func(n *netlist.Net) bool { return n.IsVGND }}
	return c
}

// editStep is one journal batch of the structural walk.
type editStep struct {
	name string
	edit func(t *testing.T, d *netlist.Design)
}

// flowEditSteps returns, in flow order, one batch of each insertion the
// flow makes after placement: holders and VGND conversion, a switch with
// its VGND net, the MTE port and its buffering, a clock-buffer split that
// moves CK pins, ECO buffer chains at flop D pins, a fanout split that
// shifts sink positions, a new flop driving a new output port, a buffer
// in front of an output port, and net-flag flips.
func flowEditSteps() []editStep {
	po := place.DefaultOptions(sharedProc.RowHeightUm, sharedProc.SitePitchUm)
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var mv []*netlist.Instance
	var vnet *netlist.Net
	var sw *netlist.Instance
	return []editStep{
		{"vgnd-convert+holders", func(t *testing.T, d *netlist.Design) {
			l := d.Lib
			mv = mv[:0]
			for _, inst := range d.Instances() {
				v := l.Variant(inst.Cell, liberty.FlavorMTVGND)
				if inst.Cell.Kind != liberty.KindComb || v == nil || inst.OutputNet() == nil {
					continue
				}
				must(t, d.ReplaceCell(inst, v))
				h, err := d.NewInstanceAuto("hold", l.Holder())
				must(t, err)
				must(t, d.Connect(h, "A", inst.OutputNet()))
				place.PlaceNear(d, h, inst.Pos, po)
				if mv = append(mv, inst); len(mv) == 6 {
					break
				}
			}
		}},
		{"switch+vgnd-net", func(t *testing.T, d *netlist.Design) {
			var err error
			sw, err = d.AddInstance("sw0", d.Lib.SwitchCells()[0])
			must(t, err)
			place.PlaceNear(d, sw, mv[0].Pos, po)
			vnet, err = d.AddNet("vgnd0")
			must(t, err)
			vnet.IsVGND = true
			d.NoteNetChanged(vnet)
			must(t, d.Connect(sw, "VGND", vnet))
			for _, inst := range mv {
				must(t, d.Connect(inst, "VGND", vnet))
			}
		}},
		{"mte-port+buffering", func(t *testing.T, d *netlist.Design) {
			p, err := d.AddPort("MTE", netlist.DirInput)
			must(t, err)
			p.Net.IsMTE = true
			d.NoteNetChanged(p.Net)
			for _, inst := range d.Instances() {
				if inst.Cell.Kind == liberty.KindSwitch || inst.Cell.Kind == liberty.KindHolder {
					must(t, d.Connect(inst, "MTE", p.Net))
				}
			}
			chunk := append([]netlist.PinRef(nil), p.Net.Sinks[2:5]...)
			b, err := d.InsertBuffer(p.Net, d.Lib.Cell("BUF_X4_H"), chunk)
			must(t, err)
			place.PlaceNear(d, b, chunk[0].Inst.Pos, po)
		}},
		{"clock-split", func(t *testing.T, d *netlist.Design) {
			clk := d.NetByName("clk")
			var flops []*netlist.Instance
			for _, s := range clk.Sinks {
				if s.Inst != nil && s.Pin == "CK" && len(flops) < 4 {
					flops = append(flops, s.Inst)
				}
			}
			b, err := d.NewInstanceAuto("ckbuf", d.Lib.Cell("CKBUF_X2_H"))
			must(t, err)
			place.PlaceNear(d, b, flops[0].Pos, po)
			out := d.NewNetAuto("clktree")
			out.IsClock = true
			must(t, d.Connect(b, "Z", out))
			for _, ff := range flops {
				must(t, d.Disconnect(ff, "CK"))
				must(t, d.Connect(ff, "CK", out))
			}
			must(t, d.Connect(b, "A", clk))
		}},
		{"eco-chains", func(t *testing.T, d *netlist.Design) {
			buf := d.Lib.Cell("BUF_X1_H")
			chains := 0
			for _, ff := range d.Instances() {
				if !ff.Cell.IsSequential() || ff.Net("D") == nil {
					continue
				}
				for i := 0; i < 3; i++ {
					b, err := d.InsertBuffer(ff.Net("D"), buf, []netlist.PinRef{{Inst: ff, Pin: "D"}})
					must(t, err)
					place.PlaceNear(d, b, ff.Pos, po)
				}
				if chains++; chains == 2 {
					break
				}
			}
		}},
		{"sink-shift", func(t *testing.T, d *netlist.Design) {
			// Move a net's first sink behind a buffer: the disconnect
			// shifts the sink positions the later sinks' arcs read.
			for _, n := range d.Nets() {
				if n.IsClock || len(n.Sinks) < 2 || n.Sinks[0].Inst == nil || !timedSinkAfter(n, 0) {
					continue
				}
				first := n.Sinks[0]
				b, err := d.InsertBuffer(n, d.Lib.Cell("BUF_X1_L"), []netlist.PinRef{first})
				must(t, err)
				place.PlaceNear(d, b, first.Inst.Pos, po)
				return
			}
			t.Fatal("no net with a timed sink after its first")
		}},
		{"new-flop+output-port", func(t *testing.T, d *netlist.Design) {
			// A flop appended to the design, capturing a gate output and
			// driving a new output port: both endpoints join the scan
			// at the end of its order.
			var src *netlist.Net
			for _, inst := range d.Instances() {
				if inst.Cell.Kind == liberty.KindComb && inst.OutputNet() != nil {
					src = inst.OutputNet()
				}
			}
			ff, err := d.AddInstance("ff_new", d.Lib.Cell("DFF_X1_L"))
			must(t, err)
			p, err := d.AddPort("q_new", netlist.DirOutput)
			must(t, err)
			must(t, d.Connect(ff, "D", src))
			must(t, d.Connect(ff, "CK", d.NetByName("clk")))
			must(t, d.Connect(ff, "Q", p.Net))
			place.PlaceNear(d, ff, src.Driver.Inst.Pos, po)
		}},
		{"output-port-buffer", func(t *testing.T, d *netlist.Design) {
			for _, p := range d.Ports() {
				if p.Dir != netlist.DirOutput || p.Net.Driver.Inst == nil {
					continue
				}
				b, err := d.InsertBuffer(p.Net, d.Lib.Cell("BUF_X1_L"), []netlist.PinRef{{Port: p}})
				must(t, err)
				place.PlaceNear(d, b, p.Net.Driver.Inst.Pos, po)
				return
			}
			t.Fatal("no driven output port")
		}},
		{"flag-flips", func(t *testing.T, d *netlist.Design) {
			vnet.IsVGND = false
			d.NoteNetChanged(vnet)
			mte := d.NetByName("MTE")
			mte.IsMTE = false
			d.NoteNetChanged(mte)
		}},
		{"flag-restore", func(t *testing.T, d *netlist.Design) {
			vnet.IsVGND = true
			d.NoteNetChanged(vnet)
		}},
	}
}

// timedSinkAfter reports whether a sink past position pos reads the net
// through a timing arc or a flop D pin, so its sink position matters.
func timedSinkAfter(n *netlist.Net, pos int32) bool {
	for _, s := range n.Sinks[pos+1:] {
		if s.Inst == nil {
			continue
		}
		if s.Inst.Cell.IsSequential() && s.Pin == "D" {
			return true
		}
		for _, a := range s.Inst.Cell.Arcs {
			if a.From == s.Pin && !s.Inst.Cell.IsSequential() {
				return true
			}
		}
	}
	return false
}

// TestIncrementalPatchesStructuralEdits walks one design through every
// insertion the flow makes, at all six lane layouts. After every batch
// the patched timer must equal the oracle bit for bit without a single
// recompile, and a final removal batch must recompile once and stay
// exact.
func TestIncrementalPatchesStructuralEdits(t *testing.T) {
	lib(t)
	forEachLayout(t, synthSmall, postRouteCfg(t, 3), func(t *testing.T, d *netlist.Design, c Config) {
		inc, err := NewIncremental(d, c)
		if err != nil {
			t.Fatal(err)
		}
		steps := flowEditSteps()
		for i, st := range steps {
			st.edit(t, d)
			got, err := inc.Update()
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			requireOracle(t, d, c, got)
			if s := inc.Stats(); s.FullBuilds != 1 || s.StructuralUpdates != i+1 {
				t.Fatalf("%s: %d compiles and %d patched batches, want 1 and %d", st.name, s.FullBuilds, s.StructuralUpdates, i+1)
			}
		}

		// Removal: unwire the last ECO buffer, reconnect its sink to the
		// buffer's input net and drop the buffer and its output net.
		var b *netlist.Instance
		for _, inst := range d.Instances() {
			if inst.Cell.Name == "BUF_X1_H" {
				b = inst
			}
		}
		in, out := b.Net("A"), b.Net("Z")
		sink := out.Sinks[0]
		for _, err := range []error{
			d.Disconnect(sink.Inst, sink.Pin), d.RemoveInstance(b),
			d.Connect(sink.Inst, sink.Pin, in), d.RemoveNet(out),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		got, err := inc.Update()
		if err != nil {
			t.Fatal(err)
		}
		requireOracle(t, d, c, got)
		if s := inc.Stats(); s.FullBuilds != 2 {
			t.Fatalf("removal batch: %d compiles, want 2", s.FullBuilds)
		}
	})
}

// TestIncrementalPatchRejectsCycle: a batch that closes a combinational
// loop fails its Update, as a recompile would; once the loop is opened
// again the timer recompiles and is exact.
func TestIncrementalPatchRejectsCycle(t *testing.T) {
	lib(t)
	forEachLayout(t, synthSmall, cfg(t, 3), func(t *testing.T, d *netlist.Design, c Config) {
		inc, err := NewIncremental(d, c)
		if err != nil {
			t.Fatal(err)
		}
		// x drives y; feed y's output back into one of x's inputs.
		var x, y *netlist.Instance
		for _, inst := range d.Instances() {
			out := inst.OutputNet()
			if inst.Cell.Kind != liberty.KindComb || out == nil || len(inst.Cell.Arcs) < 2 {
				continue
			}
			for _, s := range out.Sinks {
				if s.Inst != nil && s.Inst.Cell.Kind == liberty.KindComb && s.Inst.OutputNet() != nil {
					x, y = inst, s.Inst
					break
				}
			}
			if x != nil {
				break
			}
		}
		if x == nil {
			t.Fatal("no comb-to-comb edge")
		}
		pin := x.Cell.Arcs[0].From
		orig := x.Net(pin)
		if err := d.Disconnect(x, pin); err != nil {
			t.Fatal(err)
		}
		if err := d.Connect(x, pin, y.OutputNet()); err != nil {
			t.Fatal(err)
		}
		if _, err := inc.Update(); err == nil {
			t.Fatal("an Update that closes a combinational loop succeeded")
		}
		if err := d.Disconnect(x, pin); err != nil {
			t.Fatal(err)
		}
		if err := d.Connect(x, pin, orig); err != nil {
			t.Fatal(err)
		}
		got, err := inc.Update()
		if err != nil {
			t.Fatal(err)
		}
		requireOracle(t, d, c, got)
		if s := inc.Stats(); s.FullBuilds != 2 {
			t.Errorf("%d compiles after the failed patch, want 2", s.FullBuilds)
		}
	})
}

// TestPatchedGraphMatchesRecompile: after the whole walk the patched
// graph's levels, driver kinds, consumer lists, arcs and endpoint order
// equal a recompile's, so the dirty buckets drain in recompile order.
func TestPatchedGraphMatchesRecompile(t *testing.T) {
	lib(t)
	d := synthSmall(t)
	c, err := normalizeConfig(postRouteCfg(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(d, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range flowEditSteps() {
		st.edit(t, d)
		if _, err := inc.Update(); err != nil {
			t.Fatal(err)
		}
	}
	got := inc.p.cg
	want, err := compile(d, c)
	if err != nil {
		t.Fatal(err)
	}
	cons := func(cg *CompiledGraph, id int32) string {
		var s []string
		for _, rc := range cg.consumers(id) {
			switch rc.kind {
			case rcComb:
				s = append(s, "comb:"+cg.combs[rc.idx].Name)
			case rcFlopD:
				s = append(s, "flop:"+cg.seqs[rc.idx].inst.Name)
			default:
				s = append(s, "port")
			}
		}
		return fmt.Sprint(s)
	}
	if len(got.nets) != len(want.nets) || got.maxLevel != want.maxLevel {
		t.Fatalf("patched graph: %d nets, max level %d; recompile: %d, %d",
			len(got.nets), got.maxLevel, len(want.nets), want.maxLevel)
	}
	for id, n := range want.nets {
		i := int32(id)
		if got.nets[id] != n || got.level[id] != want.level[id] || got.drvKind[id] != want.drvKind[id] ||
			cons(got, i) != cons(want, i) {
			t.Errorf("net %s: level %d kind %d consumers %s; recompile: %d %d %s", n.Name,
				got.level[id], got.drvKind[id], cons(got, i), want.level[id], want.drvKind[id], cons(want, i))
		}
	}
	if len(got.combs) != len(want.combs) {
		t.Fatalf("%d combinational instances, recompile %d", len(got.combs), len(want.combs))
	}
	for wi, inst := range want.combs {
		gi, ok := got.combOf(inst)
		if !ok || got.combOut[gi] != want.combOut[wi] || len(got.combArcs[gi]) != len(want.combArcs[wi]) {
			t.Errorf("%s: comb entry differs from a recompile", inst.Name)
			continue
		}
		for i, a := range want.combArcs[wi] {
			if g := got.combArcs[gi][i]; g.in != a.in || g.sinkPos != a.sinkPos || g.arc != a.arc {
				t.Errorf("%s arc %d: net %d sink %d; recompile %d, %d", inst.Name, i, g.in, g.sinkPos, a.in, a.sinkPos)
			}
		}
	}
	if fmt.Sprint(got.outPorts) != fmt.Sprint(want.outPorts) || len(got.seqs) != len(want.seqs) {
		t.Fatalf("endpoints: ports %v, %d flops; recompile %v, %d", got.outPorts, len(got.seqs), want.outPorts, len(want.seqs))
	}
	for i := range want.seqs {
		g, w := got.seqs[i], want.seqs[i]
		if g.inst != w.inst || g.q != w.q || g.dNet != w.dNet || g.dSinkPos != w.dSinkPos {
			t.Errorf("flop %d: %s q=%d d=%d@%d; recompile %s q=%d d=%d@%d", i,
				g.inst.Name, g.q, g.dNet, g.dSinkPos, w.inst.Name, w.q, w.dNet, w.dSinkPos)
		}
	}
}
