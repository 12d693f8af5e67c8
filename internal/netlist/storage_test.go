package netlist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"selectivemt/internal/liberty"
)

// TestCloneKeepsEndpointOrder: a net whose output-port sink follows an
// instance sink clones with its sinks in the same order, and so with the
// same fingerprint. InsertBuffer builds the same shape when it moves an
// instance sink and a port sink together.
func TestCloneKeepsEndpointOrder(t *testing.T) {
	l := lib(t)
	d := New("order", l)
	mustDo := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := d.AddPort("in", DirInput)
	mustDo(err)
	mid, err := d.AddNet("mid")
	mustDo(err)
	drv, err := d.AddInstance("u_drv", l.Cell("BUF_X1_L"))
	mustDo(err)
	b1, err := d.AddInstance("u_b1", l.Cell("BUF_X1_L"))
	mustDo(err)
	mustDo(d.Connect(drv, "A", d.NetByName("in")))
	mustDo(d.Connect(drv, "Z", mid))
	mustDo(d.Connect(b1, "A", mid))
	_, err = d.AddPort("mid", DirOutput)
	mustDo(err)
	out, err := d.AddNet("o")
	mustDo(err)
	mustDo(d.Connect(b1, "Z", out))

	sinks := func(n *Net) string { return fmt.Sprint(n.Sinks) }
	c := d.Clone()
	if got, want := sinks(c.NetByName("mid")), "[u_b1.A mid]"; got != want {
		t.Errorf("clone sinks %s, want %s", got, want)
	}
	if c.Fingerprint() != d.Fingerprint() {
		t.Error("clone fingerprint differs from the original's")
	}

	buf, err := d.InsertBuffer(mid, l.Cell("BUF_X2_L"), []PinRef{{Inst: b1, Pin: "A"}, {Port: d.PortByName("mid")}})
	mustDo(err)
	bufOut := buf.OutputNet()
	if got, want := sinks(bufOut), "[u_b1.A mid]"; got != want {
		t.Fatalf("buffered sinks %s, want %s", got, want)
	}
	c = d.Clone()
	if got, want := sinks(c.NetByName(bufOut.Name)), "[u_b1.A mid]"; got != want {
		t.Errorf("clone of the buffered net lists %s, want %s", got, want)
	}
	if c.Fingerprint() != d.Fingerprint() {
		t.Error("clone fingerprint differs after InsertBuffer")
	}
}

// Sinks that keep a computed value live so the compiler cannot drop the
// call an allocation guard measures.
var (
	sinkNet   *Net
	sinkArea  float64
	sinkInsts []*Instance
)

// TestAccessorsAllocateNothing pins the cost of the hot accessors: pin
// lookups and the area walk allocate nothing, Instances allocates its
// result once, and a swap between cells with the same pins keeps the
// instance's connection slice.
func TestAccessorsAllocateNothing(t *testing.T) {
	d, inv, nand := buildChain(t)
	for _, c := range []struct {
		name string
		f    func()
		want float64
	}{
		{"Net", func() { sinkNet = nand.Net("B") }, 0},
		{"NetAt", func() { sinkNet = nand.NetAt(1) }, 0},
		{"OutputNet", func() { sinkNet = nand.OutputNet() }, 0},
		{"TotalArea", func() { sinkArea = d.TotalArea() }, 0},
		{"Instances", func() { sinkInsts = d.Instances() }, 1},
	} {
		if got := testing.AllocsPerRun(100, c.f); got != c.want {
			t.Errorf("%s allocates %v objects, want %v", c.name, got, c.want)
		}
	}
	conns := inv.conns
	for _, name := range []string{"INV_X1_H", "INV_X1_L", "INV_X1_MN"} {
		if err := d.ReplaceCell(inv, lib(t).Cell(name)); err != nil {
			t.Fatal(err)
		}
		if &inv.conns[0] != &conns[0] || len(inv.conns) != len(conns) {
			t.Errorf("swap to %s replaced the connection slice", name)
		}
	}
}

// refModel is a name-keyed reference for the random edit walk: what a
// design holds, stated without slots, IDs or pin indexes.
type refModel struct {
	insts, nets, ports []string // live names in insertion order
	cell               map[string]*liberty.Cell
	conn               map[string]map[string]string // instance → pin → net
	driver             map[string]string            // net → endpoint
	sinks              map[string][]string          // net → endpoints in order
}

func newRefModel() *refModel {
	return &refModel{
		cell:   map[string]*liberty.Cell{},
		conn:   map[string]map[string]string{},
		driver: map[string]string{},
		sinks:  map[string][]string{},
	}
}

func (m *refModel) addNet(name string) {
	if !slices.Contains(m.nets, name) {
		m.nets = append(m.nets, name)
	}
}

func (m *refModel) connect(inst, pin, net string) {
	ep := inst + "." + pin
	if m.cell[inst].Pin(pin).Dir == liberty.DirOutput {
		m.driver[net] = ep
	} else {
		m.sinks[net] = append(m.sinks[net], ep)
	}
	m.conn[inst][pin] = net
}

func (m *refModel) disconnect(inst, pin string) {
	net, ep := m.conn[inst][pin], inst+"."+pin
	if m.driver[net] == ep {
		delete(m.driver, net)
	} else {
		m.sinks[net] = slices.DeleteFunc(m.sinks[net], func(s string) bool { return s == ep })
	}
	delete(m.conn[inst], pin)
}

func (m *refModel) removeInstance(name string) {
	for _, p := range m.cell[name].Pins {
		if _, ok := m.conn[name][p.Name]; ok {
			m.disconnect(name, p.Name)
		}
	}
	m.insts = slices.DeleteFunc(m.insts, func(s string) bool { return s == name })
	delete(m.cell, name)
	delete(m.conn, name)
}

// violation is the error Validate must return under walkOpts: the first
// floating input in instance and pin order, else the first net with sinks
// and no driver.
func (m *refModel) violation() string {
	for _, name := range m.insts {
		c := m.cell[name]
		for _, p := range c.Pins {
			if _, ok := m.conn[name][p.Name]; !ok && p.Dir == liberty.DirInput && !walkOpts.AllowUnconnected[p.Name] {
				return fmt.Sprintf("netlist: %s.%s (%s) is unconnected", name, p.Name, c.Name)
			}
		}
	}
	for _, n := range m.nets {
		if _, ok := m.driver[n]; !ok && len(m.sinks[n]) > 0 {
			return fmt.Sprintf("netlist: net %s has %d sinks but no driver", n, len(m.sinks[n]))
		}
	}
	return ""
}

var walkOpts = ValidateOptions{AllowUnconnected: map[string]bool{"MTE": true, "VGND": true}}

func names[E any](es []E, name func(E) string) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = name(e)
	}
	return out
}

func instName(i *Instance) string { return i.Name }
func netName(n *Net) string       { return n.Name }
func portName(p *Port) string     { return p.Name }

// checkModel holds a design to the model after one walk step: iteration
// order, IDs, connections, Validate and the clone.
func checkModel(t *testing.T, step int, d *Design, m *refModel) {
	t.Helper()
	insts, nets := d.Instances(), d.Nets()
	if got := names(insts, instName); !slices.Equal(got, m.insts) {
		t.Fatalf("step %d: instances %v, model %v", step, got, m.insts)
	}
	if got := names(nets, netName); !slices.Equal(got, m.nets) {
		t.Fatalf("step %d: nets %v, model %v", step, got, m.nets)
	}
	if got := names(d.Ports(), portName); !slices.Equal(got, m.ports) {
		t.Fatalf("step %d: ports %v, model %v", step, got, m.ports)
	}
	if d.NumInstances() != len(m.insts) || d.NumNets() != len(m.nets) {
		t.Fatalf("step %d: counts %d/%d, model %d/%d", step, d.NumInstances(), d.NumNets(), len(m.insts), len(m.nets))
	}
	area := 0.0
	for _, inst := range insts {
		if int(inst.ID()) >= d.InstanceSlots() || d.insts[inst.ID()] != inst || d.Instance(inst.Name) != inst {
			t.Fatalf("step %d: instance %s ID %d does not index it", step, inst.Name, inst.ID())
		}
		if inst.Cell != m.cell[inst.Name] {
			t.Fatalf("step %d: %s is a %s, model %s", step, inst.Name, inst.Cell.Name, m.cell[inst.Name].Name)
		}
		for k, p := range inst.Cell.Pins {
			got := ""
			if n := inst.NetAt(k); n != nil {
				got = n.Name
			}
			if got != m.conn[inst.Name][p.Name] || inst.Net(p.Name) != inst.NetAt(k) {
				t.Fatalf("step %d: %s.%s on %q, model %q", step, inst.Name, p.Name, got, m.conn[inst.Name][p.Name])
			}
		}
		area += inst.Cell.AreaUm2
	}
	if d.TotalArea() != area {
		t.Fatalf("step %d: total area %v, want %v", step, d.TotalArea(), area)
	}
	for _, n := range nets {
		if int(n.ID()) >= d.NetSlots() || d.nets[n.ID()] != n || d.NetByName(n.Name) != n {
			t.Fatalf("step %d: net %s ID %d does not index it", step, n.Name, n.ID())
		}
		drv := ""
		if n.HasDriver() {
			drv = n.Driver.String()
		}
		if got := names(n.Sinks, PinRef.String); drv != m.driver[n.Name] || !slices.Equal(got, m.sinks[n.Name]) {
			t.Fatalf("step %d: net %s driver %q sinks %v, model %q %v", step, n.Name, drv, got, m.driver[n.Name], m.sinks[n.Name])
		}
	}
	errString := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	if got, want := errString(d.Validate(walkOpts)), m.violation(); got != want {
		t.Fatalf("step %d: Validate = %q, model %q", step, got, want)
	}
	c := d.Clone()
	if c.Fingerprint() != d.Fingerprint() {
		t.Fatalf("step %d: clone fingerprint differs", step)
	}
	if got := errString(c.Validate(walkOpts)); got != m.violation() {
		t.Fatalf("step %d: clone Validate = %q, model %q", step, got, m.violation())
	}
	if c.InstanceSlots() != len(m.insts) || c.NetSlots() != len(m.nets) {
		t.Fatalf("step %d: clone has %d/%d slots for %d/%d elements", step,
			c.InstanceSlots(), c.NetSlots(), len(m.insts), len(m.nets))
	}
	for i, inst := range c.Instances() {
		if inst.ID() != int32(i) {
			t.Fatalf("step %d: clone instance %s has ID %d at position %d", step, inst.Name, inst.ID(), i)
		}
	}
	for i, n := range c.Nets() {
		if n.ID() != int32(i) {
			t.Fatalf("step %d: clone net %s has ID %d at position %d", step, n.Name, n.ID(), i)
		}
	}
}

// TestRandomEditWalkMatchesModel drives a design through a seeded random
// walk of every edit the API offers (adds, removals that leave holes,
// re-adding a removed name, connects and disconnects, swaps across the L,
// H and MT variants including the pin-adding ones and a pin-reordered
// cell, buffer insertion, ports) and checks it against the name-keyed
// model after every step.
func TestRandomEditWalkMatchesModel(t *testing.T) {
	l := lib(t)
	// INV_X1_L with its pins listed output first: a swap to it cannot keep
	// the connection slice and has to move every connection.
	inv := l.Cell("INV_X1_L")
	reordered := *inv
	reordered.Name = "INV_X1_R"
	reordered.Pins = []*liberty.Pin{inv.Pins[1], inv.Pins[0]}
	cells := []*liberty.Cell{inv, l.Cell("NAND2_X1_L"), l.Cell("NOR2_X1_H"), l.Cell("BUF_X1_L")}
	flavors := []liberty.Flavor{liberty.FlavorLVT, liberty.FlavorHVT, liberty.FlavorMTConv,
		liberty.FlavorMTNoVGND, liberty.FlavorMTVGND}

	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, m := New("walk", l), newRefModel()
		var removedInsts, removedNets []string
		pick := func(names []string) string { return names[rng.Intn(len(names))] }
		addInstance := func(name string, c *liberty.Cell) {
			if _, err := d.AddInstance(name, c); err != nil {
				t.Fatal(err)
			}
			m.insts = append(m.insts, name)
			m.cell[name] = c
			m.conn[name] = map[string]string{}
		}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(12); {
			case op == 0 && len(removedInsts) > 0: // re-add a removed name
				i := rng.Intn(len(removedInsts))
				addInstance(removedInsts[i], cells[rng.Intn(len(cells))])
				removedInsts = slices.Delete(removedInsts, i, i+1)
			case op <= 1:
				addInstance(fmt.Sprintf("u%d", step), cells[rng.Intn(len(cells))])
			case op == 2 && len(removedNets) > 0:
				i := rng.Intn(len(removedNets))
				if _, err := d.AddNet(removedNets[i]); err != nil {
					t.Fatal(err)
				}
				m.addNet(removedNets[i])
				removedNets = slices.Delete(removedNets, i, i+1)
			case op <= 3:
				n := d.NewNetAuto("n")
				m.addNet(n.Name)
			case op == 4 && len(m.insts) > 0: // remove: leaves a hole
				name := pick(m.insts)
				if err := d.RemoveInstance(d.Instance(name)); err != nil {
					t.Fatal(err)
				}
				m.removeInstance(name)
				removedInsts = append(removedInsts, name)
			case op == 5 && len(m.nets) > 0:
				name := pick(m.nets)
				err := d.RemoveNet(d.NetByName(name))
				connected := m.driver[name] != "" || len(m.sinks[name]) > 0
				if (err == nil) == connected {
					t.Fatalf("step %d: RemoveNet(%s) = %v on a net connected=%v", step, name, err, connected)
				}
				if err == nil {
					m.nets = slices.DeleteFunc(m.nets, func(s string) bool { return s == name })
					removedNets = append(removedNets, name)
				}
			case op <= 7 && len(m.insts) > 0 && len(m.nets) > 0: // connect or disconnect a pin
				name := pick(m.insts)
				inst := d.Instance(name)
				p := inst.Cell.Pins[rng.Intn(len(inst.Cell.Pins))]
				if _, on := m.conn[name][p.Name]; on {
					if err := d.Disconnect(inst, p.Name); err != nil {
						t.Fatal(err)
					}
					m.disconnect(name, p.Name)
					break
				}
				net := pick(m.nets)
				err := d.Connect(inst, p.Name, d.NetByName(net))
				if clash := p.Dir == liberty.DirOutput && m.driver[net] != ""; (err != nil) != clash {
					t.Fatalf("step %d: Connect(%s.%s, %s) = %v with a driver clash %v", step, name, p.Name, net, err, clash)
				}
				if err == nil {
					m.connect(name, p.Name, net)
				}
			case op <= 9 && len(m.insts) > 0: // swap across the variants
				name := pick(m.insts)
				inst := d.Instance(name)
				to := l.Variant(inst.Cell, flavors[rng.Intn(len(flavors))])
				switch {
				case inst.Cell == &reordered:
					to = inv
				case inst.Cell == inv && rng.Intn(3) == 0:
					to = &reordered
				}
				if to == nil {
					break
				}
				lacks := false
				for pin := range m.conn[name] { // rangemap:ok any missing pin fails the swap
					lacks = lacks || to.Pin(pin) == nil
				}
				if err := d.ReplaceCell(inst, to); (err != nil) != lacks {
					t.Fatalf("step %d: ReplaceCell(%s, %s) = %v with a connected pin missing %v", step, name, to.Name, err, lacks)
				} else if err == nil {
					m.cell[name] = to
				}
			case op == 10 && len(m.nets) > 0: // buffer some of a net's sinks
				net := d.NetByName(pick(m.nets))
				var moved []PinRef
				for _, s := range net.Sinks {
					if rng.Intn(2) == 0 {
						moved = append(moved, s)
					}
				}
				if len(moved) == 0 {
					break
				}
				buf, err := d.InsertBuffer(net, l.Cell("BUF_X2_L"), moved)
				if err != nil {
					t.Fatal(err)
				}
				out := buf.OutputNet()
				m.insts = append(m.insts, buf.Name)
				m.cell[buf.Name] = buf.Cell
				m.conn[buf.Name] = map[string]string{}
				m.addNet(out.Name)
				m.connect(buf.Name, "A", net.Name)
				m.connect(buf.Name, "Z", out.Name)
				for _, s := range moved {
					if s.Inst != nil {
						m.disconnect(s.Inst.Name, s.Pin)
						m.connect(s.Inst.Name, s.Pin, out.Name)
						continue
					}
					m.sinks[net.Name] = slices.DeleteFunc(m.sinks[net.Name], func(e string) bool { return e == s.Port.Name })
					m.sinks[out.Name] = append(m.sinks[out.Name], s.Port.Name)
				}
			case op == 11: // a port on a new or an existing net
				name := fmt.Sprintf("p%d", step)
				if len(m.nets) > 0 && rng.Intn(2) == 0 {
					name = pick(m.nets)
				}
				dir := Dir(rng.Intn(2))
				if slices.Contains(m.ports, name) || (dir == DirInput && m.driver[name] != "") {
					break // AddPort refuses both
				}
				if _, err := d.AddPort(name, dir); err != nil {
					t.Fatalf("step %d: AddPort(%s): %v", step, name, err)
				}
				m.addNet(name)
				m.ports = append(m.ports, name)
				if dir == DirInput {
					m.driver[name] = name
				} else {
					m.sinks[name] = append(m.sinks[name], name)
				}
			}
			checkModel(t, step, d, m)
		}
	}
}
