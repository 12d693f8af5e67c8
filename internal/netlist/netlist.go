// Package netlist holds the flat gate-level design representation shared by
// every engine in the repository: instances of library cells, nets with one
// driver and many sinks, and primary ports. It guarantees referential
// consistency under the editing operations the Selective-MT flow performs
// (cell swaps, buffer insertion, switch and holder insertion).
//
// Iteration order everywhere is insertion order, so all algorithms built on
// the netlist are deterministic.
package netlist

import (
	"fmt"
	"slices"

	"selectivemt/internal/geom"
	"selectivemt/internal/liberty"
)

// Dir is a port direction.
type Dir int

// Port directions.
const (
	DirInput Dir = iota
	DirOutput
)

// PinRef identifies one endpoint of a net: either an instance pin
// (Inst != nil) or a primary port (Inst == nil, Port != nil).
type PinRef struct {
	Inst *Instance
	Pin  string
	Port *Port
}

// String renders "inst.PIN" or "port".
func (r PinRef) String() string {
	if r.Inst != nil {
		return r.Inst.Name + "." + r.Pin
	}
	if r.Port != nil {
		return r.Port.Name
	}
	return "<nil>"
}

// Port is a primary input or output of the design.
type Port struct {
	Name    string
	Dir     Dir
	Net     *Net
	IsClock bool

	Pos    geom.Point // boundary location assigned by the placer
	Placed bool
}

// Instance is one placed cell.
type Instance struct {
	Name  string
	Cell  *liberty.Cell
	Conns map[string]*Net // pin name → net

	Pos    geom.Point // placement location (µm)
	Placed bool
	Fixed  bool // do not move during legalization (e.g. ECO-locked)
}

// Net returns the net on the named pin, or nil.
func (i *Instance) Net(pin string) *Net { return i.Conns[pin] }

// OutputNet returns the net driven by the instance's (first) output pin.
func (i *Instance) OutputNet() *Net {
	out := i.Cell.Output()
	if out == nil {
		return nil
	}
	return i.Conns[out.Name]
}

// Net connects one driver to its sinks.
type Net struct {
	Name   string
	Driver PinRef   // zero value means undriven
	Sinks  []PinRef // loads

	IsClock bool // in the clock tree
	IsMTE   bool // the sleep-enable network
	IsVGND  bool // a virtual-ground net
}

// HasDriver reports whether the net has a driver endpoint.
func (n *Net) HasDriver() bool { return n.Driver.Inst != nil || n.Driver.Port != nil }

// Degree returns the number of endpoints (driver + sinks).
func (n *Net) Degree() int {
	d := len(n.Sinks)
	if n.HasDriver() {
		d++
	}
	return d
}

// Design is a flat gate-level netlist bound to a library.
type Design struct {
	Name string
	Lib  *liberty.Library

	insts map[string]*Instance
	nets  map[string]*Net
	ports map[string]*Port
	// Names of the live elements in insertion order. A removal drops its
	// name, so a name removed and added again is listed once, at the end.
	instOrder []string
	netOrder  []string
	portOrder []string

	// Core is the placement region; set by the placer.
	Core geom.Rect

	anon int // counter for generated names

	// Change journal (see journal.go): rev counts every mutation made
	// through the Design API; journal retains the tail of those edits so
	// incremental observers (the STA timer) can re-derive exactly what
	// went stale since the revision they last saw.
	rev         uint64
	journalBase uint64
	journal     []Change
	// journalCapOverride, when positive, replaces the size-scaled
	// retained-history bound (see journalCap / SetJournalCap).
	journalCapOverride int
}

// New creates an empty design bound to lib.
func New(name string, lib *liberty.Library) *Design {
	return &Design{
		Name:  name,
		Lib:   lib,
		insts: make(map[string]*Instance),
		nets:  make(map[string]*Net),
		ports: make(map[string]*Port),
	}
}

// Instances returns all instances in insertion order.
func (d *Design) Instances() []*Instance {
	out := make([]*Instance, len(d.instOrder))
	for i, n := range d.instOrder {
		out[i] = d.insts[n]
	}
	return out
}

// Nets returns all nets in insertion order.
func (d *Design) Nets() []*Net {
	out := make([]*Net, len(d.netOrder))
	for i, n := range d.netOrder {
		out[i] = d.nets[n]
	}
	return out
}

// Ports returns all ports in insertion order.
func (d *Design) Ports() []*Port {
	out := make([]*Port, 0, len(d.portOrder))
	for _, n := range d.portOrder {
		out = append(out, d.ports[n])
	}
	return out
}

// Instance returns the named instance, or nil.
func (d *Design) Instance(name string) *Instance { return d.insts[name] }

// NetByName returns the named net, or nil.
func (d *Design) NetByName(name string) *Net { return d.nets[name] }

// PortByName returns the named port, or nil.
func (d *Design) PortByName(name string) *Port { return d.ports[name] }

// NumInstances returns the instance count.
func (d *Design) NumInstances() int { return len(d.insts) }

// NumNets returns the net count.
func (d *Design) NumNets() int { return len(d.nets) }

// AddPort declares a primary port and creates (or reuses) the net with the
// same name. Input ports drive their net; output ports sink it.
func (d *Design) AddPort(name string, dir Dir) (*Port, error) {
	if _, dup := d.ports[name]; dup {
		return nil, fmt.Errorf("netlist: duplicate port %q", name)
	}
	net, err := d.ensureNet(name)
	if err != nil {
		return nil, err
	}
	p := &Port{Name: name, Dir: dir, Net: net}
	if dir == DirInput {
		if net.HasDriver() {
			return nil, fmt.Errorf("netlist: net %q already driven; cannot add input port", name)
		}
		net.Driver = PinRef{Port: p}
	} else {
		net.Sinks = append(net.Sinks, PinRef{Port: p})
	}
	d.ports[name] = p
	d.portOrder = append(d.portOrder, name)
	d.record(Change{Kind: ChangePortAdded, Net: net})
	return p, nil
}

// AddNet creates a net.
func (d *Design) AddNet(name string) (*Net, error) {
	if _, dup := d.nets[name]; dup {
		return nil, fmt.Errorf("netlist: duplicate net %q", name)
	}
	return d.ensureNet(name)
}

func (d *Design) ensureNet(name string) (*Net, error) {
	if n, ok := d.nets[name]; ok {
		return n, nil
	}
	n := &Net{Name: name}
	d.nets[name] = n
	d.netOrder = append(d.netOrder, name)
	d.record(Change{Kind: ChangeNetAdded, Net: n})
	return n, nil
}

// NewNetAuto creates a net with a fresh generated name using the prefix.
func (d *Design) NewNetAuto(prefix string) *Net {
	for {
		d.anon++
		name := fmt.Sprintf("%s_%d", prefix, d.anon)
		if _, dup := d.nets[name]; !dup {
			n, _ := d.ensureNet(name)
			return n
		}
	}
}

// AddInstance creates an unconnected instance of cell.
func (d *Design) AddInstance(name string, cell *liberty.Cell) (*Instance, error) {
	if cell == nil {
		return nil, fmt.Errorf("netlist: nil cell for instance %q", name)
	}
	if _, dup := d.insts[name]; dup {
		return nil, fmt.Errorf("netlist: duplicate instance %q", name)
	}
	inst := &Instance{Name: name, Cell: cell, Conns: make(map[string]*Net)}
	d.insts[name] = inst
	d.instOrder = append(d.instOrder, name)
	d.record(Change{Kind: ChangeInstanceAdded, Inst: inst})
	return inst, nil
}

// NewInstanceAuto creates an instance with a generated name.
func (d *Design) NewInstanceAuto(prefix string, cell *liberty.Cell) (*Instance, error) {
	for {
		d.anon++
		name := fmt.Sprintf("%s_%d", prefix, d.anon)
		if _, dup := d.insts[name]; !dup {
			return d.AddInstance(name, cell)
		}
	}
}

// Connect attaches an instance pin to a net, enforcing single-driver nets.
func (d *Design) Connect(inst *Instance, pin string, net *Net) error {
	cp := inst.Cell.Pin(pin)
	if cp == nil {
		return fmt.Errorf("netlist: cell %s has no pin %q (instance %s)", inst.Cell.Name, pin, inst.Name)
	}
	if old := inst.Conns[pin]; old != nil {
		return fmt.Errorf("netlist: %s.%s already connected to %s", inst.Name, pin, old.Name)
	}
	ref := PinRef{Inst: inst, Pin: pin}
	if cp.Dir == liberty.DirOutput {
		if net.HasDriver() {
			return fmt.Errorf("netlist: net %s already driven by %s; cannot drive from %s.%s",
				net.Name, net.Driver, inst.Name, pin)
		}
		net.Driver = ref
	} else {
		net.Sinks = append(net.Sinks, ref)
	}
	inst.Conns[pin] = net
	d.record(Change{Kind: ChangeConnected, Inst: inst, Pin: pin, Net: net})
	return nil
}

// Disconnect detaches an instance pin from its net.
func (d *Design) Disconnect(inst *Instance, pin string) error {
	net := inst.Conns[pin]
	if net == nil {
		return fmt.Errorf("netlist: %s.%s is not connected", inst.Name, pin)
	}
	cp := inst.Cell.Pin(pin)
	if cp != nil && cp.Dir == liberty.DirOutput && net.Driver.Inst == inst && net.Driver.Pin == pin {
		net.Driver = PinRef{}
	} else {
		for i, s := range net.Sinks {
			if s.Inst == inst && s.Pin == pin {
				net.Sinks = append(net.Sinks[:i], net.Sinks[i+1:]...)
				break
			}
		}
	}
	delete(inst.Conns, pin)
	d.record(Change{Kind: ChangeDisconnected, Inst: inst, Pin: pin, Net: net})
	return nil
}

// RemoveInstance disconnects and deletes the instance.
func (d *Design) RemoveInstance(inst *Instance) error {
	if d.insts[inst.Name] != inst {
		return fmt.Errorf("netlist: instance %q not in design", inst.Name)
	}
	// Disconnect in the cell's pin order so the journal lists the
	// disconnects identically on every run.
	for _, p := range inst.Cell.Pins {
		if inst.Conns[p.Name] == nil {
			continue
		}
		if err := d.Disconnect(inst, p.Name); err != nil {
			return err
		}
	}
	delete(d.insts, inst.Name)
	d.instOrder = dropName(d.instOrder, inst.Name)
	d.record(Change{Kind: ChangeInstanceRemoved, Inst: inst})
	return nil
}

// RemoveNet deletes an unconnected net.
func (d *Design) RemoveNet(net *Net) error {
	if d.nets[net.Name] != net {
		return fmt.Errorf("netlist: net %q not in design", net.Name)
	}
	if net.HasDriver() || len(net.Sinks) > 0 {
		return fmt.Errorf("netlist: net %q still connected", net.Name)
	}
	delete(d.nets, net.Name)
	d.netOrder = dropName(d.netOrder, net.Name)
	d.record(Change{Kind: ChangeNetRemoved, Net: net})
	return nil
}

// TotalArea returns the summed cell area in µm².
func (d *Design) TotalArea() float64 {
	var a float64
	for _, name := range d.instOrder {
		a += d.insts[name].Cell.AreaUm2
	}
	return a
}

// dropName deletes a removed element's name from an insertion-order
// slice. The scan is linear, but the flow removes nothing after
// placement, so removals are rare.
func dropName(order []string, name string) []string {
	if i := slices.Index(order, name); i >= 0 {
		return slices.Delete(order, i, i+1)
	}
	return order
}

// CountByFlavor tallies instances per cell flavor.
func (d *Design) CountByFlavor() map[liberty.Flavor]int {
	out := make(map[liberty.Flavor]int)
	for _, inst := range d.Instances() {
		out[inst.Cell.Flavor]++
	}
	return out
}

// CountByKind tallies instances per cell kind.
func (d *Design) CountByKind() map[liberty.Kind]int {
	out := make(map[liberty.Kind]int)
	for _, inst := range d.Instances() {
		out[inst.Cell.Kind]++
	}
	return out
}
