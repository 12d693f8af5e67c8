// Package netlist holds the flat gate-level design representation shared by
// every engine in the repository: instances of library cells, nets with one
// driver and many sinks, and primary ports. It guarantees referential
// consistency under the editing operations the Selective-MT flow performs
// (cell swaps, buffer insertion, switch and holder insertion).
//
// Iteration order everywhere is insertion order, so all algorithms built on
// the netlist are deterministic.
//
// A Design stores its instances, nets and ports in insertion-ordered
// slices. The ID of an instance or a net is its slot in that slice: it is
// fixed for the element's life in its design and below InstanceSlots or
// NetSlots, so engines keep per-element state in slices indexed by ID
// rather than in maps keyed by pointer. A slice entry is only trusted
// after comparing the element stored there, since an element of another
// design (a clone, say) can carry the same ID. A removal nils its slot,
// leaving a hole that iteration skips, so a name that is removed and added
// again is listed once, at the end; Clone compacts the slots. The name
// maps serve by-name lookup and duplicate checks only.
//
// An instance keeps its connections in a slice aligned with its cell's
// Pins: NetAt(k) reads the net on Cell.Pins[k] and Net(pin) finds a pin by
// name. ReplaceCell carries the slice across a swap.
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

	id int32 // slot in the design's port list
}

// Instance is one placed cell.
type Instance struct {
	Name string
	Cell *liberty.Cell // set by ReplaceCell; any other write must keep the pin list

	Pos    geom.Point // placement location (µm)
	Placed bool
	Fixed  bool // do not move during legalization (e.g. ECO-locked)

	id    int32
	conns []*Net // aligned with Cell.Pins
}

// ID returns the instance's slot in its design (see the package doc).
func (i *Instance) ID() int32 { return i.id }

// Net returns the net on the named pin, or nil.
func (i *Instance) Net(pin string) *Net {
	if k := i.Cell.PinIndex(pin); k >= 0 {
		return i.conns[k]
	}
	return nil
}

// NetAt returns the net on the cell's k-th pin (Cell.Pins[k]), or nil.
func (i *Instance) NetAt(k int) *Net { return i.conns[k] }

// OutputNet returns the net driven by the instance's (first) output pin.
func (i *Instance) OutputNet() *Net {
	for k, p := range i.Cell.Pins {
		if p.Dir == liberty.DirOutput {
			return i.conns[k]
		}
	}
	return nil
}

// Net connects one driver to its sinks.
type Net struct {
	Name   string
	Driver PinRef   // zero value means undriven
	Sinks  []PinRef // loads

	IsClock bool // in the clock tree
	IsMTE   bool // the sleep-enable network
	IsVGND  bool // a virtual-ground net

	id int32
}

// ID returns the net's slot in its design (see the package doc).
func (n *Net) ID() int32 { return n.id }

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

	// The elements in insertion order, indexed by ID; a removed element
	// leaves a nil slot. Ports are never removed.
	insts []*Instance
	nets  []*Net
	ports []*Port
	// The live elements by name.
	instByName map[string]*Instance
	netByName  map[string]*Net
	portByName map[string]*Port

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
		Name:       name,
		Lib:        lib,
		instByName: make(map[string]*Instance),
		netByName:  make(map[string]*Net),
		portByName: make(map[string]*Port),
	}
}

// Instances returns all instances in insertion order.
func (d *Design) Instances() []*Instance { return live(d.insts, len(d.instByName)) }

// Nets returns all nets in insertion order.
func (d *Design) Nets() []*Net { return live(d.nets, len(d.netByName)) }

// Ports returns all ports in insertion order.
func (d *Design) Ports() []*Port { return slices.Clone(d.ports) }

// live copies the n non-nil entries of slots, in order.
func live[E any](slots []*E, n int) []*E {
	if n == len(slots) {
		return slices.Clone(slots)
	}
	out := make([]*E, 0, n)
	for _, e := range slots {
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}

// InstanceSlots bounds the instance IDs: every ID is below it, so it sizes
// a slice indexed by instance ID.
func (d *Design) InstanceSlots() int { return len(d.insts) }

// NetSlots bounds the net IDs as InstanceSlots bounds the instance IDs.
func (d *Design) NetSlots() int { return len(d.nets) }

// Instance returns the named instance, or nil.
func (d *Design) Instance(name string) *Instance { return d.instByName[name] }

// NetByName returns the named net, or nil.
func (d *Design) NetByName(name string) *Net { return d.netByName[name] }

// PortByName returns the named port, or nil.
func (d *Design) PortByName(name string) *Port { return d.portByName[name] }

// NumInstances returns the instance count.
func (d *Design) NumInstances() int { return len(d.instByName) }

// NumNets returns the net count.
func (d *Design) NumNets() int { return len(d.netByName) }

// hasInstance reports whether inst is live in d.
func (d *Design) hasInstance(inst *Instance) bool {
	return int(inst.id) < len(d.insts) && d.insts[inst.id] == inst
}

// hasNet reports whether n is live in d.
func (d *Design) hasNet(n *Net) bool {
	return int(n.id) < len(d.nets) && d.nets[n.id] == n
}

// AddPort declares a primary port and creates (or reuses) the net with the
// same name. Input ports drive their net; output ports sink it.
func (d *Design) AddPort(name string, dir Dir) (*Port, error) {
	if _, dup := d.portByName[name]; dup {
		return nil, fmt.Errorf("netlist: duplicate port %q", name)
	}
	net, err := d.ensureNet(name)
	if err != nil {
		return nil, err
	}
	p := &Port{Name: name, Dir: dir, Net: net, id: int32(len(d.ports))}
	if dir == DirInput {
		if net.HasDriver() {
			return nil, fmt.Errorf("netlist: net %q already driven; cannot add input port", name)
		}
		net.Driver = PinRef{Port: p}
	} else {
		net.Sinks = append(net.Sinks, PinRef{Port: p})
	}
	d.ports = append(d.ports, p)
	d.portByName[name] = p
	d.record(Change{Kind: ChangePortAdded, Net: net})
	return p, nil
}

// AddNet creates a net.
func (d *Design) AddNet(name string) (*Net, error) {
	if _, dup := d.netByName[name]; dup {
		return nil, fmt.Errorf("netlist: duplicate net %q", name)
	}
	return d.ensureNet(name)
}

func (d *Design) ensureNet(name string) (*Net, error) {
	if n, ok := d.netByName[name]; ok {
		return n, nil
	}
	n := &Net{Name: name, id: int32(len(d.nets))}
	d.nets = append(d.nets, n)
	d.netByName[name] = n
	d.record(Change{Kind: ChangeNetAdded, Net: n})
	return n, nil
}

// NewNetAuto creates a net with a fresh generated name using the prefix.
func (d *Design) NewNetAuto(prefix string) *Net {
	for {
		d.anon++
		name := fmt.Sprintf("%s_%d", prefix, d.anon)
		if _, dup := d.netByName[name]; !dup {
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
	if _, dup := d.instByName[name]; dup {
		return nil, fmt.Errorf("netlist: duplicate instance %q", name)
	}
	inst := &Instance{Name: name, Cell: cell, id: int32(len(d.insts)), conns: make([]*Net, len(cell.Pins))}
	d.insts = append(d.insts, inst)
	d.instByName[name] = inst
	d.record(Change{Kind: ChangeInstanceAdded, Inst: inst})
	return inst, nil
}

// NewInstanceAuto creates an instance with a generated name.
func (d *Design) NewInstanceAuto(prefix string, cell *liberty.Cell) (*Instance, error) {
	for {
		d.anon++
		name := fmt.Sprintf("%s_%d", prefix, d.anon)
		if _, dup := d.instByName[name]; !dup {
			return d.AddInstance(name, cell)
		}
	}
}

// Connect attaches an instance pin to a net, enforcing single-driver nets.
func (d *Design) Connect(inst *Instance, pin string, net *Net) error {
	k := inst.Cell.PinIndex(pin)
	if k < 0 {
		return fmt.Errorf("netlist: cell %s has no pin %q (instance %s)", inst.Cell.Name, pin, inst.Name)
	}
	if old := inst.conns[k]; old != nil {
		return fmt.Errorf("netlist: %s.%s already connected to %s", inst.Name, pin, old.Name)
	}
	ref := PinRef{Inst: inst, Pin: pin}
	if inst.Cell.Pins[k].Dir == liberty.DirOutput {
		if net.HasDriver() {
			return fmt.Errorf("netlist: net %s already driven by %s; cannot drive from %s.%s",
				net.Name, net.Driver, inst.Name, pin)
		}
		net.Driver = ref
	} else {
		net.Sinks = append(net.Sinks, ref)
	}
	inst.conns[k] = net
	d.record(Change{Kind: ChangeConnected, Inst: inst, Pin: pin, Net: net})
	return nil
}

// Disconnect detaches an instance pin from its net.
func (d *Design) Disconnect(inst *Instance, pin string) error {
	k := inst.Cell.PinIndex(pin)
	if k < 0 || inst.conns[k] == nil {
		return fmt.Errorf("netlist: %s.%s is not connected", inst.Name, pin)
	}
	net := inst.conns[k]
	if inst.Cell.Pins[k].Dir == liberty.DirOutput && net.Driver.Inst == inst && net.Driver.Pin == pin {
		net.Driver = PinRef{}
	} else {
		for i, s := range net.Sinks {
			if s.Inst == inst && s.Pin == pin {
				net.Sinks = append(net.Sinks[:i], net.Sinks[i+1:]...)
				break
			}
		}
	}
	inst.conns[k] = nil
	d.record(Change{Kind: ChangeDisconnected, Inst: inst, Pin: pin, Net: net})
	return nil
}

// RemoveInstance disconnects and deletes the instance.
func (d *Design) RemoveInstance(inst *Instance) error {
	if !d.hasInstance(inst) {
		return fmt.Errorf("netlist: instance %q not in design", inst.Name)
	}
	// Disconnect in the cell's pin order so the journal lists the
	// disconnects identically on every run.
	for k, p := range inst.Cell.Pins {
		if inst.conns[k] == nil {
			continue
		}
		if err := d.Disconnect(inst, p.Name); err != nil {
			return err
		}
	}
	d.insts[inst.id] = nil
	delete(d.instByName, inst.Name)
	d.record(Change{Kind: ChangeInstanceRemoved, Inst: inst})
	return nil
}

// RemoveNet deletes an unconnected net.
func (d *Design) RemoveNet(net *Net) error {
	if !d.hasNet(net) {
		return fmt.Errorf("netlist: net %q not in design", net.Name)
	}
	if net.HasDriver() || len(net.Sinks) > 0 {
		return fmt.Errorf("netlist: net %q still connected", net.Name)
	}
	d.nets[net.id] = nil
	delete(d.netByName, net.Name)
	d.record(Change{Kind: ChangeNetRemoved, Net: net})
	return nil
}

// TotalArea returns the summed cell area in µm².
func (d *Design) TotalArea() float64 {
	var a float64
	for _, inst := range d.insts {
		if inst != nil {
			a += inst.Cell.AreaUm2
		}
	}
	return a
}

// CountByFlavor tallies instances per cell flavor.
func (d *Design) CountByFlavor() map[liberty.Flavor]int {
	out := make(map[liberty.Flavor]int)
	for _, inst := range d.insts {
		if inst != nil {
			out[inst.Cell.Flavor]++
		}
	}
	return out
}

// CountByKind tallies instances per cell kind.
func (d *Design) CountByKind() map[liberty.Kind]int {
	out := make(map[liberty.Kind]int)
	for _, inst := range d.insts {
		if inst != nil {
			out[inst.Cell.Kind]++
		}
	}
	return out
}
