package netlist

import (
	"fmt"
	"slices"

	"selectivemt/internal/liberty"
)

// ReplaceCell swaps the instance's cell for another with compatible pins:
// every currently connected pin must exist on the new cell with the same
// direction. Pins the new cell adds (MTE, VGND) start unconnected; pins the
// old cell had but the new lacks must be unconnected before the swap.
func (d *Design) ReplaceCell(inst *Instance, newCell *liberty.Cell) error {
	if newCell == nil {
		return fmt.Errorf("netlist: ReplaceCell(%s): nil cell", inst.Name)
	}
	// The connections are aligned with the old cell's pins, so walking
	// them fixes which violation is reported first.
	old := inst.Cell
	for k, op := range old.Pins {
		if inst.conns[k] == nil {
			continue
		}
		np := newCell.Pin(op.Name)
		if np == nil {
			return fmt.Errorf("netlist: ReplaceCell(%s): new cell %s lacks connected pin %q",
				inst.Name, newCell.Name, op.Name)
		}
		if op.Dir != np.Dir {
			return fmt.Errorf("netlist: ReplaceCell(%s): pin %q direction differs", inst.Name, op.Name)
		}
	}
	inst.conns = realign(inst.conns, old, newCell)
	inst.Cell = newCell
	d.record(Change{Kind: ChangeCellReplaced, Inst: inst, OldCell: old})
	return nil
}

// realign lays connections aligned with old's pins out for newCell's.
// When one pin list is a name-for-name prefix of the other, as between
// all generated variants of a cell (inputs, the output, then MTE or
// VGND), the slice is resized and kept; otherwise every connection moves
// to its pin's position on newCell. The caller has checked that the pins
// newCell lacks are unconnected.
func realign(conns []*Net, old, newCell *liberty.Cell) []*Net {
	n := len(newCell.Pins)
	for k := range min(len(old.Pins), n) {
		if old.Pins[k].Name != newCell.Pins[k].Name {
			out := make([]*Net, n)
			for j, p := range old.Pins {
				if conns[j] != nil {
					out[newCell.PinIndex(p.Name)] = conns[j]
				}
			}
			return out
		}
	}
	if n > len(conns) {
		conns = slices.Grow(conns, n-len(conns))
		clear(conns[len(conns):n])
	}
	return conns[:n]
}

// InsertBuffer splits a net: the original driver keeps driving net, a new
// buffer instance is fed from net, and the listed sinks are moved onto the
// buffer's output net. It returns the new buffer instance.
//
// bufCell must be a single-input single-output cell (BUF/CKBUF/INV-like);
// with an inverting cell the caller is responsible for logic correctness.
func (d *Design) InsertBuffer(net *Net, bufCell *liberty.Cell, sinks []PinRef) (*Instance, error) {
	if len(sinks) == 0 {
		return nil, fmt.Errorf("netlist: InsertBuffer on %s: no sinks to move", net.Name)
	}
	in := bufCell.Inputs()
	out := bufCell.Output()
	if len(in) != 1 || out == nil {
		return nil, fmt.Errorf("netlist: %s is not a buffer-shaped cell", bufCell.Name)
	}
	// Verify the sinks belong to the net.
	onNet := make(map[PinRef]bool, len(net.Sinks))
	for _, s := range net.Sinks {
		onNet[s] = true
	}
	for _, s := range sinks {
		if !onNet[s] {
			return nil, fmt.Errorf("netlist: sink %s is not on net %s", s, net.Name)
		}
	}

	buf, err := d.NewInstanceAuto("buf", bufCell)
	if err != nil {
		return nil, err
	}
	newNet := d.NewNetAuto(net.Name + "_buf")
	newNet.IsClock = net.IsClock
	newNet.IsMTE = net.IsMTE
	if err := d.Connect(buf, in[0].Name, net); err != nil {
		return nil, err
	}
	if err := d.Connect(buf, out.Name, newNet); err != nil {
		return nil, err
	}
	portsMoved := false
	for _, s := range sinks {
		if s.Inst != nil {
			if err := d.Disconnect(s.Inst, s.Pin); err != nil {
				return nil, err
			}
			if err := d.Connect(s.Inst, s.Pin, newNet); err != nil {
				return nil, err
			}
		} else if s.Port != nil {
			// Move an output port load.
			for i, ns := range net.Sinks {
				if ns.Port == s.Port {
					net.Sinks = append(net.Sinks[:i], net.Sinks[i+1:]...)
					break
				}
			}
			s.Port.Net = newNet
			newNet.Sinks = append(newNet.Sinks, PinRef{Port: s.Port})
			portsMoved = true
		}
	}
	if portsMoved {
		// Port loads bypass Connect/Disconnect; journal the rewiring of
		// both endpoints once for the whole batch.
		d.record(Change{Kind: ChangeSinksMoved, Net: net})
		d.record(Change{Kind: ChangeSinksMoved, Net: newNet})
	}
	return buf, nil
}

// TopoOrder returns instances in combinational topological order: an
// instance appears after every combinational instance that feeds its data
// inputs. Flop outputs and primary inputs are sources; flop D/CK pins are
// sinks and impose no ordering. An error reports a combinational cycle.
func (d *Design) TopoOrder() ([]*Instance, error) {
	slots := d.insts
	ns := len(slots)
	// Slice-indexed Kahn over a CSR dependents array indexed by instance
	// ID: two passes over the edges (count, then fill). The fill pass
	// visits edges in instances × input-pins order, so each driver's
	// dependent list, and with it the output order, is the one a
	// per-driver append would build.
	forEachEdge := func(visit func(drv, sink int32)) {
		for _, inst := range slots {
			if inst == nil || inst.Cell.IsSequential() {
				continue // flops are sources; their inputs don't order them
			}
			for k, p := range inst.Cell.Pins {
				if p.Dir != liberty.DirInput || p.IsVGND || p.IsEnable {
					continue
				}
				net := inst.conns[k]
				if net == nil || net.Driver.Inst == nil {
					continue
				}
				drv := net.Driver.Inst
				if drv.Cell.IsSequential() || !d.hasInstance(drv) {
					continue
				}
				visit(drv.id, inst.id)
			}
		}
	}
	off := make([]int32, ns+1)
	forEachEdge(func(drv, _ int32) { off[drv+1]++ })
	for i := 0; i < ns; i++ {
		off[i+1] += off[i]
	}
	indeg := make([]int32, ns)
	dep := make([]int32, off[ns])
	fill := make([]int32, ns)
	copy(fill, off[:ns])
	forEachEdge(func(drv, sink int32) {
		dep[fill[drv]] = sink
		fill[drv]++
		indeg[sink]++
	})
	n := d.NumInstances()
	queue := make([]int32, 0, n)
	for i, inst := range slots {
		if inst != nil && indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	out := make([]*Instance, 0, n)
	for qi := 0; qi < len(queue); qi++ {
		i := queue[qi]
		out = append(out, slots[i])
		for _, s := range dep[off[i]:off[i+1]] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(out) != n {
		return nil, fmt.Errorf("netlist: combinational cycle among %d instances", n-len(out))
	}
	return out, nil
}

// Clone returns a deep copy of the design sharing the (immutable) library.
// The copy lists every element and every net endpoint in the original's
// order, with the IDs compacted. It starts with an empty change journal:
// observers of the original cannot follow it into the copy, and observers
// of the copy start from its post-clone revision, which counts one entry
// per net as if the nets had been added one by one.
func (d *Design) Clone() *Design {
	insts, nets := d.Instances(), d.Nets()
	c := &Design{
		Name:               d.Name,
		Lib:                d.Lib,
		Core:               d.Core,
		anon:               d.anon,
		journalCapOverride: d.journalCapOverride,
		insts:              make([]*Instance, len(insts)),
		nets:               make([]*Net, len(nets)),
		ports:              make([]*Port, len(d.ports)),
		instByName:         make(map[string]*Instance, len(insts)),
		netByName:          make(map[string]*Net, len(nets)),
		portByName:         make(map[string]*Port, len(d.ports)),
		rev:                uint64(len(nets)),
		journalBase:        uint64(len(nets)),
	}
	// The copies are carved from slabs; instOf and netOf find the copy of
	// an element by its ID in d.
	pins, sinks := 0, 0
	for _, inst := range insts {
		pins += len(inst.conns)
	}
	for _, n := range nets {
		sinks += len(n.Sinks)
	}
	instSlab, netSlab, portSlab := make([]Instance, len(insts)), make([]Net, len(nets)), make([]Port, len(d.ports))
	connSlab, sinkSlab := make([]*Net, pins), make([]PinRef, sinks)
	instOf, netOf := make([]*Instance, len(d.insts)), make([]*Net, len(d.nets))
	for i, src := range nets {
		n := &netSlab[i]
		*n = *src
		n.id = int32(i)
		netOf[src.id], c.nets[i], c.netByName[n.Name] = n, n, n
	}
	copyOf := func(n *Net) *Net {
		if n == nil || !d.hasNet(n) {
			return nil
		}
		return netOf[n.id]
	}
	for i, src := range d.ports {
		p := &portSlab[i]
		*p = *src
		p.Net = copyOf(src.Net)
		c.ports[i], c.portByName[p.Name] = p, p
	}
	for i, src := range insts {
		inst := &instSlab[i]
		*inst = *src
		inst.id = int32(i)
		inst.conns, connSlab = connSlab[:len(src.conns):len(src.conns)], connSlab[len(src.conns):]
		for k, n := range src.conns {
			inst.conns[k] = copyOf(n)
		}
		instOf[src.id], c.insts[i], c.instByName[inst.Name] = inst, inst, inst
	}
	ref := func(r PinRef) PinRef {
		switch {
		case r.Inst != nil && d.hasInstance(r.Inst):
			return PinRef{Inst: instOf[r.Inst.id], Pin: r.Pin}
		case r.Port != nil && int(r.Port.id) < len(d.ports) && d.ports[r.Port.id] == r.Port:
			return PinRef{Port: c.ports[r.Port.id]}
		}
		return PinRef{}
	}
	for i, src := range nets {
		n := c.nets[i]
		n.Driver = ref(src.Driver)
		n.Sinks, sinkSlab = sinkSlab[:len(src.Sinks):len(src.Sinks)], sinkSlab[len(src.Sinks):]
		for j, s := range src.Sinks {
			n.Sinks[j] = ref(s)
		}
	}
	return c
}
