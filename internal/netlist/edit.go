package netlist

import (
	"fmt"

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
	// Connect only accepts pins the cell declares, and every swap keeps
	// them declared, so the cell's pin list covers the connections and
	// fixes which violation is reported first.
	for _, op := range inst.Cell.Pins {
		if inst.Conns[op.Name] == nil {
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
	old := inst.Cell
	inst.Cell = newCell
	d.record(Change{Kind: ChangeCellReplaced, Inst: inst, OldCell: old})
	return nil
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

// Fanout returns the instances and ports fed by the instance's output net.
func (d *Design) Fanout(inst *Instance) []PinRef {
	n := inst.OutputNet()
	if n == nil {
		return nil
	}
	out := make([]PinRef, len(n.Sinks))
	copy(out, n.Sinks)
	return out
}

// Fanin returns the driving PinRef of each connected data-input pin.
func (d *Design) Fanin(inst *Instance) []PinRef {
	var out []PinRef
	for _, p := range inst.Cell.Pins {
		if p.Dir != liberty.DirInput {
			continue
		}
		net := inst.Conns[p.Name]
		if net != nil && net.HasDriver() {
			out = append(out, net.Driver)
		}
	}
	return out
}

// TopoOrder returns instances in combinational topological order: an
// instance appears after every combinational instance that feeds its data
// inputs. Flop outputs and primary inputs are sources; flop D/CK pins are
// sinks and impose no ordering. An error reports a combinational cycle.
func (d *Design) TopoOrder() ([]*Instance, error) {
	insts := d.Instances()
	ni := len(insts)
	idx := make(map[*Instance]int32, ni)
	for i, inst := range insts {
		idx[inst] = int32(i)
	}
	// Slice-indexed Kahn over a CSR dependents array: two passes over the
	// edges (count, then fill). The fill pass visits edges in the same
	// insts × input-pins order a per-driver append would, so each driver's
	// dependent list — and therefore the output order — is unchanged from
	// the map-based build this replaces.
	forEachEdge := func(visit func(drv, sink int32)) {
		for si, inst := range insts {
			if inst.Cell.IsSequential() {
				continue // flops are sources; their inputs don't order them
			}
			for _, p := range inst.Cell.Pins {
				if p.Dir != liberty.DirInput || p.IsVGND || p.IsEnable {
					continue
				}
				net := inst.Conns[p.Name]
				if net == nil || net.Driver.Inst == nil {
					continue
				}
				drv := net.Driver.Inst
				if drv.Cell.IsSequential() {
					continue
				}
				visit(idx[drv], int32(si))
			}
		}
	}
	off := make([]int32, ni+1)
	forEachEdge(func(drv, _ int32) { off[drv+1]++ })
	for i := 0; i < ni; i++ {
		off[i+1] += off[i]
	}
	indeg := make([]int32, ni)
	dep := make([]int32, off[ni])
	fill := make([]int32, ni)
	copy(fill, off[:ni])
	forEachEdge(func(drv, sink int32) {
		dep[fill[drv]] = sink
		fill[drv]++
		indeg[sink]++
	})
	queue := make([]int32, 0, ni)
	for i := range insts {
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	out := make([]*Instance, 0, ni)
	for qi := 0; qi < len(queue); qi++ {
		i := queue[qi]
		out = append(out, insts[i])
		for _, s := range dep[off[i]:off[i+1]] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(out) != ni {
		return nil, fmt.Errorf("netlist: combinational cycle among %d instances", ni-len(out))
	}
	return out, nil
}

// Clone returns a deep copy of the design sharing the (immutable) library.
// The clone starts with an empty change journal (construction entries are
// dropped): observers of the original cannot follow it into the copy, and
// observers of the copy start from its post-clone revision.
func (d *Design) Clone() *Design {
	c := New(d.Name, d.Lib)
	c.Core = d.Core
	c.anon = d.anon
	c.journalCapOverride = d.journalCapOverride
	for _, name := range d.netOrder {
		src := d.nets[name]
		n, _ := c.ensureNet(name)
		n.IsClock, n.IsMTE, n.IsVGND = src.IsClock, src.IsMTE, src.IsVGND
	}
	for _, name := range d.portOrder {
		src := d.ports[name]
		p := &Port{Name: src.Name, Dir: src.Dir, IsClock: src.IsClock, Net: c.nets[src.Net.Name],
			Pos: src.Pos, Placed: src.Placed}
		c.ports[name] = p
		c.portOrder = append(c.portOrder, name)
		if src.Dir == DirInput {
			p.Net.Driver = PinRef{Port: p}
		} else {
			p.Net.Sinks = append(p.Net.Sinks, PinRef{Port: p})
		}
	}
	for _, name := range d.instOrder {
		src := d.insts[name]
		inst := &Instance{
			Name: src.Name, Cell: src.Cell, Conns: make(map[string]*Net, len(src.Conns)),
			Pos: src.Pos, Placed: src.Placed, Fixed: src.Fixed,
		}
		c.insts[name] = inst
		c.instOrder = append(c.instOrder, name)
	}
	// Reconnect pins in the original net-endpoint order so clone equality
	// is exact.
	for _, name := range d.netOrder {
		src := d.nets[name]
		dst := c.nets[name]
		if src.Driver.Inst != nil {
			inst := c.insts[src.Driver.Inst.Name]
			dst.Driver = PinRef{Inst: inst, Pin: src.Driver.Pin}
			inst.Conns[src.Driver.Pin] = dst
		}
		for _, s := range src.Sinks {
			if s.Inst != nil {
				inst := c.insts[s.Inst.Name]
				dst.Sinks = append(dst.Sinks, PinRef{Inst: inst, Pin: s.Pin})
				inst.Conns[s.Pin] = dst
			}
			// Port sinks were added by the port loop above.
		}
	}
	// Drop the construction entries recorded above: nobody can have
	// observed a revision of the clone before it existed.
	c.journal = nil
	c.journalBase = c.rev
	return c
}
