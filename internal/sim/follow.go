package sim

import (
	"errors"

	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
)

// Following the design. After placement the flow edits its design in
// journal batches: cell swaps (assignment, switch re-sizing) and
// insertions (holders, switches and their VGND nets, MTE, clock and hold
// buffers). Update applies a batch to the compiled form so that it ends
// up as New would compile the current design, up to the runs a rebind
// leaves behind in the pin slab:
//
//   - A swap between cells with the same pins (names, directions, flags)
//     re-points the instance at the new cell's tables in place.
//   - Any other batch without a removal is patched. Added nets and
//     instances get appended IDs and positions; the design lists them in
//     insertion order, so both stay aligned with d.Nets() and
//     d.Instances(). Every compiled instance the batch names is rebound,
//     found through its output net's driver slot. An instance without a
//     connected output needs nothing: it is not compiled, and an output
//     disconnect recompiles. Pins the simulator does not read (enable,
//     VGND) need nothing either. levelize then lays the order out again.
//   - Removals renumber everything, and a lost journal hides what
//     changed: both recompile. So does a batch the patch cannot place:
//     an instance that lost or gained its output, or a compiled form
//     holding nets the design does not list.

// errUnpatchable sends a batch the patch cannot apply to the recompile.
var errUnpatchable = errors.New("sim: batch needs a recompile")

// Update brings the simulator up to date with its design's change journal.
// A clean journal returns at once. After any edit every net and flop is
// X, as after New, and the kept activity survives only swaps that keep
// every truth table.
func (s *Simulator) Update() error {
	delta, ok := s.d.ChangesSince(s.rev)
	if !ok || s.broken {
		return s.recompile()
	}
	if len(delta) == 0 {
		s.stats.Noops++
		return nil
	}
	structural := false
	for _, ch := range delta {
		switch ch.Kind {
		case netlist.ChangeInstanceRemoved, netlist.ChangeNetRemoved:
			return s.recompile()
		case netlist.ChangeCellReplaced, netlist.ChangeMoved:
		default:
			structural = true
		}
	}
	if !structural && s.swap(delta) {
		s.stats.Swaps++
	} else {
		s.kept = activityCounts{}
		if err := s.patch(delta); err != nil {
			s.broken = true // half rebound: the next Update recompiles
			if errors.Is(err, errUnpatchable) {
				return s.recompile()
			}
			return err
		}
		s.stats.Patches++
	}
	s.rev = s.d.Revision()
	s.Reset()
	return nil
}

// recompile replaces the compiled form with a fresh compile, keeping the
// counters.
func (s *Simulator) recompile() error {
	fresh, err := New(s.d)
	if err != nil {
		s.broken = true
		return err
	}
	fresh.stats = s.stats
	fresh.stats.Compiles++
	*s = *fresh
	return nil
}

// locate returns the position of a compiled instance, through the driver
// slot of its output net.
func (s *Simulator) locate(inst *netlist.Instance) (int32, bool) {
	if out := inst.OutputNet(); out != nil {
		if id := s.slot(out); id > 0 {
			if pos := s.drv[id]; pos >= 0 && s.insts[pos] == inst {
				return pos, true
			}
		}
	}
	return -1, false
}

// swap applies a batch of swaps and moves in place and reports true, or
// changes nothing and reports false when a swap changes a compiled
// instance's pins, flop-ness or gate-ness, or names an instance it cannot
// locate. Moves change nothing the simulator reads.
func (s *Simulator) swap(delta []netlist.Change) bool {
	for _, ch := range delta {
		if ch.Kind != netlist.ChangeCellReplaced {
			continue
		}
		if outputPin(ch.OldCell) != outputPin(ch.Inst.Cell) {
			return false
		}
		if ch.Inst.OutputNet() == nil {
			continue // an instance without output is not compiled
		}
		pos, ok := s.locate(ch.Inst)
		if !ok {
			return false
		}
		old, ci := s.ents[pos].cell, s.cellOf(ch.Inst.Cell)
		if ci.key != old.key || ci.seq != old.seq || (ci.truth < 0) != (old.truth < 0) || ci.wide {
			return false
		}
	}
	for _, ch := range delta {
		if ch.Kind != netlist.ChangeCellReplaced || ch.Inst.OutputNet() == nil {
			continue
		}
		pos, _ := s.locate(ch.Inst)
		e := &s.ents[pos]
		ci := s.cellOf(ch.Inst.Cell)
		if ci.truth != e.cell.truth {
			s.kept = activityCounts{}
		}
		e.cell = ci
		if e.gate >= 0 {
			s.gates[e.gate].truth = ci.truth
		}
	}
	return true
}

// patch applies an insertion batch: it appends the added nets and
// instances, binds the added instances and rebinds the compiled ones the
// batch names, then levelizes. It returns errUnpatchable for a batch
// only a recompile can apply, and an error for a wide gate or a
// combinational cycle.
func (s *Simulator) patch(delta []netlist.Change) error {
	if len(s.nets) != 1+int(s.nNets) {
		return errUnpatchable // nets outside d.Nets() sit where new ones go
	}
	first := int32(len(s.insts))
	for _, ch := range delta {
		switch ch.Kind {
		case netlist.ChangeNetAdded:
			s.listNet(ch.Net)
			s.nNets++
		case netlist.ChangeInstanceAdded:
			s.insts = append(s.insts, ch.Inst)
			s.ents = append(s.ents, entry{out: -1, pins: -1, gate: -1})
		}
	}
	if int(s.nNets) != s.d.NumNets() || len(s.insts) != s.d.NumInstances() {
		return errUnpatchable // the compiled form no longer mirrors the design
	}
	for pos := first; pos < int32(len(s.insts)); pos++ {
		if err := s.bind(pos); err != nil {
			return err
		}
	}
	for _, ch := range delta {
		switch ch.Kind {
		case netlist.ChangeConnected, netlist.ChangeDisconnected:
			p := ch.Inst.Cell.Pin(ch.Pin)
			switch {
			case p == nil:
				return errUnpatchable // the pin left with a swap later in the batch
			case p.Dir == liberty.DirOutput && ch.Kind == netlist.ChangeDisconnected:
				return errUnpatchable // an instance lost its output
			case p.Dir == liberty.DirInput && (p.IsEnable || p.IsVGND):
				continue // a pin the simulator does not read
			}
		case netlist.ChangeCellReplaced:
			if outputPin(ch.OldCell) != outputPin(ch.Inst.Cell) {
				return errUnpatchable // the swap moved the output
			}
		default:
			continue
		}
		if ch.Inst.OutputNet() == nil {
			continue // not compiled, before or after
		}
		pos, ok := s.locate(ch.Inst)
		if !ok {
			return errUnpatchable // an instance that gained its output
		}
		if pos < first {
			if err := s.bind(pos); err != nil {
				return err
			}
		}
	}
	return s.levelize()
}

// outputPin names a cell's first output pin, the one the simulator
// compiles; "" for a cell without outputs.
func outputPin(c *liberty.Cell) string {
	if out := c.Output(); out != nil {
		return out.Name
	}
	return ""
}
