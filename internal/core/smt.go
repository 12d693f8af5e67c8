package core

import (
	"fmt"

	"selectivemt/internal/geom"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/place"
)

// ConvertToVGND swaps every MT-cell-without-VGND-port (MN) for its
// with-VGND-port twin (MV) — the paper's step "replacing MT-cells (without
// VGND ports) by MT-cells (with VGND ports)". Timing and area are
// identical by construction; only the port list changes.
func ConvertToVGND(d *netlist.Design) (int, error) {
	n := 0
	for _, inst := range d.Instances() {
		if inst.Cell.Flavor != liberty.FlavorMTNoVGND {
			continue
		}
		mv := d.Lib.Variant(inst.Cell, liberty.FlavorMTVGND)
		if mv == nil {
			return n, fmt.Errorf("core: no MV variant of %s", inst.Cell.Name)
		}
		if err := d.ReplaceCell(inst, mv); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// IsGatedMT reports whether an instance is power-gated in standby under
// the improved scheme (MV flavor) or conventional scheme (M flavor).
func IsGatedMT(inst *netlist.Instance) bool {
	f := inst.Cell.Flavor
	return f == liberty.FlavorMTVGND || f == liberty.FlavorMTConv || f == liberty.FlavorMTNoVGND
}

// NeedsHolder implements the paper's rule: an MT-cell's output needs a
// holder exactly when at least one of its fanouts is NOT an MT-cell ("when
// all fanouts of the MT-cell are connected to MT-cells, an output holder
// is unnecessary"). Primary outputs count as non-MT fanouts.
func NeedsHolder(n *netlist.Net) bool {
	if n.Driver.Inst == nil || !IsGatedMT(n.Driver.Inst) {
		return false // not an MT output at all
	}
	for _, s := range n.Sinks {
		if s.Inst == nil {
			return true // primary output observes the float
		}
		if s.Inst.Cell.Kind == liberty.KindHolder {
			continue // an already-inserted holder is not logic fanout
		}
		if !IsGatedMT(s.Inst) {
			return true
		}
	}
	return false
}

// InsertHolders walks every MT output net and attaches an output holder
// where the rule demands one. Holders are placed next to the driving cell.
// It returns the inserted holder instances.
func InsertHolders(d *netlist.Design, placeOpts place.Options) ([]*netlist.Instance, error) {
	holder := d.Lib.Holder()
	if holder == nil {
		return nil, fmt.Errorf("core: library has no holder cell")
	}
	var out []*netlist.Instance
	for _, n := range d.Nets() {
		if !NeedsHolder(n) {
			continue
		}
		if hasHolder(n) {
			continue
		}
		h, err := d.NewInstanceAuto("smt_hold", holder)
		if err != nil {
			return nil, err
		}
		if err := d.Connect(h, "A", n); err != nil {
			return nil, err
		}
		place.PlaceNear(d, h, n.Driver.Inst.Pos, placeOpts)
		h.Fixed = true
		out = append(out, h)
	}
	return out, nil
}

func hasHolder(n *netlist.Net) bool {
	for _, s := range n.Sinks {
		if s.Inst != nil && s.Inst.Cell.Kind == liberty.KindHolder {
			return true
		}
	}
	return false
}

// HolderOn returns the standby-holder predicate for power analysis: a net
// is held at 1 when a holder instance sits on it, or (conventional scheme)
// when its driver is an M-flavor cell with the embedded holder.
func HolderOn(n *netlist.Net) bool {
	if n.Driver.Inst != nil && n.Driver.Inst.Cell.Flavor == liberty.FlavorMTConv {
		return true
	}
	return hasHolder(n)
}

// BuildMTE creates the sleep-enable network: an MTE primary input wired to
// every switch MTE pin and holder MTE pin (improved scheme) or to every
// conventional MT-cell's embedded MTE pin, then buffered down to the
// fanout cap with always-on HVT buffers — the paper's "buffering the MT
// enable signal".
func BuildMTE(d *netlist.Design, maxFanout int, placeOpts place.Options) (int, error) {
	if maxFanout < 2 {
		maxFanout = 16
	}
	port := d.PortByName("MTE")
	if port == nil {
		var err error
		port, err = d.AddPort("MTE", netlist.DirInput)
		if err != nil {
			return 0, err
		}
	}
	mteNet := port.Net
	mteNet.IsMTE = true
	d.NoteNetChanged(mteNet)
	for _, inst := range d.Instances() {
		p := mtePin(inst)
		if p == "" || inst.Net(p) != nil {
			continue
		}
		if err := d.Connect(inst, p, mteNet); err != nil {
			return 0, err
		}
	}
	// Buffer the tree: chunk sinks geometrically and insert HVT buffers
	// until no MTE net exceeds the cap.
	buf := d.Lib.Cell("BUF_X4_H")
	if buf == nil {
		return 0, fmt.Errorf("core: library lacks BUF_X4_H for the MTE tree")
	}
	inserted := 0
	for rounds := 0; rounds < 16; rounds++ {
		changed := false
		for _, n := range d.Nets() {
			if !n.IsMTE || len(n.Sinks) <= maxFanout {
				continue
			}
			keep := maxFanout - 1
			rest := append([]netlist.PinRef(nil), n.Sinks[keep:]...)
			for start := 0; start < len(rest); start += maxFanout {
				end := start + maxFanout
				if end > len(rest) {
					end = len(rest)
				}
				chunk := rest[start:end]
				b, err := d.InsertBuffer(n, buf, chunk)
				if err != nil {
					return inserted, err
				}
				place.PlaceNear(d, b, chunkCenter(chunk), placeOpts)
				b.Fixed = true
				inserted++
			}
			changed = true
		}
		if !changed {
			break
		}
	}
	return inserted, nil
}

func mtePin(inst *netlist.Instance) string {
	for _, p := range inst.Cell.Pins {
		if p.IsEnable {
			return p.Name
		}
	}
	return ""
}

func chunkCenter(refs []netlist.PinRef) geom.Point {
	var pts []geom.Point
	for _, r := range refs {
		if r.Inst != nil && r.Inst.Placed {
			pts = append(pts, r.Inst.Pos)
		}
	}
	return geom.Centroid(pts)
}
