package assign

import (
	"fmt"

	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/sta"
)

// FlavorProblem is the Vth-assignment swap domain: movable instances
// rebind to the target flavor, over-committed ones unwind to revertTo
// (LVT for the Dual-Vth baseline; the MT flavor in the SMT flows, so
// criticals stay gateable rather than leaky). Flops have no MT
// variants — when revertTo is an MT flavor they fall back to LVT.
type FlavorProblem struct {
	d                *netlist.Design
	target, revertTo liberty.Flavor
	opts             Options
	lut              *LeakLUT

	// insts snapshots the instance list once: assignment only rebinds
	// cells, never adds or removes instances, and Design.Instances()
	// rebuilds its slice per call — too hot for the enumeration loops.
	insts []*netlist.Instance
	// vcache memoizes Library.Variant, which formats a cell name per
	// lookup; the reachable (cell, flavor) set is tiny and fixed.
	vcache map[variantKey]*liberty.Cell
}

type variantKey struct {
	c *liberty.Cell
	f liberty.Flavor
}

// NewFlavorProblem builds the flavor swap domain over d. The leakage
// LUT for (d.Lib, target) is resolved from the process-wide cache, so
// repeated runs over the same library pay characterization once.
func NewFlavorProblem(d *netlist.Design, target, revertTo liberty.Flavor, opts Options) *FlavorProblem {
	return &FlavorProblem{
		d:        d,
		target:   target,
		revertTo: revertTo,
		opts:     opts,
		lut:      LeakageLUT(d.Lib, target),
		insts:    d.Instances(),
		vcache:   make(map[variantKey]*liberty.Cell),
	}
}

// variant memoizes variantFor so steady-state enumeration stays off the
// library's name-formatting lookup path. Nil results cache too.
func (p *FlavorProblem) variant(c *liberty.Cell, f liberty.Flavor) *liberty.Cell {
	k := variantKey{c, f}
	if v, ok := p.vcache[k]; ok {
		return v
	}
	v := variantFor(p.d.Lib, c, f)
	p.vcache[k] = v
	return v
}

func (p *FlavorProblem) swappable(inst *netlist.Instance) bool {
	switch inst.Cell.Kind {
	case liberty.KindComb:
		return true
	case liberty.KindFF:
		return p.opts.SwapFlops
	}
	return false
}

// Candidates appends, in design-instance order, every movable
// instance not yet at the target flavor that has a target variant,
// scored under the given timing snapshot.
func (p *FlavorProblem) Candidates(timing *sta.Result, buf []Move) []Move {
	moves := buf
	for _, inst := range p.insts {
		if !p.swappable(inst) || inst.Cell.Flavor == p.target {
			continue
		}
		v := p.variant(inst.Cell, p.target)
		if v == nil {
			continue
		}
		moves = append(moves, Move{
			Inst:        inst,
			To:          v,
			SlackNs:     timing.InstSlack(inst),
			DeltaNs:     delayDelta(inst, v, timing),
			LeakSavedMW: p.lut.Saved(inst.Cell),
		})
	}
	return moves
}

// RevertCandidates appends the unwind moves for every movable
// instance on a violating path, in the timing engine's critical order
// (design-instance order over the violating set — the same filter
// sta.Result.CriticalInstances applies, inlined over the instance
// snapshot so steady-state unwinds build no intermediate slice). It
// errors when the library is missing the revert variant — a
// characterization hole, not a timing condition.
func (p *FlavorProblem) RevertCandidates(timing *sta.Result, buf []Move) ([]Move, error) {
	moves := buf
	for _, inst := range p.insts {
		if !p.swappable(inst) || timing.InstSlack(inst) >= p.opts.SlackMarginNs {
			continue
		}
		to := p.revertTo
		if p.variant(inst.Cell, to) == nil {
			to = liberty.FlavorLVT // flops have no MT variants
		}
		if inst.Cell.Flavor == to {
			continue
		}
		v := p.variant(inst.Cell, to)
		if v == nil {
			return moves, fmt.Errorf("assign: no %s variant of %s", to, inst.Cell.Name)
		}
		moves = append(moves, Move{Inst: inst, To: v, SlackNs: timing.InstSlack(inst)})
	}
	return moves, nil
}

// Rescore refreshes the move's slack and delay estimate against a newer
// analysis; the leakage saving is a library property and does not move.
func (p *FlavorProblem) Rescore(m *Move, timing *sta.Result) {
	m.SlackNs = timing.InstSlack(m.Inst)
	m.DeltaNs = delayDelta(m.Inst, m.To, timing)
}

// Apply rebinds the instance to the move's variant.
func (p *FlavorProblem) Apply(m Move) error {
	return p.d.ReplaceCell(m.Inst, m.To)
}

// Tally counts the movable population: instances ending at the target
// flavor versus instances kept off it.
func (p *FlavorProblem) Tally() (moved, kept int) {
	for _, inst := range p.insts {
		if !p.swappable(inst) {
			continue
		}
		if inst.Cell.Flavor == p.target {
			moved++
		} else {
			kept++
		}
	}
	return moved, kept
}

// variantFor returns the target-flavor variant of a cell. Flops have no
// MT variants: when the target is an MT flavor they keep their Vth (the
// flow handles flop criticality by leaving critical flops LVT).
func variantFor(lib *liberty.Library, c *liberty.Cell, target liberty.Flavor) *liberty.Cell {
	if c.Kind == liberty.KindFF &&
		(target == liberty.FlavorMTConv || target == liberty.FlavorMTNoVGND || target == liberty.FlavorMTVGND) {
		return nil
	}
	return lib.Variant(c, target)
}

// delayDelta estimates the worst-arc delay increase of swapping inst to
// v under the instance's current slews and output load.
func delayDelta(inst *netlist.Instance, v *liberty.Cell, timing *sta.Result) float64 {
	out := inst.OutputNet()
	if out == nil {
		return 0
	}
	rc := timing.RC(out)
	load := 0.0
	if rc != nil {
		load = rc.TotalCap()
	}
	var worstOld, worstNew float64
	for _, arc := range inst.Cell.Arcs {
		inNet := inst.Net(arc.From)
		if inNet == nil {
			continue
		}
		slew := timing.Slew(inNet)
		if dOld := arc.WorstDelay(slew, load); dOld > worstOld {
			worstOld = dOld
		}
		if na := v.Arc(arc.From, arc.To); na != nil {
			if dNew := na.WorstDelay(slew, load); dNew > worstNew {
				worstNew = dNew
			}
		}
	}
	if v.Kind == liberty.KindFF {
		// Flop swaps also pay the setup difference at their own D input.
		return worstNew - worstOld + (v.SetupNs - inst.Cell.SetupNs)
	}
	return worstNew - worstOld
}
