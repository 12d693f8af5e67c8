// Package dualvth is the paper's Vth-assignment policy on top of the
// strategy subsystem (internal/assign): the Dual-Vth baseline of Wei et
// al. (CICC 2000) — start all low-Vth, move cells with slack to
// high-Vth — the stage-2 assignment of the paper's Fig. 4 flow with its
// plain-LVT fallback for cells that miss timing even as MT-cells, and
// the sizing recovery of Wei et al.'s simultaneous assignment and
// sizing. Callers pass a resolved assign.Strategy and assign.Options;
// every strategy call goes through assign.Run.
package dualvth

import (
	"errors"
	"fmt"

	"selectivemt/internal/assign"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/sta"
)

// Named validation errors. Assign, AssignMixed and RecoverSizing reject
// a missing design or library and an unknown MT flavor with these;
// options fail with assign's named errors.
var (
	// ErrNilDesign rejects a nil design.
	ErrNilDesign = errors.New("dualvth: nil design")
	// ErrNilLibrary rejects a design with no cell library attached.
	ErrNilLibrary = errors.New("dualvth: design has no library")
	// ErrUnknownFlavor rejects an AssignMixed target that is not one of
	// the MT flavors (conventional, no-VGND-opt, VGND-opt).
	ErrUnknownFlavor = errors.New("dualvth: unknown MT flavor")
)

// check rejects a run before any timing work or netlist edit, so a
// refused AssignMixed leaves the design as it was. (assign.Run
// validates the options again; it cannot run before the MT
// pre-conversion.)
func check(d *netlist.Design, opts assign.Options) error {
	if d == nil {
		return ErrNilDesign
	}
	if d.Lib == nil {
		return ErrNilLibrary
	}
	return opts.Validate()
}

// Assign converts as many cells as possible to high Vth without
// violating timing, unwinding over-committed cells to low Vth.
func Assign(d *netlist.Design, cfg sta.Config, s assign.Strategy, opts assign.Options) (*assign.Result, error) {
	if err := check(d, opts); err != nil {
		return nil, err
	}
	inc, err := sta.NewIncremental(d, cfg)
	if err != nil {
		return nil, err
	}
	return assign.Run(s, inc, assign.NewFlavorProblem(d, liberty.FlavorHVT, liberty.FlavorLVT, opts), opts)
}

// AssignMixed performs the SMT stage-2 assignment of Fig. 4: every
// combinational cell starts as an MT-cell (so timing already carries the
// VGND-bounce derate), then cells with slack move to HVT — "replacing
// low-Vth cells by high-Vth cells and MT-cells with the timing
// specification satisfied". Over-committed cells unwind to the MT
// flavor, so criticals stay gateable rather than leaky. Cells that
// cannot meet timing even as MT-cells fall back to plain LVT (they stay
// un-gated), which real flows also do.
func AssignMixed(d *netlist.Design, cfg sta.Config, s assign.Strategy, opts assign.Options, mtFlavor liberty.Flavor) (*assign.Result, error) {
	if err := check(d, opts); err != nil {
		return nil, err
	}
	switch mtFlavor {
	case liberty.FlavorMTConv, liberty.FlavorMTNoVGND, liberty.FlavorMTVGND:
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownFlavor, mtFlavor)
	}
	for _, inst := range d.Instances() {
		if inst.Cell.Kind != liberty.KindComb || inst.Cell.Flavor != liberty.FlavorLVT {
			continue
		}
		v := d.Lib.Variant(inst.Cell, mtFlavor)
		if v == nil {
			continue
		}
		if err := d.ReplaceCell(inst, v); err != nil {
			return nil, err
		}
	}
	inc, err := sta.NewIncremental(d, cfg)
	if err != nil {
		return nil, err
	}
	res, err := assign.Run(s, inc, assign.NewFlavorProblem(d, liberty.FlavorHVT, mtFlavor, opts), opts)
	if err != nil {
		return nil, err
	}
	// Last resort: if the MT derate alone breaks the clock, let the most
	// critical cells drop back to plain LVT. The problem's revert
	// machinery does the rebinding; the pass loop stays here because its
	// stop condition (margin met or pass budget spent) is this flow's
	// policy, not the strategy's.
	lvt := assign.NewFlavorProblem(d, liberty.FlavorHVT, liberty.FlavorLVT, opts)
	timing := res.Timing
	for pass := 0; timing.WNS < opts.SlackMarginNs && pass < opts.MaxPasses; pass++ {
		moves, err := lvt.RevertCandidates(timing, nil)
		if err != nil {
			return nil, err
		}
		for _, m := range moves {
			if err := lvt.Apply(m); err != nil {
				return nil, err
			}
		}
		res.Reverts += len(moves)
		if len(moves) == 0 {
			break
		}
		timing, err = inc.Update()
		if err != nil {
			return nil, err
		}
		res.Timing = timing
	}
	// The revert loop rebinds cells after the strategy tallied its
	// counts: recount so Moved/Kept describe the design actually
	// returned, not the pre-revert one.
	res.Moved, res.Kept = lvt.Tally()
	return res, nil
}

// RecoverSizing downsizes over-provisioned drivers after Vth assignment —
// the "gate-sizing" half of Wei et al.'s simultaneous dual-Vth assignment
// and gate sizing. Cells whose slack comfortably exceeds the margin are
// stepped down one drive strength at a time (X4→X2→X1), which saves both
// area and leakage (narrower devices) without touching logic.
//
// The strategy re-times between passes and reverts over-eager
// downsizing the same way the Vth loop does. Returns the net number of
// cells downsized (commits minus upsizing reverts).
func RecoverSizing(d *netlist.Design, cfg sta.Config, s assign.Strategy, opts assign.Options) (int, error) {
	if err := check(d, opts); err != nil {
		return 0, err
	}
	inc, err := sta.NewIncremental(d, cfg)
	if err != nil {
		return 0, err
	}
	r, err := assign.Run(s, inc, assign.NewSizingProblem(d, opts), opts)
	if err != nil {
		return 0, err
	}
	return r.Commits - r.Reverts, nil
}
