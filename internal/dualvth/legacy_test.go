package dualvth

// This file carries the pre-refactor assignment internals verbatim, as
// the oracle the extracted greedy strategy is pinned against. When the
// selection/revert policy moved into internal/assign (PR 9), the old
// swap loop, revert pass, delay probe and tally were copied here
// unchanged (legacy* names, *testing.T error plumbing aside) so the
// regression tests keep comparing the production path against the exact
// code the paper's numbers were produced with. Do not "improve" these —
// their value is that they never change.

import (
	"fmt"
	"sort"
	"testing"

	"selectivemt/internal/assign"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/sta"
)

func legacyCountAssigned(d *netlist.Design, opts assign.Options, target liberty.Flavor) (swapped, kept int) {
	for _, inst := range d.Instances() {
		if !legacySwappable(inst, opts) {
			continue
		}
		if inst.Cell.Flavor == target {
			swapped++
		} else {
			kept++
		}
	}
	return swapped, kept
}

func legacySwappable(inst *netlist.Instance, opts assign.Options) bool {
	switch inst.Cell.Kind {
	case liberty.KindComb:
		return true
	case liberty.KindFF:
		return opts.SwapFlops
	}
	return false
}

// legacySwapPass tentatively swaps positive-slack cells to the target flavor.
func legacySwapPass(d *netlist.Design, timing *sta.Result, opts assign.Options, target liberty.Flavor) (int, error) {
	type cand struct {
		inst  *netlist.Instance
		slack float64
	}
	var cands []cand
	for _, inst := range d.Instances() {
		if !legacySwappable(inst, opts) || inst.Cell.Flavor == target {
			continue
		}
		cands = append(cands, cand{inst, timing.InstSlack(inst)})
	}
	// Most slack first: the cheapest swaps commit earliest.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].slack > cands[j].slack })
	budget := make(map[*netlist.Net]float64) // consumed slack per output net cone
	swapped := 0
	for _, c := range cands {
		v := legacyVariantFor(d.Lib, c.inst.Cell, target)
		if v == nil {
			continue
		}
		delta := legacyDelayDelta(c.inst, v, timing)
		out := c.inst.OutputNet()
		used := 0.0
		if out != nil {
			used = budget[out]
		}
		if c.slack-used-opts.SafetyFactor*delta <= opts.SlackMarginNs {
			continue
		}
		if err := d.ReplaceCell(c.inst, v); err != nil {
			return swapped, err
		}
		if out != nil {
			budget[out] = used + opts.SafetyFactor*delta
		}
		swapped++
	}
	return swapped, nil
}

// legacyVariantFor returns the target-flavor variant of a cell. Flops have
// no MT variants: when the target is an MT flavor they keep their Vth.
func legacyVariantFor(lib *liberty.Library, c *liberty.Cell, target liberty.Flavor) *liberty.Cell {
	if c.Kind == liberty.KindFF &&
		(target == liberty.FlavorMTConv || target == liberty.FlavorMTNoVGND || target == liberty.FlavorMTVGND) {
		return nil
	}
	return lib.Variant(c, target)
}

// legacyDelayDelta estimates the worst-arc delay increase of swapping inst to v.
func legacyDelayDelta(inst *netlist.Instance, v *liberty.Cell, timing *sta.Result) float64 {
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
		inNet := inst.Conns[arc.From]
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

// legacyRevertCritical moves swapped cells on violating paths back to
// revertTo (flops, which have no MT variants, revert to LVT).
func legacyRevertCritical(d *netlist.Design, timing *sta.Result, opts assign.Options,
	revertTo liberty.Flavor) (int, error) {
	reverted := 0
	for _, inst := range timing.CriticalInstances(opts.SlackMarginNs) {
		if !legacySwappable(inst, opts) {
			continue
		}
		to := revertTo
		if legacyVariantFor(d.Lib, inst.Cell, to) == nil {
			to = liberty.FlavorLVT // flops have no MT variants
		}
		if inst.Cell.Flavor == to {
			continue
		}
		v := d.Lib.Variant(inst.Cell, to)
		if v == nil {
			return reverted, fmt.Errorf("dualvth: no %s variant of %s", to, inst.Cell.Name)
		}
		if err := d.ReplaceCell(inst, v); err != nil {
			return reverted, err
		}
		reverted++
	}
	return reverted, nil
}

// legacyAssignFlavor is the pre-refactor incremental assignment loop,
// verbatim: greedily move cells to target; when over-committed revert
// critical cells to revertTo.
func legacyAssignFlavor(t *testing.T, d *netlist.Design, inc *sta.Incremental, opts assign.Options,
	target, revertTo liberty.Flavor) *assign.Result {
	t.Helper()
	if opts.MaxPasses <= 0 {
		opts.MaxPasses = 12
	}
	if opts.SafetyFactor <= 0 {
		opts.SafetyFactor = 1.5
	}
	res := &assign.Result{}
	for pass := 0; pass < opts.MaxPasses; pass++ {
		res.Passes = pass + 1
		timing, err := inc.Update()
		if err != nil {
			t.Fatal(err)
		}
		res.Timing = timing
		if timing.WNS < opts.SlackMarginNs {
			reverted, err := legacyRevertCritical(d, timing, opts, revertTo)
			if err != nil {
				t.Fatal(err)
			}
			if reverted == 0 {
				break
			}
			continue
		}
		swapped, err := legacySwapPass(d, timing, opts, target)
		if err != nil {
			t.Fatal(err)
		}
		if swapped == 0 {
			break
		}
	}
	timing, err := inc.Update()
	if err != nil {
		t.Fatal(err)
	}
	res.Timing = timing
	if timing.WNS < opts.SlackMarginNs {
		if _, err := legacyRevertCritical(d, timing, opts, revertTo); err != nil {
			t.Fatal(err)
		}
		timing, err = inc.Update()
		if err != nil {
			t.Fatal(err)
		}
		res.Timing = timing
	}
	res.Moved, res.Kept = legacyCountAssigned(d, opts, target)
	return res
}

// legacyDriveStep returns the cell one drive step up (+1) or down (-1) in
// the same base/flavor family, or nil at the end of the ladder.
func legacyDriveStep(lib *liberty.Library, c *liberty.Cell, dir int) *liberty.Cell {
	drives := lib.Drives(c.Base, c.Flavor)
	idx := -1
	for i, dr := range drives {
		if dr == c.Drive {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	idx += dir
	if idx < 0 || idx >= len(drives) {
		return nil
	}
	return lib.Cell(fmt.Sprintf("%s_X%d_%s", c.Base, drives[idx], c.Flavor))
}

// legacyResizeCritical upsizes critical combinational cells one step.
func legacyResizeCritical(d *netlist.Design, timing *sta.Result, opts assign.Options) (int, error) {
	n := 0
	for _, inst := range timing.CriticalInstances(opts.SlackMarginNs) {
		if inst.Cell.Kind != liberty.KindComb {
			continue
		}
		bigger := legacyDriveStep(d.Lib, inst.Cell, +1)
		if bigger == nil {
			continue
		}
		if err := d.ReplaceCell(inst, bigger); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// legacyRecoverSizing is the pre-refactor sizing-recovery loop, verbatim.
func legacyRecoverSizing(t *testing.T, d *netlist.Design, cfg sta.Config, opts assign.Options) int {
	t.Helper()
	if opts.MaxPasses <= 0 {
		opts.MaxPasses = 12
	}
	if opts.SafetyFactor <= 0 {
		opts.SafetyFactor = 1.5
	}
	inc, err := sta.NewIncremental(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	downsized := 0
	for pass := 0; pass < opts.MaxPasses; pass++ {
		timing, err := inc.Update()
		if err != nil {
			t.Fatal(err)
		}
		if timing.WNS < opts.SlackMarginNs {
			n, err := legacyResizeCritical(d, timing, opts)
			if err != nil {
				t.Fatal(err)
			}
			downsized -= n
			if n == 0 {
				break
			}
			continue
		}
		type cand struct {
			inst  *netlist.Instance
			slack float64
		}
		var cands []cand
		for _, inst := range d.Instances() {
			if inst.Cell.Kind != liberty.KindComb || inst.Cell.Drive <= 1 {
				continue
			}
			cands = append(cands, cand{inst, timing.InstSlack(inst)})
		}
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].slack > cands[j].slack })
		n := 0
		for _, c := range cands {
			smaller := legacyDriveStep(d.Lib, c.inst.Cell, -1)
			if smaller == nil {
				continue
			}
			delta := legacyDelayDelta(c.inst, smaller, timing)
			if c.slack-opts.SafetyFactor*delta <= opts.SlackMarginNs {
				continue
			}
			if err := d.ReplaceCell(c.inst, smaller); err != nil {
				t.Fatal(err)
			}
			n++
		}
		downsized += n
		if n == 0 {
			break
		}
	}
	timing, err := inc.Update()
	if err != nil {
		t.Fatal(err)
	}
	if timing.WNS < opts.SlackMarginNs {
		n, err := legacyResizeCritical(d, timing, opts)
		if err != nil {
			t.Fatal(err)
		}
		downsized -= n
	}
	return downsized
}
