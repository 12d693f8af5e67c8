package dualvth

import (
	"bytes"
	"math"
	"testing"

	"selectivemt/internal/assign"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/sta"
	"selectivemt/internal/verilog"
)

// referenceAssignFlavor is the pre-incremental assignment loop, kept
// verbatim as a test oracle: a fresh full sta.Analyze before every pass
// and for the final verification. The production assignFlavor must make
// bit-identical decisions while re-timing only dirty cones.
func referenceAssignFlavor(t *testing.T, d *netlist.Design, cfg sta.Config, opts assign.Options,
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
		timing, err := sta.Analyze(d, cfg)
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
	timing, err := sta.Analyze(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Timing = timing
	if timing.WNS < opts.SlackMarginNs {
		if _, err := legacyRevertCritical(d, timing, opts, revertTo); err != nil {
			t.Fatal(err)
		}
		timing, err = sta.Analyze(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res.Timing = timing
	}
	res.Moved, res.Kept = legacyCountAssigned(d, opts, target)
	return res
}

func netlistBytes(t *testing.T, d *netlist.Design) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := verilog.Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAssignMatchesFullReanalysisOracle locks the refactor down: the
// incremental Assign must produce the same final netlist, pass count,
// tallies and timing scalars as the old full-re-analysis loop.
func TestAssignMatchesFullReanalysisOracle(t *testing.T) {
	for _, slack := range []float64{1.02, 1.1, 1.4} {
		base, cfg := prepDesign(t, slack)
		dRef := base.Clone()
		dInc := base.Clone()
		opts := assign.DefaultOptions()

		want := referenceAssignFlavor(t, dRef, cfg, opts, liberty.FlavorHVT, liberty.FlavorLVT)
		got, err := Assign(dInc, cfg, greedy, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Moved != want.Moved || got.Kept != want.Kept || got.Passes != want.Passes {
			t.Errorf("slack %v: swapped/kept/passes %d/%d/%d incremental vs %d/%d/%d reference",
				slack, got.Moved, got.Kept, got.Passes, want.Moved, want.Kept, want.Passes)
		}
		if math.Float64bits(got.Timing.WNS) != math.Float64bits(want.Timing.WNS) ||
			math.Float64bits(got.Timing.TNS) != math.Float64bits(want.Timing.TNS) {
			t.Errorf("slack %v: WNS/TNS %v/%v incremental vs %v/%v reference",
				slack, got.Timing.WNS, got.Timing.TNS, want.Timing.WNS, want.Timing.TNS)
		}
		if !bytes.Equal(netlistBytes(t, dInc), netlistBytes(t, dRef)) {
			t.Errorf("slack %v: final netlists differ between incremental and reference loops", slack)
		}
	}
}

// TestAssignMixedMatchesFullReanalysisOracle covers the SMT stage-2 path
// (pre-conversion to MT, HVT assignment, LVT last-resort reverts).
func TestAssignMixedMatchesFullReanalysisOracle(t *testing.T) {
	// Slacks chosen so at least one run drives the last-resort revert
	// loop (tight) and one stays comfortable.
	for _, slack := range []float64{1.01, 1.25} {
		base, cfg := prepDesign(t, slack)
		dRef := base.Clone()
		dInc := base.Clone()
		opts := assign.DefaultOptions()

		// Reference: pre-convert, then the oracle loop, then the
		// last-resort reverts with full re-analysis.
		for _, inst := range dRef.Instances() {
			if inst.Cell.Kind != liberty.KindComb || inst.Cell.Flavor != liberty.FlavorLVT {
				continue
			}
			if v := dRef.Lib.Variant(inst.Cell, liberty.FlavorMTNoVGND); v != nil {
				if err := dRef.ReplaceCell(inst, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := referenceAssignFlavor(t, dRef, cfg, opts, liberty.FlavorHVT, liberty.FlavorMTNoVGND)
		timing := want.Timing
		for pass := 0; timing.WNS < opts.SlackMarginNs && pass < opts.MaxPasses; pass++ {
			n, err := legacyRevertCritical(dRef, timing, opts, liberty.FlavorLVT)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			if timing, err = sta.Analyze(dRef, cfg); err != nil {
				t.Fatal(err)
			}
			want.Timing = timing
		}
		want.Moved, want.Kept = legacyCountAssigned(dRef, opts, liberty.FlavorHVT)

		got, err := AssignMixed(dInc, cfg, greedy, opts, liberty.FlavorMTNoVGND)
		if err != nil {
			t.Fatal(err)
		}
		if got.Moved != want.Moved || got.Kept != want.Kept {
			t.Errorf("slack %v: swapped/kept %d/%d incremental vs %d/%d reference",
				slack, got.Moved, got.Kept, want.Moved, want.Kept)
		}
		if math.Float64bits(got.Timing.WNS) != math.Float64bits(want.Timing.WNS) {
			t.Errorf("slack %v: WNS %v incremental vs %v reference",
				slack, got.Timing.WNS, want.Timing.WNS)
		}
		if !bytes.Equal(netlistBytes(t, dInc), netlistBytes(t, dRef)) {
			t.Errorf("slack %v: final netlists differ between incremental and reference loops", slack)
		}
	}
}

// TestAssignMixedCountsFreshAfterReverts is the regression test for the
// stale-tally bug: AssignMixed used to return the Swapped/Kept tally
// assignFlavor computed *before* the last-resort LVT revert loop ran.
// The contract pinned here is that the returned counts always equal a
// fresh recount of the final design, with the revert loop demonstrably
// fired. (With the generated library the loop happens to demote only
// non-HVT cells — flavor variants share pin caps, so HVT criticals are
// always caught by assignFlavor's own reverts first and the split stays
// numerically stable; the recount guards the cases where it would not.)
func TestAssignMixedCountsFreshAfterReverts(t *testing.T) {
	// A clock right at the LVT minimum period: the MT derate alone breaks
	// it, so the revert loop must fire.
	d, cfg := prepDesign(t, 1.0)
	opts := assign.DefaultOptions()
	res, err := AssignMixed(d, cfg, greedy, opts, liberty.FlavorMTNoVGND)
	if err != nil {
		t.Fatal(err)
	}
	lvt := 0
	for _, inst := range d.Instances() {
		if legacySwappable(inst, opts) && inst.Cell.Flavor == liberty.FlavorLVT {
			lvt++
		}
	}
	if lvt == 0 {
		t.Skip("revert loop did not fire at this clock; regression target not reachable")
	}
	swapped, kept := legacyCountAssigned(d, opts, liberty.FlavorHVT)
	if res.Moved != swapped || res.Kept != kept {
		t.Fatalf("returned tallies %d/%d do not match the final design %d/%d "+
			"(stale counts from before the revert loop)", res.Moved, res.Kept, swapped, kept)
	}
	if res.Kept == 0 {
		t.Error("reverted LVT cells must appear in Kept")
	}
}

// TestGreedyStrategyMatchesLegacyLoop pins the PR 9 extraction: Assign
// with the default (greedy) strategy must reproduce the pre-refactor
// incremental loop byte-for-byte — same final netlist, same pass count,
// same tallies, bit-identical timing scalars.
func TestGreedyStrategyMatchesLegacyLoop(t *testing.T) {
	for _, slack := range []float64{1.02, 1.1, 1.4} {
		base, cfg := prepDesign(t, slack)
		dLegacy := base.Clone()
		dNew := base.Clone()
		opts := assign.DefaultOptions()

		inc, err := sta.NewIncremental(dLegacy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := legacyAssignFlavor(t, dLegacy, inc, opts, liberty.FlavorHVT, liberty.FlavorLVT)
		got, err := Assign(dNew, cfg, greedy, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Moved != want.Moved || got.Kept != want.Kept || got.Passes != want.Passes {
			t.Errorf("slack %v: swapped/kept/passes %d/%d/%d strategy vs %d/%d/%d legacy",
				slack, got.Moved, got.Kept, got.Passes, want.Moved, want.Kept, want.Passes)
		}
		if math.Float64bits(got.Timing.WNS) != math.Float64bits(want.Timing.WNS) ||
			math.Float64bits(got.Timing.TNS) != math.Float64bits(want.Timing.TNS) {
			t.Errorf("slack %v: WNS/TNS %v/%v strategy vs %v/%v legacy",
				slack, got.Timing.WNS, got.Timing.TNS, want.Timing.WNS, want.Timing.TNS)
		}
		if !bytes.Equal(netlistBytes(t, dNew), netlistBytes(t, dLegacy)) {
			t.Errorf("slack %v: final netlists differ between greedy strategy and legacy loop", slack)
		}
	}
}

// TestRecoverSizingMatchesLegacyLoop pins the sizing half of the
// extraction the same way: the generic greedy strategy over the sizing
// problem must downsize the exact same cells as the old hand-rolled loop.
func TestRecoverSizingMatchesLegacyLoop(t *testing.T) {
	for _, slack := range []float64{1.05, 1.3} {
		base, cfg := prepDesign(t, slack)
		dLegacy := base.Clone()
		dNew := base.Clone()
		opts := assign.DefaultOptions()

		// Sizing runs after Vth assignment in the flow; mirror that so
		// the drive ladder has something to recover.
		if _, err := Assign(dLegacy, cfg, greedy, opts); err != nil {
			t.Fatal(err)
		}
		if _, err := Assign(dNew, cfg, greedy, opts); err != nil {
			t.Fatal(err)
		}

		want := legacyRecoverSizing(t, dLegacy, cfg, opts)
		got, err := RecoverSizing(dNew, cfg, greedy, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("slack %v: downsized %d strategy vs %d legacy", slack, got, want)
		}
		if !bytes.Equal(netlistBytes(t, dNew), netlistBytes(t, dLegacy)) {
			t.Errorf("slack %v: final netlists differ between sizing strategy and legacy loop", slack)
		}
	}
}
