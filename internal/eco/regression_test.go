package eco

import (
	"bytes"
	"math"
	"testing"

	"selectivemt/internal/netlist"
	"selectivemt/internal/place"
	"selectivemt/internal/sta"
	"selectivemt/internal/verilog"
)

// referenceFixHold is the pre-incremental hold-fix loop, kept as a test
// oracle: a fresh full sta.Analyze before every pass. The production
// FixHold must insert the same buffers in the same passes while only
// re-timing the endpoints it touched.
func referenceFixHold(t *testing.T, d *netlist.Design, cfg sta.Config, opts Options) *Result {
	t.Helper()
	if opts.MaxPasses <= 0 {
		opts.MaxPasses = 8
	}
	buf := d.Lib.Cell(opts.BufName)
	if buf == nil {
		t.Fatalf("library lacks %q", opts.BufName)
	}
	res := &Result{}
	for pass := 0; pass < opts.MaxPasses; pass++ {
		res.Passes = pass + 1
		timing, err := sta.Analyze(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res.Timing = timing
		if len(timing.HoldViolations) == 0 {
			return res
		}
		for _, ff := range timing.HoldViolations {
			dNet := ff.Net("D")
			if dNet == nil {
				continue
			}
			deficit := -holdSlackAt(timing, ff)
			per := bufferDelay(buf, ff)
			n := 1
			if per > 0 && deficit > 0 {
				n = int(deficit/per) + 1
			}
			if n > 24 {
				n = 24
			}
			for i := 0; i < n; i++ {
				b, err := d.InsertBuffer(ff.Net("D"), buf, []netlist.PinRef{{Inst: ff, Pin: "D"}})
				if err != nil {
					t.Fatal(err)
				}
				place.PlaceNear(d, b, ff.Pos, opts.PlaceOpts)
				b.Fixed = true
				res.BuffersInserted++
			}
		}
	}
	timing, err := sta.Analyze(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Timing = timing
	return res
}

// TestFixHoldMatchesFullReanalysisOracle locks the ECO refactor down:
// identical buffer insertion, pass counts and final timing scalars, and
// a byte-identical final netlist.
func TestFixHoldMatchesFullReanalysisOracle(t *testing.T) {
	base, cfg := holdRisky(t)
	po := place.DefaultOptions(sharedProc.RowHeightUm, sharedProc.SitePitchUm)
	opts := DefaultOptions(po)
	dRef := base.Clone()
	dInc := base.Clone()

	want := referenceFixHold(t, dRef, cfg, opts)
	got, err := FixHold(dInc, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.BuffersInserted != want.BuffersInserted || got.Passes != want.Passes {
		t.Errorf("buffers/passes %d/%d incremental vs %d/%d reference",
			got.BuffersInserted, got.Passes, want.BuffersInserted, want.Passes)
	}
	for _, cmp := range []struct {
		name      string
		got, want float64
	}{
		{"WNS", got.Timing.WNS, want.Timing.WNS},
		{"TNS", got.Timing.TNS, want.Timing.TNS},
		{"WorstHold", got.Timing.WorstHold, want.Timing.WorstHold},
	} {
		if math.Float64bits(cmp.got) != math.Float64bits(cmp.want) {
			t.Errorf("%s: %v incremental vs %v reference", cmp.name, cmp.got, cmp.want)
		}
	}
	var gotV, wantV bytes.Buffer
	if err := verilog.Write(&gotV, dInc); err != nil {
		t.Fatal(err)
	}
	if err := verilog.Write(&wantV, dRef); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotV.Bytes(), wantV.Bytes()) {
		t.Error("final netlists differ between incremental and reference ECO")
	}
}
