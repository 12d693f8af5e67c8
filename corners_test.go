package selectivemt

import (
	"strings"
	"testing"
)

// TestCornersDoNotChangeTable1 is the acceptance guard for the
// multi-corner subsystem: enabling sign-off corners must leave the
// technique netlists and every Table-1 number byte-identical to the
// single-corner flow — sign-off measures a clone, it never optimizes.
func TestCornersDoNotChangeTable1(t *testing.T) {
	env, err := NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	spec := SmallTest()

	plain, err := env.Compare(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := env.NewConfig()
	cfg.ClockSlack = spec.ClockSlack
	cfg.Corners = AllCorners()
	corner, err := env.CompareWithConfig(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := FormatTable1([]*Comparison{corner}), FormatTable1([]*Comparison{plain}); got != want {
		t.Fatalf("corner run drifted Table 1:\n--- plain\n%s\n--- corners\n%s", want, got)
	}
	pairs := []struct {
		name        string
		plain, corn *TechniqueResult
	}{
		{"Dual-Vth", plain.Dual, corner.Dual},
		{"Conventional-SMT", plain.Conv, corner.Conv},
		{"Improved-SMT", plain.Improved, corner.Improved},
	}
	for _, p := range pairs {
		if p.corn.CornerReport == nil {
			t.Errorf("%s: no corner report attached", p.name)
			continue
		}
		if len(p.corn.CornerReport.Corners) != 4 {
			t.Errorf("%s: want 4 corners, got %d", p.name, len(p.corn.CornerReport.Corners))
		}
		if p.plain.CornerReport != nil {
			t.Errorf("%s: single-corner run grew a corner report", p.name)
		}
		if p.corn.AreaUm2 != p.plain.AreaUm2 || p.corn.StandbyLeakMW != p.plain.StandbyLeakMW ||
			p.corn.WNSNs != p.plain.WNSNs || p.corn.WorstHoldNs != p.plain.WorstHoldNs {
			t.Errorf("%s: typical-corner numbers drifted with corners on", p.name)
		}
		var a, b strings.Builder
		if err := WriteVerilog(&a, p.plain.Design); err != nil {
			t.Fatal(err)
		}
		if err := WriteVerilog(&b, p.corn.Design); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("%s: corner run mutated the technique netlist", p.name)
		}
	}
}

// TestCompareAcrossCornersDeterministic runs the corner sign-off with
// the techniques one after another and concurrently (under -race in CI)
// and requires byte-identical output; the corner fan-out inside each
// sign-off is pinned by mcmm's TestSignoffParallelMatchesSequential. The
// first two legs run with the cache disabled so the concurrent leg
// genuinely computes instead of replaying the sequential leg's entries;
// a final cached pair then checks cache replay agrees too.
func TestCompareAcrossCornersDeterministic(t *testing.T) {
	env, err := NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	spec := SmallTest()
	run := func(workers int, cached bool) string {
		cfg := env.NewConfig()
		cfg.ClockSlack = spec.ClockSlack
		cfg.Corners = AllCorners()
		if !cached {
			cfg.Cache = nil
		}
		base, err := env.Synthesize(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := env.CompareBase(base, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		return FormatTable1([]*Comparison{cmp}) + "\n" + FormatCornerReports([]*Comparison{cmp})
	}
	par := run(3, false)
	seq := run(1, false)
	if seq != par {
		t.Fatalf("concurrent corner run differs from sequential:\n--- seq\n%s\n--- par\n%s", seq, par)
	}
	warm := run(3, true)   // populates the shared cache
	replay := run(1, true) // replays it
	if warm != seq || replay != seq {
		t.Fatal("cached corner sign-off differs from uncached")
	}
	if !strings.Contains(seq, "fast-hot") || !strings.Contains(seq, "Sign-off") {
		t.Fatalf("corner report missing from output:\n%s", seq)
	}
}
