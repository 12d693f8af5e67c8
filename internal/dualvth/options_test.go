package dualvth

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"selectivemt/internal/assign"
	"selectivemt/internal/liberty"
)

// TestOptionsValidate pins the entry-point side of the options contract:
// every option set assign.Options.Validate refuses, AssignMixed refuses
// with the same named error before it edits the design, and every set
// it accepts runs. The strategy rows resolve their name the way the
// flow's stages do, with assign.Parse.
func TestOptionsValidate(t *testing.T) {
	d, cfg := prepDesign(t, 1.2)
	cases := []struct {
		name     string
		strategy string
		mutate   func(*assign.Options)
		wantErr  error // nil means the run must succeed
	}{
		{"defaults", "", func(o *assign.Options) {}, nil},
		{"explicit greedy", "greedy", func(o *assign.Options) {}, nil},
		{"sensitivity", "sensitivity", func(o *assign.Options) {}, nil},
		{"case-insensitive strategy", "  Greedy ", func(o *assign.Options) {}, nil},
		{"zero margin ok", "", func(o *assign.Options) { o.SlackMarginNs = 0 }, nil},
		{"zero value invalid", "", func(o *assign.Options) { *o = assign.Options{} }, assign.ErrNonPositivePasses},
		{"zero passes", "", func(o *assign.Options) { o.MaxPasses = 0 }, assign.ErrNonPositivePasses},
		{"negative passes", "", func(o *assign.Options) { o.MaxPasses = -3 }, assign.ErrNonPositivePasses},
		{"zero safety", "", func(o *assign.Options) { o.SafetyFactor = 0 }, assign.ErrNonPositiveSafety},
		{"negative safety", "", func(o *assign.Options) { o.SafetyFactor = -1.5 }, assign.ErrNonPositiveSafety},
		{"NaN safety", "", func(o *assign.Options) { o.SafetyFactor = math.NaN() }, assign.ErrNonPositiveSafety},
		{"assign jobs ok", "", func(o *assign.Options) { o.Workers = 4 }, nil},
		{"negative assign jobs", "", func(o *assign.Options) { o.Workers = -1 }, assign.ErrNegativeWorkers},
		{"zero batch", "", func(o *assign.Options) { o.BatchSize = 0 }, assign.ErrNonPositiveBatch},
		{"negative batch", "", func(o *assign.Options) { o.BatchSize = -8 }, assign.ErrNonPositiveBatch},
		{"negative margin", "", func(o *assign.Options) { o.SlackMarginNs = -0.1 }, assign.ErrBadSlackMargin},
		{"NaN margin", "", func(o *assign.Options) { o.SlackMarginNs = math.NaN() }, assign.ErrBadSlackMargin},
		{"infinite margin", "", func(o *assign.Options) { o.SlackMarginNs = math.Inf(1) }, assign.ErrBadSlackMargin},
		{"unknown strategy", "annealing", func(o *assign.Options) {}, assign.ErrUnknownStrategy},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := assign.DefaultOptions()
			tc.mutate(&o)
			s, err := assign.Parse(tc.strategy)
			if err == nil {
				clone := d.Clone()
				before := netlistBytes(t, clone)
				_, err = AssignMixed(clone, cfg, s, o, liberty.FlavorMTNoVGND)
				if err != nil && !bytes.Equal(before, netlistBytes(t, clone)) {
					t.Fatalf("refused AssignMixed (%v) still edited the design", err)
				}
			}
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("AssignMixed = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("AssignMixed = %v, want errors.Is(..., %v)", err, tc.wantErr)
			}
		})
	}
}

// TestRunValidation exercises the named errors on the run entry points:
// nil design, missing library, bad options, no strategy and a non-MT
// AssignMixed flavor.
func TestRunValidation(t *testing.T) {
	d, cfg := prepDesign(t, 1.2)
	opts := assign.DefaultOptions()

	t.Run("nil design", func(t *testing.T) {
		if _, err := Assign(nil, cfg, greedy, opts); !errors.Is(err, ErrNilDesign) {
			t.Fatalf("Assign(nil) = %v, want ErrNilDesign", err)
		}
		if _, err := RecoverSizing(nil, cfg, greedy, opts); !errors.Is(err, ErrNilDesign) {
			t.Fatalf("RecoverSizing(nil) = %v, want ErrNilDesign", err)
		}
	})
	t.Run("nil library", func(t *testing.T) {
		clone := d.Clone()
		clone.Lib = nil
		if _, err := Assign(clone, cfg, greedy, opts); !errors.Is(err, ErrNilLibrary) {
			t.Fatalf("Assign(no lib) = %v, want ErrNilLibrary", err)
		}
	})
	t.Run("bad options", func(t *testing.T) {
		bad := opts
		bad.BatchSize = -1
		if _, err := Assign(d.Clone(), cfg, greedy, bad); !errors.Is(err, assign.ErrNonPositiveBatch) {
			t.Fatalf("Assign(bad batch) = %v, want ErrNonPositiveBatch", err)
		}
	})
	t.Run("unknown strategy", func(t *testing.T) {
		// A nil strategy is a selection that never resolved.
		if _, err := AssignMixed(d.Clone(), cfg, nil, opts, liberty.FlavorMTNoVGND); !errors.Is(err, assign.ErrUnknownStrategy) {
			t.Fatalf("AssignMixed(nil strategy) = %v, want ErrUnknownStrategy", err)
		}
	})
	t.Run("non-MT mixed flavor", func(t *testing.T) {
		for _, f := range []liberty.Flavor{liberty.FlavorHVT, liberty.FlavorLVT, liberty.Flavor("XT")} {
			if _, err := AssignMixed(d.Clone(), cfg, greedy, opts, f); !errors.Is(err, ErrUnknownFlavor) {
				t.Fatalf("AssignMixed(%q) = %v, want ErrUnknownFlavor", f, err)
			}
		}
	})
	t.Run("validation precedes mutation", func(t *testing.T) {
		// A rejected run must not have touched the design: AssignMixed
		// validates before its MT pre-conversion pass.
		clone := d.Clone()
		before := netlistBytes(t, clone)
		bad := opts
		bad.MaxPasses = -1
		if _, err := AssignMixed(clone, cfg, greedy, bad, liberty.FlavorMTNoVGND); err == nil {
			t.Fatal("AssignMixed with bad options succeeded")
		}
		if !bytes.Equal(before, netlistBytes(t, clone)) {
			t.Fatal("rejected AssignMixed still mutated the design")
		}
	})
}
