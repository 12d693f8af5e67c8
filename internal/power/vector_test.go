package power

import (
	"math"
	"strings"
	"testing"

	"selectivemt/internal/gen"
	"selectivemt/internal/logic"
	"selectivemt/internal/netlist"
	"selectivemt/internal/synth"
)

func TestOptimizeStandbyVectorImproves(t *testing.T) {
	d := mixed(t)
	// Leakage at the all-zeros vector.
	base, err := Standby(d, StandbyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vec, leak, err := OptimizeStandbyVector(d, StandbyOptions{}, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if leak > base.StandbyLeakMW {
		t.Errorf("optimizer made it worse: %v vs %v", leak, base.StandbyLeakMW)
	}
	// The returned vector must actually produce the reported leakage.
	rep, err := Standby(d, StandbyOptions{Inputs: vec})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StandbyLeakMW != leak {
		t.Errorf("reported %v, vector reproduces %v", leak, rep.StandbyLeakMW)
	}
	// Every non-clock input assigned.
	for _, name := range []string{"in", "in2"} {
		if _, ok := vec[name]; !ok {
			t.Errorf("input %s unassigned", name)
		}
	}
	if _, ok := vec["clk"]; ok {
		t.Error("clock must not be part of the standby vector")
	}
}

func TestOptimizeStandbyVectorIsLocalOptimum(t *testing.T) {
	d := mixed(t)
	vec, leak, err := OptimizeStandbyVector(d, StandbyOptions{}, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Flipping any single bit must not improve further.
	for in := range vec {
		flipped := make(map[string]logic.Value, len(vec))
		for k, v := range vec {
			flipped[k] = v
		}
		flipped[in] = flipped[in].Not()
		rep, err := Standby(d, StandbyOptions{Inputs: flipped})
		if err != nil {
			t.Fatal(err)
		}
		if rep.StandbyLeakMW < leak-1e-18 {
			t.Errorf("flipping %s improves %v → %v: not a local optimum",
				in, leak, rep.StandbyLeakMW)
		}
	}
}

func TestOptimizeStandbyVectorWithGating(t *testing.T) {
	d := mixed(t)
	inv := d.Instance("inv")
	d.ReplaceCell(inv, lib(t).Cell("INV_X1_MN"))
	opts := StandbyOptions{
		Gated:    func(i *netlist.Instance) bool { return i == inv },
		HolderOn: func(n *netlist.Net) bool { return n == d.NetByName("n1") },
	}
	_, leak, err := OptimizeStandbyVector(d, opts, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if leak <= 0 {
		t.Error("gated design should still have a floor")
	}
}

// TestOptimizeStandbyVectorCircuitA pins the search on the mapped
// Circuit A, ungated and under a fixed gating, to the vector and leakage
// it has always produced. Circuit A registers every input, so the
// all-zeros start is never strictly beaten.
func TestOptimizeStandbyVectorCircuitA(t *testing.T) {
	l := lib(t)
	d, err := synth.Map(gen.CircuitA().Module, l, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	gatedSet := map[*netlist.Instance]bool{}
	for i, inst := range d.Instances() {
		if i%5 == 0 {
			gatedSet[inst] = true
		}
	}
	heldSet := map[*netlist.Net]bool{}
	for i, n := range d.Nets() {
		if i%7 == 0 {
			heldSet[n] = true
		}
	}
	gatedOpts := StandbyOptions{
		Gated:    func(i *netlist.Instance) bool { return gatedSet[i] },
		HolderOn: func(n *netlist.Net) bool { return heldSet[n] },
	}
	for _, c := range []struct {
		name     string
		opts     StandbyOptions
		restarts int
		seed     int64
		vec      string // in port order
		leakBits uint64
	}{
		{"ungated", StandbyOptions{}, 4, 1, strings.Repeat("0", 32), 0x3f91b955eeb90c82},
		{"gated", gatedOpts, 2, 3, strings.Repeat("0", 32), 0x3f92d71bc22eed7f},
	} {
		vec, leak, err := OptimizeStandbyVector(d, c.opts, c.restarts, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		for _, p := range d.Ports() {
			if v, ok := vec[p.Name]; ok {
				got.WriteString(v.String())
			}
		}
		if got.String() != c.vec || len(vec) != len(c.vec) {
			t.Errorf("%s: vector %s (%d inputs), want %s", c.name, got.String(), len(vec), c.vec)
		}
		if math.Float64bits(leak) != c.leakBits {
			t.Errorf("%s: leakage %v mW, want %v", c.name, leak, math.Float64frombits(c.leakBits))
		}
	}
}

// TestOptimizeStandbyVectorFindsClockByNetlist: a clock port named CK is
// left out of the vector like one named clk.
func TestOptimizeStandbyVectorFindsClockByNetlist(t *testing.T) {
	d := mixedClockedBy(t, "CK")
	vec, _, err := OptimizeStandbyVector(d, StandbyOptions{}, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := vec["CK"]; ok || len(vec) != 2 {
		t.Errorf("vector %v: want exactly in and in2", vec)
	}
}
