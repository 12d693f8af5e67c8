package netlist

import (
	"testing"

	"selectivemt/internal/geom"
)

func TestFingerprintCloneInvariant(t *testing.T) {
	d, _, _ := buildChain(t)
	fp := d.Fingerprint()
	if fp == "" || fp != d.Fingerprint() {
		t.Fatal("fingerprint not stable across calls")
	}
	c := d.Clone()
	if c.Fingerprint() != fp {
		t.Error("clone changed the fingerprint")
	}
}

func TestFingerprintSeesMutations(t *testing.T) {
	d, inv, _ := buildChain(t)
	fp := d.Fingerprint()

	// Cell swap changes it.
	hvt := lib(t).Cell("INV_X1_H")
	if err := d.ReplaceCell(inv, hvt); err != nil {
		t.Fatal(err)
	}
	fp2 := d.Fingerprint()
	if fp2 == fp {
		t.Error("cell swap did not change the fingerprint")
	}

	// Placement move changes it.
	inv.Pos = geom.Point{X: 42, Y: 7}
	inv.Placed = true
	if d.Fingerprint() == fp2 {
		t.Error("placement move did not change the fingerprint")
	}

	// Two structurally different designs differ.
	e, _, _ := buildChain(t)
	if e.Fingerprint() != fp {
		t.Error("identical rebuild should reproduce the fingerprint")
	}
}

// TestFingerprintSeesSubNanometreMoves: coordinates are hashed as exact
// float64 bits, so nudging an instance, a port or the core region by
// 0.1 nm (1e-4 µm) is a different design to the analysis cache. A
// rendering rounded to 1 nm would not see any of these moves.
func TestFingerprintSeesSubNanometreMoves(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nudge func(d *Design)
	}{
		{"instance", func(d *Design) {
			inst := d.Instance("u_inv")
			inst.Pos.X += 1e-4
			d.NotePlacement(inst)
		}},
		{"port", func(d *Design) { d.PortByName("in").Pos.Y += 1e-4 }},
		{"core", func(d *Design) { d.Core.Hi.X += 1e-4 }},
	} {
		d, inv, nd := buildChain(t)
		d.Core = geom.RectOf(0, 0, 20, 10)
		inv.Pos, inv.Placed = geom.Point{X: 4, Y: 5}, true
		nd.Pos, nd.Placed = geom.Point{X: 12, Y: 5}, true
		for i, p := range d.Ports() {
			p.Pos, p.Placed = geom.Point{X: 0, Y: float64(2 + 3*i)}, true
		}
		fp := d.Fingerprint()
		tc.nudge(d)
		if d.Fingerprint() == fp {
			t.Errorf("%s nudged by 1e-4 µm kept the fingerprint", tc.name)
		}
	}
}
