package core

import (
	"context"
	"testing"

	"selectivemt/internal/gen"
	"selectivemt/internal/netlist"
)

// TestFlowScales runs the improved flow on a design ~7× circuit A (a
// 24×24 array multiplier, ~6,600 mapped instances) to verify the engines
// stay correct and tractable as the netlist grows. It caught a real rule
// interaction: a lone X4 cell exceeds the shared-rail EM current limit,
// which is why single-cell clusters are exempt. Skipped under -short.
func TestFlowScales(t *testing.T) {
	if testing.Short() {
		t.Skip("scalability test skipped in -short mode")
	}
	m := gen.NewModule("big_mult")
	a := m.InputBus("a", 24)
	b := m.InputBus("b", 24)
	ra := m.DFFBus(a)
	rb := m.DFFBus(b)
	p := m.DFFBus(m.ArrayMultiplier(ra, rb))
	m.OutputBus("p", p)
	l := lib(t)
	cfg := DefaultConfig(sharedProc, l)
	cfg.ClockSlack = 1.15
	base, err := PrepareBase(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.NumInstances() < 2500 {
		t.Fatalf("expected a big mapped circuit, got %d instances", base.NumInstances())
	}
	res, err := RunRegistered(context.Background(), "Improved-SMT", base, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Design.Validate(netlist.StrictValidate()); err != nil {
		t.Fatal(err)
	}
	if res.WNSNs < -0.02*cfg.ClockPeriodNs {
		t.Errorf("big flow broke timing: WNS %v at %v", res.WNSNs, cfg.ClockPeriodNs)
	}
	if res.Counts.MT == 0 || res.Counts.Switches == 0 {
		t.Error("no gating structure built at scale")
	}
	// Sharing should hold (or improve) at scale.
	sharing := float64(res.Counts.MT) / float64(res.Counts.Switches)
	if sharing < 4 {
		t.Errorf("sharing degraded at scale: %.1f cells/switch", sharing)
	}
	// Every cluster still passes its rule check (done inside reopt), and
	// leakage stays far below an all-LVT equivalent.
	if res.StandbyLeakMW <= 0 {
		t.Error("no leakage computed")
	}
}
