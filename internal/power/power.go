// Package power computes the numbers Table 1 of the paper reports: standby
// leakage (state-dependent subthreshold with sleep switches off), active
// leakage, and dynamic power from simulated switching activity. It also
// derives the per-cell discharge currents the sleep-switch sizing uses.
package power

import (
	"fmt"

	"selectivemt/internal/liberty"
	"selectivemt/internal/logic"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/sim"
	"selectivemt/internal/tech"
)

// Category labels a leakage contribution.
type Category string

// Leakage breakdown categories.
const (
	CatLVT    Category = "lvt-comb"
	CatHVT    Category = "hvt-comb"
	CatMT     Category = "mt-gated"
	CatFF     Category = "flop"
	CatSwitch Category = "switch"
	CatHolder Category = "holder"
	CatClock  Category = "clock"
)

// Report is a power analysis result. All values in mW.
type Report struct {
	StandbyLeakMW float64
	ActiveLeakMW  float64
	DynamicMW     float64
	Breakdown     map[Category]float64
}

// StandbyOptions configures standby leakage analysis.
type StandbyOptions struct {
	// Inputs is the primary-input state held during standby (missing
	// inputs default to 0).
	Inputs map[string]logic.Value
	// Gated reports whether an instance is power-gated (its sleep switch
	// is off). nil means nothing is gated.
	Gated func(*netlist.Instance) bool
	// HolderOn reports whether a net has an output holder forcing it to 1
	// in standby.
	HolderOn func(*netlist.Net) bool
}

// Standby computes the standby leakage of the design.
//
// The standby state is derived by simulation: primary inputs held at the
// given vector, flop states assumed 0 (the registered state a design
// typically parks in), gated cells' outputs held by their holders or
// floating. Each powered cell then leaks per its input state; gated cells
// leak only their residual (embedded-switch) standby figure; shared
// switches leak their own off-state subthreshold.
func Standby(d *netlist.Design, opts StandbyOptions) (*Report, error) {
	s, err := sim.New(d)
	if err != nil {
		return nil, err
	}
	return StandbyWith(s, opts)
}

// StandbyWith is Standby on an existing simulator, for the design as of
// its last compile or Update. It starts from a fresh state (every net X),
// so it answers what Standby would, and walks the simulator's instances
// in d.Instances() order, so every sum adds up in Standby's order.
func StandbyWith(s *sim.Simulator, opts StandbyOptions) (*Report, error) {
	s.Reset()
	s.ResetState(logic.V0)
	for _, p := range s.Design().Ports() {
		if p.Dir != netlist.DirInput {
			continue
		}
		v := logic.V0
		if opts.Inputs != nil {
			if iv, ok := opts.Inputs[p.Name]; ok {
				v = iv
			}
		}
		if err := s.SetInput(p.Name, v); err != nil {
			return nil, err
		}
	}
	s.EvalStandby(opts.Gated, opts.HolderOn)

	rep := &Report{Breakdown: make(map[Category]float64)}
	add := func(cat Category, mw float64) {
		rep.Breakdown[cat] += mw
		rep.StandbyLeakMW += mw
	}
	for i, inst := range s.Instances() {
		c := inst.Cell
		switch c.Kind {
		case liberty.KindSwitch:
			add(CatSwitch, c.StandbyLeakMW)
		case liberty.KindHolder:
			add(CatHolder, c.StandbyLeakMW)
		case liberty.KindClockBuf:
			add(CatClock, c.StandbyLeakMW)
		case liberty.KindFF:
			add(CatFF, c.LeakageMW) // flops stay powered
		default:
			if opts.Gated != nil && opts.Gated(inst) {
				add(CatMT, c.StandbyLeakMW)
				continue
			}
			leak := s.Leakage(i)
			if c.Vth == tech.VthLow {
				add(CatLVT, leak)
			} else {
				add(CatHVT, leak)
			}
		}
	}
	return rep, nil
}

// ActiveLeakage sums the powered (MTE asserted) leakage of every instance.
func ActiveLeakage(d *netlist.Design) float64 {
	var mw float64
	for _, inst := range d.Instances() {
		mw += inst.Cell.LeakageMW
	}
	return mw
}

// Dynamic estimates switching power at the given clock frequency (GHz =
// 1/ns): P = Σ_nets toggle·C_net·Vdd²·f, plus a 10% short-circuit adder.
// A nil activity means no switching, as in Currents: 0 mW.
func Dynamic(d *netlist.Design, act *sim.Activity, proc *tech.Process,
	clockPeriodNs float64, ex parasitics.Extractor) (float64, error) {
	if clockPeriodNs <= 0 {
		return 0, fmt.Errorf("power: clock period must be positive")
	}
	if act == nil {
		return 0, nil
	}
	f := 1 / clockPeriodNs // GHz = 1/ns
	var mw float64
	for _, n := range d.Nets() {
		tog := act.Toggle[n]
		if tog == 0 {
			continue
		}
		c := ex.Extract(n).TotalCap()
		mw += tog * c * proc.Vdd * proc.Vdd * f
	}
	return mw * 1.1, nil
}

// CellCurrents returns each instance's average and peak discharge current
// in mA: the average weights the cell's output-net switching capacitance by
// its toggle rate; the peak is the library's characterized worst-case. The
// switch-structure optimizer sizes clusters from these.
type CellCurrents struct {
	AvgMA  map[*netlist.Instance]float64
	PeakMA map[*netlist.Instance]float64
}

// Currents computes per-instance discharge currents.
func Currents(d *netlist.Design, act *sim.Activity, proc *tech.Process,
	clockPeriodNs float64, ex parasitics.Extractor) (*CellCurrents, error) {
	if clockPeriodNs <= 0 {
		return nil, fmt.Errorf("power: clock period must be positive")
	}
	cc := &CellCurrents{
		AvgMA:  make(map[*netlist.Instance]float64, d.NumInstances()),
		PeakMA: make(map[*netlist.Instance]float64, d.NumInstances()),
	}
	f := 1 / clockPeriodNs
	for _, inst := range d.Instances() {
		out := inst.OutputNet()
		if out == nil {
			continue
		}
		tog := 0.0
		if act != nil {
			tog = act.Toggle[out]
		}
		c := ex.Extract(out).TotalCap()
		// Average current over a cycle: charge moved per cycle × f.
		// Only falling transitions discharge through the cell's VGND
		// (half the toggles).
		cc.AvgMA[inst] = 0.5 * tog * c * proc.Vdd * f
		cc.PeakMA[inst] = inst.Cell.PeakCurrentMA
	}
	return cc, nil
}
