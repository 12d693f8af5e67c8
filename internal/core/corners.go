package core

import (
	"selectivemt/internal/mcmm"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/power"
	"selectivemt/internal/sta"
)

// signoffCorners attaches the multi-corner sign-off report to a finished
// technique result when the config asks for one. The sign-off session
// works on a clone of the result's design: the typical-corner numbers the
// flow just measured — the ones Table 1 is built from — are not touched,
// while the clone gets its hold re-verified (and if needed re-fixed)
// at the binding fast corner, the discipline a tape-out would use.
func signoffCorners(res *TechniqueResult, cfg *Config) error {
	if len(cfg.Corners) == 0 {
		return nil
	}
	set := cfg.CornerSet
	if set == nil {
		set = mcmm.NewSet(cfg.Proc, cfg.Lib)
	}
	sess, err := mcmm.NewSession(res.Design, set, cfg.Corners, cfg.cornerStaConfig(res))
	if err != nil {
		return err
	}
	rep, err := mcmm.Signoff(sess, mcmm.SignoffOptions{
		Standby: power.StandbyOptions{
			Inputs:   cfg.StandbyInputs,
			Gated:    res.gatedFn,
			HolderOn: res.holderFn,
		},
		GatingKey: res.Technique,
		FixHold:   true,
		ECO:       cfg.ECOOpts,
		Cache:     cfg.Cache,
	})
	if err != nil {
		return err
	}
	rep.Circuit = res.Design.Name
	rep.Technique = res.Technique
	res.CornerReport = rep
	return nil
}

// cornerStaConfig returns the per-corner timing-config builder for a
// finished design: post-route Steiner extraction with the corner's
// derated parasitics, and the flow's CTS insertion delays scaled by the
// corner's clock-path derate. Arrival lookups go by instance name so the
// same clock tree serves every corner view.
func (c *Config) cornerStaConfig(res *TechniqueResult) func(*mcmm.Characterization) sta.Config {
	arrival := make(map[string]float64)
	if res.CTS != nil {
		for _, inst := range res.Design.Instances() {
			if inst.Cell.IsSequential() {
				arrival[inst.Name] = res.CTS.Arrival(inst)
			}
		}
	}
	return func(ch *mcmm.Characterization) sta.Config {
		scfg := c.staConfig(&parasitics.SteinerExtractor{Proc: ch.Proc,
			TrunkNets: func(n *netlist.Net) bool { return n.IsVGND }}, nil)
		data := ch.DataDerate(c.Proc)
		scfg.InputDelayNs *= data
		scfg.OutputDelayNs *= data
		if len(arrival) > 0 {
			derate := ch.ClockDerate(c.Proc)
			scfg.ClockArrival = func(inst *netlist.Instance) float64 {
				return derate * arrival[inst.Name]
			}
		}
		return scfg
	}
}

// PreRouteCornerConfig returns the per-corner timing-config builder for
// an unoptimized design (no clock tree yet): pre-route estimate
// extraction with the corner's process. smtreport's corner analysis runs
// under it.
func (c *Config) PreRouteCornerConfig() func(*mcmm.Characterization) sta.Config {
	return func(ch *mcmm.Characterization) sta.Config {
		scfg := c.staConfig(&parasitics.EstimateExtractor{Proc: ch.Proc}, nil)
		data := ch.DataDerate(c.Proc)
		scfg.InputDelayNs *= data
		scfg.OutputDelayNs *= data
		return scfg
	}
}
