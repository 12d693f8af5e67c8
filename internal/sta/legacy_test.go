// Map-keyed timing pass, kept verbatim as the test oracle. AnalyzeLegacy
// walks the design through pointer-and-map state (map[*netlist.Net]float64
// per quantity) exactly as the engine did before the flat kernel landed,
// and returns its own map-keyed legacyResult. The property tests hold the
// propagator to bit-identical results against it, at every lane layout.
package sta

import (
	"math"

	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
)

// legacyResult is the oracle's map-keyed analysis result, one map per
// per-net quantity; legacyView reads a Result into the same shape so the
// two can be compared.
type legacyResult struct {
	Config Config

	ArrivalMax  map[*netlist.Net]float64
	ArrivalMin  map[*netlist.Net]float64
	SlewMax     map[*netlist.Net]float64
	RequiredMax map[*netlist.Net]float64
	RC          map[*netlist.Net]*parasitics.RCTree

	WNS            float64
	TNS            float64
	WorstHold      float64
	HoldViolations []*netlist.Instance
	Revision       uint64

	design *netlist.Design
}

// clkArr returns a flop's clock insertion delay under the result's config.
func (r *legacyResult) clkArr(inst *netlist.Instance) float64 {
	if r.Config.ClockArrival != nil {
		return r.Config.ClockArrival(inst)
	}
	return 0
}

// AnalyzeLegacy runs full setup and hold analysis on the retained
// map-based reference pass. Results are bit-identical to Analyze; the
// flat kernel exists because this pass spends its time in hash lookups,
// pointer chases and per-arc Elmore recomputation.
func AnalyzeLegacy(d *netlist.Design, cfg Config) (*legacyResult, error) {
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	order, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}
	r := &legacyResult{
		Config:      cfg,
		ArrivalMax:  make(map[*netlist.Net]float64, d.NumNets()),
		ArrivalMin:  make(map[*netlist.Net]float64, d.NumNets()),
		SlewMax:     make(map[*netlist.Net]float64, d.NumNets()),
		RequiredMax: make(map[*netlist.Net]float64, d.NumNets()),
		RC:          make(map[*netlist.Net]*parasitics.RCTree, d.NumNets()),
		design:      d,
	}
	for _, n := range d.Nets() {
		r.RC[n] = cfg.Extractor.Extract(n)
	}
	propagateArrival(r, order)
	propagateRequired(r, order)
	endpointChecks(r)
	r.Revision = d.Revision()
	return r, nil
}

// portArrival returns the arrival/slew a primary-input port seeds on its
// net, and ok=false for ports that are not data sources (outputs, the
// clock).
func portArrival(r *legacyResult, p *netlist.Port) (arr, slew float64, ok bool) {
	if p.Dir != netlist.DirInput || p.Name == r.Config.ClockPort {
		return 0, 0, false
	}
	return r.Config.InputDelayNs, r.Config.InputSlewNs, true
}

// seqArrival computes a flop's Q arrival and slew from the clock edge.
// ok=false when the flop has no output net.
func seqArrival(r *legacyResult, inst *netlist.Instance) (q *netlist.Net, arr, slew float64, ok bool) {
	q = inst.OutputNet()
	if q == nil {
		return nil, 0, 0, false
	}
	arc := inst.Cell.Arc("CK", "Q")
	load := r.RC[q].TotalCap()
	var dq, sq float64
	if arc != nil {
		dq = arc.WorstDelay(r.Config.ClockSlewNs, load)
		sq = arc.WorstSlew(r.Config.ClockSlewNs, load)
	}
	return q, r.clkArr(inst) + dq, sq, true
}

// combArrival computes a combinational instance's output arrival window
// and worst slew from its (already computed) fanin arrivals. ok=false
// when the instance has no output net or no constrained fanin.
func combArrival(r *legacyResult, inst *netlist.Instance) (out *netlist.Net, amax, amin, smax float64, ok bool) {
	out = inst.OutputNet()
	if out == nil {
		return nil, 0, 0, 0, false // switches, holders
	}
	load := r.RC[out].TotalCap()
	amax = math.Inf(-1)
	amin = math.Inf(1)
	smax = 0.0
	for _, arc := range inst.Cell.Arcs {
		inNet := inst.Net(arc.From)
		if inNet == nil {
			continue
		}
		inArrMax, ok := r.ArrivalMax[inNet]
		if !ok {
			continue // unconstrained input
		}
		inArrMin := r.ArrivalMin[inNet]
		inSlew := r.SlewMax[inNet]
		wireMax, wireMin := sinkWireDelay(r.RC[inNet], inNet, inst, arc.From)
		dm := arc.WorstDelay(inSlew, load)
		amax = math.Max(amax, inArrMax+wireMax+dm)
		amin = math.Min(amin, inArrMin+wireMin+dm)
		smax = math.Max(smax, arc.WorstSlew(inSlew, load))
	}
	if math.IsInf(amax, -1) {
		return out, 0, 0, 0, false // no constrained fanin: leave unconstrained
	}
	return out, amax, amin, smax, true
}

// propagateArrival runs the forward pass (max and min together) over the
// whole design. Sources: primary inputs and flop Q outputs.
func propagateArrival(r *legacyResult, order []*netlist.Instance) {
	d := r.design
	for _, p := range d.Ports() {
		if arr, slew, ok := portArrival(r, p); ok {
			r.ArrivalMax[p.Net] = arr
			r.ArrivalMin[p.Net] = arr
			r.SlewMax[p.Net] = slew
		}
	}
	for _, inst := range d.Instances() {
		if !inst.Cell.IsSequential() {
			continue
		}
		if q, arr, slew, ok := seqArrival(r, inst); ok {
			r.ArrivalMax[q] = arr
			r.ArrivalMin[q] = arr
			r.SlewMax[q] = slew
		}
	}
	// Combinational instances in topological order.
	for _, inst := range order {
		if inst.Cell.IsSequential() {
			continue
		}
		if out, amax, amin, smax, ok := combArrival(r, inst); ok {
			r.ArrivalMax[out] = amax
			r.ArrivalMin[out] = amin
			r.SlewMax[out] = smax
		}
	}
}

// outputPortRequired is the required time an output port imposes on its
// net. Shared by the full backward pass, the incremental recompute and
// the endpoint checks so the three always agree bit for bit.
func outputPortRequired(r *legacyResult) float64 {
	return r.Config.ClockPeriodNs - r.Config.OutputDelayNs
}

// flopSetupRequired is the required time a flop's setup check imposes on
// its D net.
func flopSetupRequired(r *legacyResult, inst *netlist.Instance) float64 {
	return r.Config.ClockPeriodNs + r.clkArr(inst) - inst.Cell.SetupNs
}

// backwardCands visits every required-time candidate a combinational
// instance pushes onto its fanin nets: req(output) minus the arc delay at
// the output load minus the input wire delay.
func backwardCands(r *legacyResult, inst *netlist.Instance, visit func(inNet *netlist.Net, cand float64)) {
	out := inst.OutputNet()
	if out == nil {
		return
	}
	req, ok := r.RequiredMax[out]
	if !ok {
		return
	}
	load := r.RC[out].TotalCap()
	for _, arc := range inst.Cell.Arcs {
		inNet := inst.Net(arc.From)
		if inNet == nil {
			continue
		}
		inSlew := r.SlewMax[inNet]
		wireMax, _ := sinkWireDelay(r.RC[inNet], inNet, inst, arc.From)
		visit(inNet, req-arc.WorstDelay(inSlew, load)-wireMax)
	}
}

// propagateRequired runs the backward pass: endpoint required times, then
// propagation against the topological order. RequiredMax must be empty on
// entry.
func propagateRequired(r *legacyResult, order []*netlist.Instance) {
	d := r.design
	// Initialize endpoint requireds.
	for _, p := range d.Ports() {
		if p.Dir != netlist.DirOutput {
			continue
		}
		setRequired(r, p.Net, outputPortRequired(r))
	}
	for _, inst := range d.Instances() {
		if !inst.Cell.IsSequential() {
			continue
		}
		dNet := inst.Net("D")
		if dNet == nil {
			continue
		}
		setRequired(r, dNet, flopSetupRequired(r, inst))
	}
	// Propagate requireds backward through the topological order.
	for i := len(order) - 1; i >= 0; i-- {
		inst := order[i]
		if inst.Cell.IsSequential() {
			continue
		}
		backwardCands(r, inst, func(inNet *netlist.Net, cand float64) {
			setRequired(r, inNet, cand)
		})
	}
}

// endpointChecks recomputes WNS/TNS, the worst hold slack and the hold
// violation list from the current arrival maps. It scans endpoints in the
// design's deterministic iteration order, so repeated recomputation
// accumulates TNS in exactly the order a from-scratch analysis would.
func endpointChecks(r *legacyResult) {
	d := r.design
	T := r.Config.ClockPeriodNs
	r.WNS = math.Inf(1)
	r.WorstHold = math.Inf(1)
	r.HoldViolations = nil
	r.TNS = 0
	check := func(n *netlist.Net, req float64) {
		arr, ok := r.ArrivalMax[n]
		if !ok {
			return
		}
		s := req - arr
		if s < r.WNS {
			r.WNS = s
		}
		if s < 0 {
			r.TNS += s
		}
	}
	for _, p := range d.Ports() {
		if p.Dir == netlist.DirOutput {
			check(p.Net, outputPortRequired(r))
		}
	}
	for _, inst := range d.Instances() {
		if !inst.Cell.IsSequential() {
			continue
		}
		dNet := inst.Net("D")
		if dNet == nil {
			continue
		}
		lat := r.clkArr(inst)
		check(dNet, flopSetupRequired(r, inst))
		// Hold check at this flop.
		if am, ok := r.ArrivalMin[dNet]; ok {
			wireMin := minWireDelayTo(r.RC[dNet], dNet, inst, "D")
			hs := am + wireMin - lat - inst.Cell.HoldNs
			if hs < r.WorstHold {
				r.WorstHold = hs
			}
			if hs < 0 {
				r.HoldViolations = append(r.HoldViolations, inst)
			}
		}
	}
	if math.IsInf(r.WNS, 1) {
		r.WNS = T // no endpoints: trivially met
	}
	if math.IsInf(r.WorstHold, 1) {
		r.WorstHold = 0
	}
}

func setRequired(r *legacyResult, n *netlist.Net, req float64) {
	if cur, ok := r.RequiredMax[n]; !ok || req < cur {
		r.RequiredMax[n] = req
	}
}

// sinkWireDelay returns the (max, min) Elmore delay from a net's driver to
// the given instance pin. Max and min coincide in the Elmore model; both
// are returned for interface clarity.
func sinkWireDelay(rc *parasitics.RCTree, n *netlist.Net, inst *netlist.Instance, pin string) (float64, float64) {
	if rc == nil {
		return 0, 0
	}
	for i, s := range n.Sinks {
		if s.Inst == inst && s.Pin == pin {
			if i < len(rc.SinkNode) {
				d := rc.ElmoreDelays()[rc.SinkNode[i]]
				return d, d
			}
		}
	}
	return 0, 0
}

func minWireDelayTo(rc *parasitics.RCTree, n *netlist.Net, inst *netlist.Instance, pin string) float64 {
	d, _ := sinkWireDelay(rc, n, inst, pin)
	return d
}
