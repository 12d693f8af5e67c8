// Package sta is the static timing engine: levelized max/min arrival
// propagation with NLDM table lookups and Elmore interconnect, setup and
// hold checks against a (possibly skewed) clock, per-instance slack and
// worst-path extraction. Every assignment step of the Selective-MT flow
// (Dual-Vth, MT selection, switch clustering, ECO) queries this engine.
//
// There is one engine. A CompiledGraph (compiled.go) holds a design
// revision as flat, slice-indexed data, and the shard drain (sharded.go)
// is the only propagator over it: one shard by default, Config.Partitions
// only sets the shard count. A Result reads the flat per-net state
// through accessors (Arrival, Slew, Required, RC, Slack). The map-based
// pass this kernel replaced is kept as the bit-exactness oracle in
// legacy_test.go.
package sta

import (
	"fmt"
	"math"
	"sort"

	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
)

// Config parameterizes a timing run.
type Config struct {
	ClockPeriodNs float64
	ClockPort     string  // name of the primary clock input
	InputDelayNs  float64 // external arrival at non-clock primary inputs
	OutputDelayNs float64 // external required-time margin at primary outputs
	InputSlewNs   float64 // slew presented by primary inputs
	Extractor     parasitics.Extractor
	// ClockArrival returns each flop's clock insertion delay (from CTS).
	// nil means an ideal clock with zero skew.
	ClockArrival func(*netlist.Instance) float64
	// ClockSlewNs is the slew at flop clock pins (post-CTS).
	ClockSlewNs float64

	// Partitions sets the shard count of Analyze/Incremental: at <= 1 one
	// shard owns the whole design; above it the design is clustered
	// (internal/partition) into about this many shards, propagation fans
	// out per shard and the cross-shard interface graph iterates to a
	// fixed point. Results are bit-identical at any shard and worker count.
	Partitions int
	// ShardJobs bounds the per-design fan-out width: the shard drains,
	// and the assignment lanes that run on this timer
	// (Incremental.Workers). <= 0 means GOMAXPROCS; always clamped to the
	// shard count. At 1 propagation stays on the calling goroutine and
	// allocates nothing.
	ShardJobs int
	// Deprecated: ShardRun is ignored. The shard drains fan out on
	// engine.Map. The field stays only because cmd/smtbench still
	// assigns it.
	ShardRun func(tasks, workers int, run func(task int))

	// shardAssign overrides the clustering pass with an explicit
	// instance-to-shard assignment of shardCount shards — the property
	// tests' hook for adversarially random cuts.
	shardAssign func(*netlist.Instance) int32
	shardCount  int
}

// clockArrival returns a flop's clock insertion delay (0 under an ideal
// clock).
func (c *Config) clockArrival(inst *netlist.Instance) float64 {
	if c.ClockArrival != nil {
		return c.ClockArrival(inst)
	}
	return 0
}

// outputRequired is the required time an output port imposes on its net.
func (c *Config) outputRequired() float64 {
	return c.ClockPeriodNs - c.OutputDelayNs
}

// setupRequired is the required time a flop's setup check imposes on its
// D net.
func (c *Config) setupRequired(inst *netlist.Instance) float64 {
	return c.ClockPeriodNs + c.clockArrival(inst) - inst.Cell.SetupNs
}

// Result is a completed timing analysis. Per-net answers come from the
// accessors over flat state: a Result from Analyze reads its own copy, and
// an Incremental's Result reads the timer's current graph, so it follows
// every Update.
type Result struct {
	Config Config

	WNS float64 // worst negative slack (positive = met), setup
	TNS float64 // total negative slack, setup
	// WorstHold is the worst hold slack over all flops.
	WorstHold float64
	// HoldViolations lists flops with negative hold slack.
	HoldViolations []*netlist.Instance

	// Revision is the design's change-journal revision this result
	// reflects (netlist.Design.Revision at analysis time). A caller
	// holding a Result can compare it against the design's current
	// revision to detect staleness without re-analyzing.
	Revision uint64

	design *netlist.Design
	st     *netState
}

// Design returns the design the result was computed on.
func (r *Result) Design() *netlist.Design { return r.design }

// Arrival returns the latest and earliest signal arrival at a net's
// driver output, ns; ok=false for nets with no constrained arrival.
func (r *Result) Arrival(n *netlist.Net) (amax, amin float64, ok bool) {
	id, ok := r.st.lookup(n)
	if !ok || !r.st.hasArr[id] {
		return 0, 0, false
	}
	return r.st.arrMax[id], r.st.arrMin[id], true
}

// Slew returns the worst slew at a net's driver output (0 for nets with
// no constrained arrival).
func (r *Result) Slew(n *netlist.Net) float64 {
	if id, ok := r.st.lookup(n); ok {
		return r.st.slewMax[id]
	}
	return 0
}

// Required returns the latest allowed arrival at a net; ok=false for nets
// with no constrained fanout cone.
func (r *Result) Required(n *netlist.Net) (float64, bool) {
	id, ok := r.st.lookup(n)
	if !ok || !r.st.hasReq[id] {
		return 0, false
	}
	return r.st.reqMax[id], true
}

// RC returns the extracted parasitics of a net (nil for a net the
// analysis did not cover).
func (r *Result) RC(n *netlist.Net) *parasitics.RCTree {
	if id, ok := r.st.lookup(n); ok {
		return r.st.rc[id]
	}
	return nil
}

// Slack returns the setup slack of a net (required - arrival); +Inf for
// nets with no constrained fanout cone.
func (r *Result) Slack(n *netlist.Net) float64 {
	id, ok := r.st.lookup(n)
	if !ok || !r.st.hasReq[id] {
		return math.Inf(1)
	}
	return r.st.reqMax[id] - r.st.arrMax[id]
}

// InstSlack returns the setup slack of an instance's output net.
func (r *Result) InstSlack(inst *netlist.Instance) float64 {
	out := inst.OutputNet()
	if out == nil {
		return math.Inf(1)
	}
	return r.Slack(out)
}

// normalizeConfig validates a timing config and fills slew defaults.
func normalizeConfig(cfg Config) (Config, error) {
	if cfg.ClockPeriodNs <= 0 {
		return cfg, fmt.Errorf("sta: clock period %v must be positive", cfg.ClockPeriodNs)
	}
	if cfg.Extractor == nil {
		return cfg, fmt.Errorf("sta: no parasitic extractor")
	}
	if cfg.InputSlewNs <= 0 {
		cfg.InputSlewNs = 0.05
	}
	if cfg.ClockSlewNs <= 0 {
		cfg.ClockSlewNs = 0.04
	}
	return cfg, nil
}

// Analyze runs full setup and hold analysis: it compiles the design,
// propagates once and returns a Result that owns the per-net state. A
// caller that analyzes one design across edits should keep an Incremental
// instead: it follows the edits at retime cost.
func Analyze(d *netlist.Design, cfg Config) (*Result, error) {
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	sg, err := newTimer(d, cfg)
	if err != nil {
		return nil, err
	}
	sg.runFull()
	return sg.cg.result(), nil
}

// CriticalInstances returns the instances whose output slack is below the
// margin, i.e. the gates the MT assignment must keep fast.
func (r *Result) CriticalInstances(marginNs float64) []*netlist.Instance {
	var out []*netlist.Instance
	for _, inst := range r.design.Instances() {
		if inst.Cell.Kind == liberty.KindSwitch || inst.Cell.Kind == liberty.KindHolder {
			continue
		}
		if r.InstSlack(inst) < marginNs {
			out = append(out, inst)
		}
	}
	return out
}

// PathStep is one instance along a timing path.
type PathStep struct {
	Inst     *netlist.Instance
	Net      *netlist.Net
	ArriveNs float64
}

// Path is an extracted worst path.
type Path struct {
	Steps   []PathStep
	SlackNs float64
}

// WorstPaths extracts up to k worst setup paths by backtracking the max
// arrival from the worst endpoints.
func (r *Result) WorstPaths(k int) []Path {
	type endpoint struct {
		net   *netlist.Net
		slack float64
	}
	var eps []endpoint
	for _, p := range r.design.Ports() {
		if p.Dir != netlist.DirOutput {
			continue
		}
		if arr, _, ok := r.Arrival(p.Net); ok {
			eps = append(eps, endpoint{p.Net, r.Config.outputRequired() - arr})
		}
	}
	for _, inst := range r.design.Instances() {
		if !inst.Cell.IsSequential() {
			continue
		}
		if dNet := inst.Net("D"); dNet != nil {
			if arr, _, ok := r.Arrival(dNet); ok {
				eps = append(eps, endpoint{dNet, r.Config.setupRequired(inst) - arr})
			}
		}
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i].slack < eps[j].slack })
	if k > len(eps) {
		k = len(eps)
	}
	var paths []Path
	for i := 0; i < k; i++ {
		paths = append(paths, r.backtrack(eps[i].net, eps[i].slack))
	}
	return paths
}

// backtrack walks the max-arrival predecessors from a net to a source.
func (r *Result) backtrack(n *netlist.Net, slack float64) Path {
	p := Path{SlackNs: slack}
	cur := n
	for steps := 0; steps < 10000; steps++ {
		drv := cur.Driver.Inst
		arr, _, _ := r.Arrival(cur)
		p.Steps = append(p.Steps, PathStep{Inst: drv, Net: cur, ArriveNs: arr})
		if drv == nil || drv.Cell.IsSequential() {
			break
		}
		// Find the input pin that set the max arrival.
		load := r.RC(cur).TotalCap()
		var bestNet *netlist.Net
		bestErr := math.Inf(1)
		for _, arc := range drv.Cell.Arcs {
			inNet := drv.Net(arc.From)
			if inNet == nil {
				continue
			}
			inArr, _, ok := r.Arrival(inNet)
			if !ok {
				continue
			}
			cand := inArr + wireDelay(r.RC(inNet), inNet, drv, arc.From) + arc.WorstDelay(r.Slew(inNet), load)
			if e := math.Abs(cand - arr); e < bestErr {
				bestErr, bestNet = e, inNet
			}
		}
		if bestNet == nil {
			break
		}
		cur = bestNet
	}
	// Reverse: source first.
	for i, j := 0, len(p.Steps)-1; i < j; i, j = i+1, j-1 {
		p.Steps[i], p.Steps[j] = p.Steps[j], p.Steps[i]
	}
	return p
}

// wireDelay returns the Elmore delay from a net's driver to one of its
// sink pins (0 when the pin did not resolve to an RC node).
func wireDelay(rc *parasitics.RCTree, n *netlist.Net, inst *netlist.Instance, pin string) float64 {
	i := sinkPos(n, inst, pin)
	if rc == nil || i < 0 || int(i) >= len(rc.SinkNode) {
		return 0
	}
	return rc.ElmoreDelays()[rc.SinkNode[i]]
}

// MinPeriod estimates the smallest feasible clock period by analyzing at a
// reference period and shifting by the worst slack.
func MinPeriod(d *netlist.Design, cfg Config) (float64, error) {
	if cfg.ClockPeriodNs <= 0 {
		cfg.ClockPeriodNs = 100
	}
	r, err := Analyze(d, cfg)
	if err != nil {
		return 0, err
	}
	return cfg.ClockPeriodNs - r.WNS, nil
}
