package core

import (
	"context"
	"fmt"

	"selectivemt/internal/assign"
	"selectivemt/internal/cts"
	"selectivemt/internal/eco"
	"selectivemt/internal/engine"
	"selectivemt/internal/flow"
	"selectivemt/internal/gen"
	"selectivemt/internal/liberty"
	"selectivemt/internal/logic"
	"selectivemt/internal/mcmm"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/place"
	"selectivemt/internal/power"
	"selectivemt/internal/sim"
	"selectivemt/internal/sta"
	"selectivemt/internal/synth"
	"selectivemt/internal/tech"
	"selectivemt/internal/vgnd"
)

// Config parameterizes the full design flow.
type Config struct {
	Proc *tech.Process
	Lib  *liberty.Library

	ClockPort     string
	ClockPeriodNs float64 // 0 → ClockSlack × post-synthesis minimum period
	ClockSlack    float64 // default 1.1

	Rules     vgnd.Rules
	PlaceOpts place.Options
	CTSOpts   cts.Options
	ECOOpts   eco.Options

	// Strategy names the Vth-assignment strategy every Dual-Vth/SMT
	// stage runs with ("greedy", "sensitivity", or any registered
	// assign.Strategy). Empty means greedy — the paper's policy. The
	// stages run it with assign.DefaultOptions, a slack reserve of 4% of
	// the clock period and AssignJobs lanes (see Config.assignment).
	Strategy string

	MTEMaxFanout   int
	ActivityCycles int
	Seed           int64
	// StandbyInputs is the primary-input vector held in standby.
	StandbyInputs map[string]logic.Value

	// Cache, when set, memoizes deterministic per-design analyses
	// (pre-route STA, the min-period probe) across
	// techniques, circuits and repeated runs. Safe to share between
	// concurrent flows; nil disables caching.
	Cache *engine.AnalysisCache

	// Corners, when non-empty, turns on multi-corner sign-off: each
	// technique's finished design is cloned into a sign-off netlist, the
	// hold ECO re-targets the binding fast corner on that clone, and the
	// per-corner slack/leakage report is attached as
	// TechniqueResult.CornerReport. The flow's own optimization — and
	// therefore Table 1 — still runs entirely at the typical corner.
	Corners []tech.Corner
	// CornerSet caches the per-corner derated libraries. Shared across
	// flows (it locks internally); built on demand when nil.
	CornerSet *mcmm.Set
	// SignoffJobs bounds the corner-parallel sign-off fan-out: 1 forces a
	// sequential corner loop, <= 0 means GOMAXPROCS.
	SignoffJobs int

	// Partitions, when > 1, sets the shard count of every timing analysis
	// in the flow: the netlist is clustered into about this many shards
	// and per-shard propagation fans out on the engine pool. Timing
	// results are bit-identical to one shard at any worker count, and
	// so is greedy assignment. The sensitivity strategy runs one commit
	// lane per shard, so its result follows the shard count: a
	// different (equally violation-free) commit schedule per count,
	// bit-exact across worker counts. 0 or 1 means one shard.
	Partitions int
	// ShardJobs bounds the sharded kernel's per-design fan-out width
	// (<= 0 means GOMAXPROCS). Independent of SignoffJobs: corners fan
	// out across designs, shards fan out inside one design.
	ShardJobs int
	// AssignJobs bounds the sensitivity strategy's lane fan-out width
	// (<= 0 means GOMAXPROCS, capped at the shard count, so only a
	// partitioned timer fans out). It never changes results, only
	// scheduling.
	AssignJobs int
}

// DefaultConfig builds a configuration for the process/library pair. The
// corner set is wired here (characterization inside it is lazy and
// shared), so the three techniques of a comparison never re-derate the
// library independently; Environment.NewConfig overrides it with the
// environment-wide set.
func DefaultConfig(proc *tech.Process, lib *liberty.Library) *Config {
	po := place.DefaultOptions(proc.RowHeightUm, proc.SitePitchUm)
	return &Config{
		Proc:           proc,
		Lib:            lib,
		CornerSet:      mcmm.NewSet(proc, lib),
		ClockPort:      "clk",
		ClockSlack:     1.1,
		Rules:          vgnd.DefaultRules(proc, lib),
		PlaceOpts:      po,
		CTSOpts:        cts.DefaultOptions(proc),
		ECOOpts:        eco.DefaultOptions(po),
		MTEMaxFanout:   16,
		ActivityCycles: 96,
		Seed:           1,
	}
}

func (c *Config) staConfig(ex parasitics.Extractor, clk func(*netlist.Instance) float64) sta.Config {
	sc := sta.Config{
		ClockPeriodNs: c.ClockPeriodNs,
		ClockPort:     c.ClockPort,
		InputSlewNs:   0.03,
		// External inputs arrive from registered upstream logic: a small
		// guaranteed delay, so input-fed flops are not flagged for hold.
		InputDelayNs: 0.1,
		Extractor:    ex,
		ClockArrival: clk,
	}
	if c.Partitions > 1 {
		sc.Partitions = c.Partitions
		sc.ShardJobs = c.ShardJobs
		sc.ShardRun = shardRun
	}
	return sc
}

// shardRun executes a sharded-kernel fan-out on the engine's job pool —
// the dependency injection that lets sta (which engine imports) run its
// shard drains on the same scheduler as the rest of the flow. Drains
// cannot fail; an error here is a scheduler bug and propagates as a
// panic rather than silently truncating a timing pass.
func shardRun(tasks, workers int, run func(int)) {
	if _, err := engine.Map(context.Background(), tasks, workers, func(_ context.Context, i int) (struct{}, error) {
		run(i)
		return struct{}{}, nil
	}); err != nil {
		panic(fmt.Sprintf("core: shard fan-out: %v", err))
	}
}

// estimateActivity runs the config's activity estimation. It bypasses
// the shared cache: a fresh estimate costs less than a cache hit.
func (c *Config) estimateActivity(d *netlist.Design) (*sim.Activity, error) {
	return sim.EstimateActivity(d, c.ActivityCycles, c.Seed)
}

// analyzePre runs pre-route STA (estimate extractor, no clock-arrival
// override), through the shared cache when one is attached.
func (c *Config) analyzePre(d *netlist.Design, cfg sta.Config) (engine.TimingSummary, error) {
	if c.Cache != nil {
		return c.Cache.AnalyzePre(d, cfg)
	}
	t, err := sta.Analyze(d, cfg)
	if err != nil {
		return engine.TimingSummary{}, err
	}
	return engine.TimingSummary{WNSNs: t.WNS, TNSNs: t.TNS, WorstHoldNs: t.WorstHold}, nil
}

// minPeriod runs the pre-route minimum-period probe, through the shared
// cache when one is attached.
func (c *Config) minPeriod(d *netlist.Design, cfg sta.Config) (float64, error) {
	if c.Cache != nil {
		return c.Cache.MinPeriod(d, cfg)
	}
	return sta.MinPeriod(d, cfg)
}

// assignment resolves Strategy and the options every Vth stage runs
// with: the defaults, plus a slack reserve for what the pre-route
// estimate cannot see (post-route wire RC, clock skew) — the assignment
// must not consume every picosecond of the budget — and the lane
// fan-out on the engine pool.
func (c *Config) assignment() (assign.Strategy, assign.Options, error) {
	s, err := assign.Parse(c.Strategy)
	if err != nil {
		return nil, assign.Options{}, err
	}
	o := assign.DefaultOptions()
	o.SlackMarginNs = 0.04 * c.ClockPeriodNs
	o.Workers = max(c.AssignJobs, 0)
	o.Run = shardRun
	return s, o, nil
}

// StageReport records one flow stage's vitals (the pass manager's
// report type: see internal/flow).
type StageReport = flow.StageReport

// AssignPhaseReport records one Vth-assignment stage's strategy
// internals: the effective lane fan-out, the loop counters and the
// per-phase wall-clock split (score/commit/retime/unwind).
type AssignPhaseReport struct {
	Stage   string
	Workers int
	Passes  int
	Commits int
	Reverts int
	Phases  assign.PhaseTimes
}

// assignReport converts one assignment outcome into the
// stage-attributed phase report TechniqueResult carries.
func assignReport(stage string, r *assign.Result) AssignPhaseReport {
	return AssignPhaseReport{
		Stage:   stage,
		Workers: r.Workers,
		Passes:  r.Passes,
		Commits: r.Commits,
		Reverts: r.Reverts,
		Phases:  r.Phases,
	}
}

// Counts tallies the instance population of a finished design.
type Counts struct {
	MT, HVT, LVT      int
	Flops             int
	Switches, Holders int
	MTEBuffers        int
	ClockBuffers      int
	HoldBuffers       int
}

// TechniqueResult is the outcome of one technique's flow on one circuit.
type TechniqueResult struct {
	Technique     string
	Design        *netlist.Design
	ClockPeriodNs float64

	AreaUm2       float64
	StandbyLeakMW float64
	Breakdown     map[power.Category]float64
	DynamicMW     float64
	WNSNs         float64
	WorstHoldNs   float64

	Counts   Counts
	Clusters []*vgnd.Cluster
	CTS      *cts.Result
	Stages   []StageReport
	// AssignReports records each Vth-assignment stage's strategy
	// internals: effective lane fan-out and per-phase wall-clock.
	AssignReports []AssignPhaseReport

	// InitialSingleSwitchBounceV is the bounce the naive "one switch for
	// everything" structure would suffer (improved flow only) — the
	// motivation for the clustering step.
	InitialSingleSwitchBounceV float64
	// HoldersInserted counts the level holders added by the improved
	// flow's VGND-conversion stage.
	HoldersInserted int
	// ReoptResized counts switches resized by the post-route pass.
	ReoptResized int
	// WakeupNs is the worst cluster wake-up estimate.
	WakeupNs float64

	// CornerReport is the multi-corner sign-off outcome (Config.Corners);
	// nil for single-corner runs. It is measured on a clone of Design
	// with hold re-fixed at the binding fast corner, so the typical-corner
	// Table-1 numbers above are untouched by it.
	CornerReport *mcmm.Report

	// gating predicates used for standby measurement (set per technique).
	gatedFn  func(*netlist.Instance) bool
	holderFn func(*netlist.Net) bool
	// ecoTiming is the post-route analysis the hold ECO finished with;
	// measure reuses it (instead of re-analyzing) while the design
	// revision proves the netlist untouched since.
	ecoTiming *sta.Result
}

// PrepareBase maps a generic module with low-Vth cells and places it —
// the "physical synthesis using low-Vth cells / initial netlist &
// placement" stage shared by all three techniques. It also fixes the
// clock period on cfg when not set explicitly.
func PrepareBase(mod *gen.Module, cfg *Config) (*netlist.Design, error) {
	d, err := synth.Map(mod, cfg.Lib, synth.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if _, err := place.Place(d, cfg.PlaceOpts); err != nil {
		return nil, err
	}
	if cfg.ClockPeriodNs <= 0 {
		slack := cfg.ClockSlack
		if slack <= 0 {
			slack = 1.1
		}
		probe := cfg.staConfig(&parasitics.EstimateExtractor{Proc: cfg.Proc}, nil)
		probe.ClockPeriodNs = 1000
		pmin, err := cfg.minPeriod(d, probe)
		if err != nil {
			return nil, err
		}
		cfg.ClockPeriodNs = pmin * slack
	}
	return d, nil
}

// RunDualVth executes the baseline technique on a clone of base — a
// thin wrapper over the registered "Dual-Vth" pipeline.
func RunDualVth(base *netlist.Design, cfg *Config) (*TechniqueResult, error) {
	return RunRegistered(context.Background(), "Dual-Vth", base, cfg, nil)
}

// RunConventionalSMT executes the conventional Selective-MT technique
// (MT-cells with embedded switches and holders on critical paths, HVT
// elsewhere, MTE wired to every MT-cell) — a thin wrapper over the
// registered "Conventional-SMT" pipeline.
func RunConventionalSMT(base *netlist.Design, cfg *Config) (*TechniqueResult, error) {
	return RunRegistered(context.Background(), "Conventional-SMT", base, cfg, nil)
}

// RunImprovedSMT executes the paper's improved technique end to end
// (Fig. 4): MT assignment with VGND-less cells, conversion to VGND
// cells, holder insertion, switch-structure construction, MTE
// buffering, CTS, post-route re-optimization and hold ECO — a thin
// wrapper over the registered "Improved-SMT" pipeline.
func RunImprovedSMT(base *netlist.Design, cfg *Config) (*TechniqueResult, error) {
	return RunRegistered(context.Background(), "Improved-SMT", base, cfg, nil)
}

// measure computes the final area/leakage/timing numbers. When the hold
// ECO's final analysis is still current — same design object, unchanged
// change-journal revision, and an analysis config matching the post-route
// one this function builds — it is reused instead of re-running a full
// post-route STA. (The config check covers the scalar fields and the
// extractor's type and process; the clock-arrival closure cannot be
// compared, which the hold-ECO stage — the sole ecoTiming writer —
// guarantees by construction.)
func measure(d *netlist.Design, cfg *Config, res *TechniqueResult) error {
	ctsArr := func(*netlist.Instance) float64 { return 0 }
	if res.CTS != nil {
		ctsArr = res.CTS.Arrival
	}
	post := cfg.staConfig(&parasitics.SteinerExtractor{Proc: cfg.Proc,
		TrunkNets: func(n *netlist.Net) bool { return n.IsVGND }}, ctsArr)
	timing := res.ecoTiming
	if timing == nil || timing.Design() != d || timing.Revision != d.Revision() ||
		!configCompatible(timing.Config, post) {
		var err error
		timing, err = sta.Analyze(d, post)
		if err != nil {
			return err
		}
	}
	res.WNSNs = timing.WNS
	res.WorstHoldNs = timing.WorstHold
	res.AreaUm2 = d.TotalArea()

	rep, err := power.Standby(d, power.StandbyOptions{
		Inputs:   cfg.StandbyInputs,
		Gated:    res.gatedFn,
		HolderOn: res.holderFn,
	})
	if err != nil {
		return err
	}
	res.StandbyLeakMW = rep.StandbyLeakMW
	res.Breakdown = rep.Breakdown

	act, err := cfg.estimateActivity(d)
	if err != nil {
		return err
	}
	dyn, err := power.Dynamic(d, act, cfg.Proc, cfg.ClockPeriodNs, post.Extractor)
	if err != nil {
		return err
	}
	res.DynamicMW = dyn
	res.Counts = countPopulation(d, res.Counts)
	return nil
}

// configCompatible reports whether a prior analysis ran under a config
// whose observable scalar fields and extractor (type + process) match the
// one measure would use. prior comes back from sta.Analyze normalized, so
// slew fields are compared only when the fresh config pins them.
func configCompatible(prior, fresh sta.Config) bool {
	se, ok := prior.Extractor.(*parasitics.SteinerExtractor)
	if !ok {
		return false
	}
	fe := fresh.Extractor.(*parasitics.SteinerExtractor)
	return se.Proc == fe.Proc &&
		prior.ClockPeriodNs == fresh.ClockPeriodNs &&
		prior.ClockPort == fresh.ClockPort &&
		prior.InputDelayNs == fresh.InputDelayNs &&
		prior.OutputDelayNs == fresh.OutputDelayNs &&
		(fresh.InputSlewNs <= 0 || prior.InputSlewNs == fresh.InputSlewNs) &&
		(fresh.ClockSlewNs <= 0 || prior.ClockSlewNs == fresh.ClockSlewNs)
}

func countPopulation(d *netlist.Design, prev Counts) Counts {
	c := Counts{HoldBuffers: prev.HoldBuffers}
	for _, inst := range d.Instances() {
		switch inst.Cell.Kind {
		case liberty.KindFF:
			c.Flops++
		case liberty.KindSwitch:
			c.Switches++
		case liberty.KindHolder:
			c.Holders++
		case liberty.KindClockBuf:
			c.ClockBuffers++
		default:
			switch inst.Cell.Flavor {
			case liberty.FlavorLVT:
				c.LVT++
			case liberty.FlavorHVT:
				if inst.OutputNet() != nil && inst.OutputNet().IsMTE {
					c.MTEBuffers++
				} else {
					c.HVT++
				}
			default:
				c.MT++
			}
		}
	}
	return c
}

// Validate runs the structural check appropriate to the technique's stage.
func (r *TechniqueResult) Validate() error {
	if r.Design == nil {
		return fmt.Errorf("core: no design")
	}
	return r.Design.Validate(netlist.StrictValidate())
}
