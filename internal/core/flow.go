package core

import (
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
	// stages run it with assign.DefaultOptions and a slack reserve of 4%
	// of the clock period (see Config.assignment).
	Strategy string

	MTEMaxFanout   int
	ActivityCycles int
	Seed           int64
	// StandbyInputs is the primary-input vector held in standby.
	StandbyInputs map[string]logic.Value

	// Cache, when set, memoizes deterministic per-design analyses (the
	// min-period probe, the corner sign-off) across techniques, circuits
	// and repeated runs. Safe to share between concurrent flows; nil
	// disables caching.
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

	// Partitions, when > 1, sets the shard count of every timing analysis
	// in the flow: the netlist is clustered into about this many shards
	// and per-shard propagation fans out on engine.Map. Timing
	// results are bit-identical to one shard at any worker count, and
	// so is greedy assignment. The sensitivity strategy runs one commit
	// lane per shard, so its result follows the shard count: a
	// different (equally violation-free) commit schedule per count,
	// bit-exact across worker counts. 0 or 1 means one shard.
	Partitions int
	// ShardJobs bounds the per-design fan-out width: the timer's shard
	// drains and the sensitivity strategy's commit lanes, which take
	// their width from the timer (<= 0 means GOMAXPROCS; capped at the
	// shard count, so only a partitioned design fans out). It never
	// changes results, only scheduling. The corner sign-off fans out
	// across its corner views at GOMAXPROCS.
	ShardJobs int
	// Deprecated: AssignJobs is ignored. The assignment lanes fan out at
	// the timer's width, which ShardJobs sets. The field stays only
	// because cmd/smtbench still assigns it (always equal to ShardJobs).
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
	}
	return sc
}

// PreRouteConfig is the pre-route timing config: estimate extraction and
// an ideal clock. Every pre-route analysis of the flow runs under it, and
// so does ReportDesign's.
func (c *Config) PreRouteConfig() sta.Config {
	return c.staConfig(&parasitics.EstimateExtractor{Proc: c.Proc}, nil)
}

// postRoute is the post-route timing config: Steiner extraction with the
// VGND nets routed as trunks, and the clock arrivals of a CTS result
// (zero before CTS).
func (c *Config) postRoute(ctsRes *cts.Result) sta.Config {
	ctsArr := func(*netlist.Instance) float64 { return 0 }
	if ctsRes != nil {
		ctsArr = ctsRes.Arrival
	}
	return c.staConfig(&parasitics.SteinerExtractor{Proc: c.Proc,
		TrunkNets: func(n *netlist.Net) bool { return n.IsVGND }}, ctsArr)
}

// minPeriod runs the pre-route minimum-period probe, memoized in the
// shared cache when one is attached. The key holds the design's
// fingerprint and every scalar of cfg; the estimate extractor is keyed
// by its process, by pointer identity as the fingerprint keys the
// library, so the fresh extractor each call site allocates still shares
// entries. A config the key cannot describe is probed uncached: a
// clock-arrival function has no key, and an address-based key for
// another extractor type could go stale after garbage collection and
// alias a different extractor.
func (c *Config) minPeriod(d *netlist.Design, cfg sta.Config) (float64, error) {
	ee, ok := cfg.Extractor.(*parasitics.EstimateExtractor)
	if c.Cache == nil || !ok || cfg.ClockArrival != nil {
		return sta.MinPeriod(d, cfg)
	}
	key := fmt.Sprintf("minp|%s|%g|%s|%g|%g|%g|%g|%p",
		d.Fingerprint(), cfg.ClockPeriodNs, cfg.ClockPort, cfg.InputSlewNs,
		cfg.InputDelayNs, cfg.OutputDelayNs, cfg.ClockSlewNs, ee.Proc)
	v, err := c.Cache.Memo(key, func() (any, error) { return sta.MinPeriod(d, cfg) })
	if err != nil {
		return 0, err
	}
	return v.(float64), nil
}

// assignment resolves Strategy and the options every Vth stage runs
// with: the defaults, plus a slack reserve for what the pre-route
// estimate cannot see (post-route wire RC, clock skew): the assignment
// must not consume every picosecond of the budget. The lanes fan out at
// the width of the timer they run on.
func (c *Config) assignment() (assign.Strategy, assign.Options, error) {
	s, err := assign.Parse(c.Strategy)
	if err != nil {
		return nil, assign.Options{}, err
	}
	o := assign.DefaultOptions()
	o.SlackMarginNs = 0.04 * c.ClockPeriodNs
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
		probe := cfg.PreRouteConfig()
		probe.ClockPeriodNs = 1000
		pmin, err := cfg.minPeriod(d, probe)
		if err != nil {
			return nil, err
		}
		cfg.ClockPeriodNs = pmin * slack
	}
	return d, nil
}

// measure computes the final area/leakage/timing numbers: the timing
// and the dynamic power's net loads from the carried post-route timer
// (the hold ECO's, updated through any edit since), the leakage and
// activity from the carried simulator.
func (s *FlowState) measure() error {
	d, cfg, res := s.Design, s.Config, s.Result
	post := cfg.postRoute(res.CTS)
	timing, err := s.post.timing(d, post, res.CTS)
	if err != nil {
		return err
	}
	res.WNSNs = timing.WNS
	res.WorstHoldNs = timing.WorstHold
	res.AreaUm2 = d.TotalArea()

	rep, err := s.standby()
	if err != nil {
		return err
	}
	res.StandbyLeakMW = rep.StandbyLeakMW
	res.Breakdown = rep.Breakdown

	act, err := s.activity()
	if err != nil {
		return err
	}
	dyn, err := power.Dynamic(d, act, cfg.Proc, cfg.ClockPeriodNs, timerTrees{timing})
	if err != nil {
		return err
	}
	res.DynamicMW = dyn
	res.Counts = countPopulation(d, res.Counts)
	return nil
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
