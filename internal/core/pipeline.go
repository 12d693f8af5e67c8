package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"selectivemt/internal/cts"
	"selectivemt/internal/dualvth"
	"selectivemt/internal/eco"
	"selectivemt/internal/flow"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/power"
	"selectivemt/internal/sim"
	"selectivemt/internal/sta"
	"selectivemt/internal/vgnd"
)

// This file is the pass-manager face of the core flow: the paper's
// three techniques are stage lists over a shared FlowState, registered
// by name in a process-wide flow.Registry and run through RunRegistered,
// and new power-gating variants are new stage lists — data — rather
// than another hardcoded runner.

// Stage is a core-flow pipeline stage (flow.Stage over *FlowState).
type Stage = flow.Stage[*FlowState]

// Pipeline is a named core-flow stage list.
type Pipeline = flow.Pipeline[*FlowState]

// NewStage wraps a function as a named custom stage.
func NewStage(name string, run func(ctx context.Context, s *FlowState) (*flow.StageReport, error)) Stage {
	return flow.NewStage(name, run)
}

// NewPipeline composes stages into a named pipeline (not yet
// registered; see RegisterPipeline).
func NewPipeline(name string, stages ...Stage) *Pipeline {
	return flow.New(name, stages...)
}

// FlowState is the shared state a technique pipeline's stages operate
// on: the working design (a clone of the prepared base), the flow
// configuration, and the accumulating technique result. Stages
// communicate through it instead of through function-local variables,
// which is what lets a custom pipeline reuse the built-in stages.
type FlowState struct {
	Design *netlist.Design
	Config *Config
	Result *TechniqueResult

	// cur carries the MT-cell current maps from the switch-structure
	// stage to the post-route re-optimization stage.
	cur currents

	// pre and post are the flow's timers, carried from stage to stage
	// and updated through the design's change journal instead of
	// re-analyzing it: pre-route timing (the assigner's own timer, read
	// by every stage's vitals) and post-route timing (built by the hold
	// ECO, read by measure). Each is built on first use; RunPipeline
	// drops both when the pipeline ends.
	pre, post carriedTimer

	// sim is the flow's logic simulator, carried beside the timers and
	// followed through the same journal: every stage's standby leakage,
	// measure's leakage and activity and switch-structure's activity
	// read it. Built on first use and dropped with the timers.
	sim *sim.Simulator
}

// simulator brings the carried simulator up to date with the design,
// compiling one on first use or for another design.
func (s *FlowState) simulator() (*sim.Simulator, error) {
	if s.sim != nil && s.sim.Design() == s.Design {
		if err := s.sim.Update(); err != nil {
			return nil, err
		}
		return s.sim, nil
	}
	sm, err := sim.New(s.Design)
	if err != nil {
		return nil, err
	}
	s.sim = sm
	return sm, nil
}

// standby prices the design's standby leakage on the carried simulator
// under the technique's gating.
func (s *FlowState) standby() (*power.Report, error) {
	sm, err := s.simulator()
	if err != nil {
		return nil, err
	}
	return power.StandbyWith(sm, power.StandbyOptions{
		Inputs: s.Config.StandbyInputs, Gated: s.Result.gatedFn, HolderOn: s.Result.holderFn,
	})
}

// activity is the config's activity estimate on the carried simulator,
// kept there while the logic is unchanged.
func (s *FlowState) activity() (*sim.Activity, error) {
	sm, err := s.simulator()
	if err != nil {
		return nil, err
	}
	return sm.Activity(s.Config.ActivityCycles, s.Config.Seed)
}

// timerTrees serves a timer's extracted RC trees as a
// parasitics.Extractor, so power reads the loads the timer already holds
// instead of extracting every net again. A net the timer does not cover
// is extracted with the timer's own extractor.
type timerTrees struct{ r *sta.Result }

// Extract implements parasitics.Extractor.
func (t timerTrees) Extract(n *netlist.Net) *parasitics.RCTree {
	if rc := t.r.RC(n); rc != nil {
		return rc
	}
	return t.r.Config.Extractor.Extract(n)
}

// carriedTimer is an incremental timer the flow keeps across stages,
// with what it was built from.
type carriedTimer struct {
	inc *sta.Incremental
	cfg sta.Config
	cts *cts.Result // post-route: the CTS result whose arrivals cfg reads
}

// timing brings the timer up to date with d and returns its live result.
// A timer built for another design, CTS result or config is replaced by
// a fresh one: a custom stage may change the config between stages.
func (t *carriedTimer) timing(d *netlist.Design, cfg sta.Config, ctsRes *cts.Result) (*sta.Result, error) {
	if t.inc != nil && t.inc.Design() == d && t.cts == ctsRes && sameTimerConfig(t.cfg, cfg) {
		return t.inc.Update()
	}
	inc, err := sta.NewIncremental(d, cfg)
	if err != nil {
		return nil, err
	}
	*t = carriedTimer{inc: inc, cfg: cfg, cts: ctsRes}
	return inc.Result(), nil
}

// sameTimerConfig reports whether two timing configs built by this
// package describe the same analysis: equal scalar fields and an
// extractor of the same type and process. Extractors and clock-arrival
// closures are built fresh per call, so they cannot be compared by
// identity; a post-route timer pins its arrivals by its CTS result.
func sameTimerConfig(a, b sta.Config) bool {
	sameEx := false
	switch ea := a.Extractor.(type) {
	case *parasitics.EstimateExtractor:
		eb, ok := b.Extractor.(*parasitics.EstimateExtractor)
		sameEx = ok && ea.Proc == eb.Proc
	case *parasitics.SteinerExtractor:
		eb, ok := b.Extractor.(*parasitics.SteinerExtractor)
		sameEx = ok && ea.Proc == eb.Proc
	}
	return sameEx && a.ClockPeriodNs == b.ClockPeriodNs && a.ClockPort == b.ClockPort &&
		a.InputDelayNs == b.InputDelayNs && a.OutputDelayNs == b.OutputDelayNs &&
		a.InputSlewNs == b.InputSlewNs && a.ClockSlewNs == b.ClockSlewNs &&
		a.Partitions == b.Partitions && a.ShardJobs == b.ShardJobs
}

// FlowVitals implements flow.Measurable: the pipeline diffs it across
// stages to record per-stage area and population deltas.
func (s *FlowState) FlowVitals() flow.Vitals {
	return flow.Vitals{AreaUm2: s.Design.TotalArea(), Instances: s.Design.NumInstances()}
}

// SetGating installs the technique's standby predicates: which
// instances are power-gated and which nets a holder keeps at 1. The
// per-stage leakage vitals and the final measurement both use them.
func (s *FlowState) SetGating(gated func(*netlist.Instance) bool, holderOn func(*netlist.Net) bool) {
	s.Result.gatedFn = gated
	s.Result.holderFn = holderOn
}

// StageVitals builds a stage report with the design's current vitals:
// area, best-effort WNS from the carried pre-route timer (the estimate
// extractor, an ideal clock), and standby leakage under the technique's
// gating once known.
func (s *FlowState) StageVitals(name string) *flow.StageReport {
	sr := &flow.StageReport{Name: name, AreaUm2: s.Design.TotalArea()}
	if t, err := s.pre.timing(s.Design, s.Config.PreRouteConfig(), nil); err == nil {
		sr.WNSNs = t.WNS
	}
	if rep, err := s.standby(); err == nil {
		sr.LeakMW = rep.StandbyLeakMW
	}
	return sr
}

// Built-in stage names, usable with BuiltinStage to compose custom
// pipelines from the paper's passes.
const (
	StageNameDualVthAssign   = "dual-vth assignment"
	StageNameAssignEmbedded  = "HVT+MT(embedded) assignment"
	StageNameAssignNoVGND    = "HVT+MT(no VGND) assignment"
	StageNameVGNDConvert     = "VGND conversion + holders"
	StageNameSwitchStructure = "switch-structure construction"
	StageNameMTE             = "MTE network"
	StageNameCTS             = "CTS"
	StageNameHoldECO         = "hold ECO"
	StageNameMeasure         = "measure"
	StageNameReoptimize      = "post-route switch re-optimization"
	StageNameSignoff         = "sign-off"
)

// stageDualVthAssign is the baseline technique's only transform: swap
// non-critical cells to high-Vth under the pre-route timing budget.
func stageDualVthAssign() Stage {
	return NewStage(StageNameDualVthAssign, func(_ context.Context, s *FlowState) (*flow.StageReport, error) {
		strat, opts, err := s.Config.assignment()
		if err != nil {
			return nil, err
		}
		pre := s.Config.PreRouteConfig()
		r, err := dualvth.Assign(s.Design, pre, strat, opts)
		if err != nil {
			return nil, err
		}
		s.pre = carriedTimer{inc: r.Timer, cfg: pre}
		s.Result.AssignReports = append(s.Result.AssignReports,
			assignReport(StageNameDualVthAssign, r))
		return s.StageVitals(StageNameDualVthAssign), nil
	})
}

// stageAssignMixed replaces low-Vth cells by HVT plus the given MT
// flavor on critical paths and installs the MT gating predicates.
func stageAssignMixed(name string, flavor liberty.Flavor) Stage {
	return NewStage(name, func(_ context.Context, s *FlowState) (*flow.StageReport, error) {
		strat, opts, err := s.Config.assignment()
		if err != nil {
			return nil, err
		}
		pre := s.Config.PreRouteConfig()
		r, err := dualvth.AssignMixed(s.Design, pre, strat, opts, flavor)
		if err != nil {
			return nil, err
		}
		s.pre = carriedTimer{inc: r.Timer, cfg: pre}
		s.Result.AssignReports = append(s.Result.AssignReports, assignReport(name, r))
		s.SetGating(IsGatedMT, HolderOn)
		return s.StageVitals(name), nil
	})
}

// stageVGNDConvert converts MT cells to their VGND-port twins and
// inserts output holders where the paper's rule demands one.
func stageVGNDConvert() Stage {
	return NewStage(StageNameVGNDConvert, func(_ context.Context, s *FlowState) (*flow.StageReport, error) {
		if _, err := ConvertToVGND(s.Design); err != nil {
			return nil, err
		}
		holders, err := InsertHolders(s.Design, s.Config.PlaceOpts)
		if err != nil {
			return nil, err
		}
		s.Result.HoldersInserted = len(holders)
		rep := s.StageVitals(StageNameVGNDConvert)
		rep.Inserted = len(holders)
		return rep, nil
	})
}

// stageSwitchStructure runs the improved flow's CoolPower analog:
// estimate per-cell currents, record the naive single-switch bounce as
// motivation, cluster the MT population and insert one sized switch
// per cluster.
func stageSwitchStructure() Stage {
	return NewStage(StageNameSwitchStructure, func(ctx context.Context, s *FlowState) (*flow.StageReport, error) {
		d, cfg := s.Design, s.Config
		var mtCells []*netlist.Instance
		for _, inst := range d.Instances() {
			if inst.Cell.Flavor == liberty.FlavorMTVGND {
				mtCells = append(mtCells, inst)
			}
		}
		act, err := s.activity()
		if err != nil {
			return nil, err
		}
		pre, err := s.pre.timing(d, cfg.PreRouteConfig(), nil)
		if err != nil {
			return nil, err
		}
		cc, err := power.Currents(d, act, cfg.Proc, cfg.ClockPeriodNs, timerTrees{pre})
		if err != nil {
			return nil, err
		}
		s.cur = currents{avg: cc.AvgMA, peak: cc.PeakMA}

		// The naive initial structure: one switch for every MT-cell.
		// Record its bounce with the largest available switch as
		// motivation for the clustering step.
		if len(mtCells) > 0 {
			mega := &vgnd.Cluster{Cells: mtCells}
			sws := cfg.Lib.SwitchCells()
			if br, err := vgnd.SolveBounce(mega, mega.Center(), sws[len(sws)-1], s.cur, cfg.Proc, cfg.Rules); err == nil {
				s.Result.InitialSingleSwitchBounceV = br.WorstBounceV
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
		clusters, err := BuildClusters(d, mtCells, s.cur, cfg.Proc, cfg.Rules)
		if err != nil {
			return nil, err
		}
		if err := InsertSwitches(d, clusters, cfg.PlaceOpts); err != nil {
			return nil, err
		}
		s.Result.Clusters = clusters
		return s.StageVitals(StageNameSwitchStructure), nil
	})
}

// stageMTE buffers the sleep-enable network down to the fanout cap.
func stageMTE() Stage {
	return NewStage(StageNameMTE, func(_ context.Context, s *FlowState) (*flow.StageReport, error) {
		nbuf, err := BuildMTE(s.Design, s.Config.MTEMaxFanout, s.Config.PlaceOpts)
		if err != nil {
			return nil, err
		}
		rep := s.StageVitals(StageNameMTE)
		rep.Inserted = nbuf
		return rep, nil
	})
}

// stageCTS synthesizes the clock tree.
func stageCTS() Stage {
	return NewStage(StageNameCTS, func(_ context.Context, s *FlowState) (*flow.StageReport, error) {
		ctsRes, err := cts.Synthesize(s.Design, s.Config.ClockPort, s.Config.CTSOpts)
		if err != nil {
			return nil, err
		}
		s.Result.CTS = ctsRes
		return s.StageVitals(StageNameCTS), nil
	})
}

// stageHoldECO fixes post-route hold violations on the post-route timer,
// which it keeps for measure.
func stageHoldECO() Stage {
	return NewStage(StageNameHoldECO, func(_ context.Context, s *FlowState) (*flow.StageReport, error) {
		if _, err := s.post.timing(s.Design, s.Config.postRoute(s.Result.CTS), s.Result.CTS); err != nil {
			return nil, err
		}
		ecoRes, err := eco.FixHoldWith(s.post.inc, s.Config.ECOOpts)
		if err != nil {
			return nil, err
		}
		s.Result.Counts.HoldBuffers = ecoRes.BuffersInserted
		rep := s.StageVitals(StageNameHoldECO)
		rep.Inserted = ecoRes.BuffersInserted
		return rep, nil
	})
}

// stageMeasure computes the final area/leakage/timing numbers. It is a
// bookkeeping stage: timed and observed, but it adds no entry to the
// technique's stage list.
func stageMeasure() Stage {
	return NewStage(StageNameMeasure, func(_ context.Context, s *FlowState) (*flow.StageReport, error) {
		return nil, s.measure()
	})
}

// stageReoptimize re-sizes the switch structure from post-route
// information, re-measures, and records the worst cluster wake-up.
func stageReoptimize() Stage {
	return NewStage(StageNameReoptimize, func(_ context.Context, s *FlowState) (*flow.StageReport, error) {
		resized, err := PostRouteReoptimize(s.Design, s.Result.Clusters, s.cur, s.Config)
		if err != nil {
			return nil, err
		}
		s.Result.ReoptResized = resized
		rep := s.StageVitals(StageNameReoptimize)
		if err := s.measure(); err != nil {
			return nil, err
		}
		for _, cl := range s.Result.Clusters {
			if w := vgnd.Wakeup(cl, s.Config.Proc); w.TimeNs > s.Result.WakeupNs {
				s.Result.WakeupNs = w.TimeNs
			}
		}
		return rep, nil
	})
}

// stageSignoff attaches the multi-corner sign-off report when the
// config asks for one. Also a bookkeeping stage.
func stageSignoff() Stage {
	return NewStage(StageNameSignoff, func(ctx context.Context, s *FlowState) (*flow.StageReport, error) {
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
		return nil, signoffCorners(s.Result, s.Config)
	})
}

// builtinStages catalogs every built-in stage by (lower-cased) name so
// custom pipelines can be composed from the paper's passes.
var builtinStages = map[string]func() Stage{}

func catalog(name string, ctor func() Stage) func() Stage {
	builtinStages[strings.ToLower(name)] = ctor
	return ctor
}

// BuiltinStage returns a fresh instance of a built-in stage by name
// (case-insensitive), for composing custom pipelines.
func BuiltinStage(name string) (Stage, bool) {
	ctor, ok := builtinStages[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return nil, false
	}
	return ctor(), true
}

// BuiltinStageNames lists the built-in stage names, sorted.
func BuiltinStageNames() []string {
	out := make([]string, 0, len(builtinStages))
	for _, ctor := range builtinStages { // rangemap:ok sorted before returning
		out = append(out, ctor().Name())
	}
	sort.Strings(out)
	return out
}

// pipelines is the process-wide technique registry; the paper's three
// techniques are registered at init, custom variants by the embedding
// program (see RegisterPipeline).
var pipelines = flow.NewRegistry[*FlowState]()

func init() {
	dualVth := catalog(StageNameDualVthAssign, stageDualVthAssign)
	assignEmbedded := catalog(StageNameAssignEmbedded, func() Stage {
		return stageAssignMixed(StageNameAssignEmbedded, liberty.FlavorMTConv)
	})
	assignNoVGND := catalog(StageNameAssignNoVGND, func() Stage {
		return stageAssignMixed(StageNameAssignNoVGND, liberty.FlavorMTNoVGND)
	})
	vgndConvert := catalog(StageNameVGNDConvert, stageVGNDConvert)
	switches := catalog(StageNameSwitchStructure, stageSwitchStructure)
	mte := catalog(StageNameMTE, stageMTE)
	clock := catalog(StageNameCTS, stageCTS)
	holdECO := catalog(StageNameHoldECO, stageHoldECO)
	meas := catalog(StageNameMeasure, stageMeasure)
	reopt := catalog(StageNameReoptimize, stageReoptimize)
	signoff := catalog(StageNameSignoff, stageSignoff)

	for _, p := range []*Pipeline{
		NewPipeline("Dual-Vth",
			dualVth(), clock(), holdECO(), meas(), signoff()),
		NewPipeline("Conventional-SMT",
			assignEmbedded(), mte(), clock(), holdECO(), meas(), signoff()),
		NewPipeline("Improved-SMT",
			assignNoVGND(), vgndConvert(), switches(), mte(), clock(),
			holdECO(), meas(), reopt(), signoff()),
	} {
		if err := pipelines.Register(p); err != nil {
			panic(err)
		}
	}
}

// RegisterPipeline adds a technique pipeline to the process-wide
// registry; it then runs anywhere a technique name is accepted (the
// facade's RunPipeline, the smtflow CLI, smtd job specs).
func RegisterPipeline(p *Pipeline) error { return pipelines.Register(p) }

// LookupPipeline finds a registered pipeline by name, case-insensitively.
func LookupPipeline(name string) (*Pipeline, bool) { return pipelines.Get(name) }

// PipelineNames lists the registered pipelines' display names, sorted.
func PipelineNames() []string { return pipelines.Names() }

// RunPipeline executes a pipeline on a clone of base: the pipeline's
// name becomes the technique name, ctx cancellation lands between (and
// inside ctx-aware) stages, and obs — when non-nil — receives live
// per-stage progress events. The stages see a private shallow copy of
// cfg, so a custom stage may tune the scalar knobs (Rules, options)
// without corrupting the config other techniques of the same
// comparison share; the pointer fields (Lib, Cache, CornerSet) stay
// shared, which is what makes the copy cheap and the caching global.
func RunPipeline(ctx context.Context, p *Pipeline, base *netlist.Design, cfg *Config, obs flow.Observer) (*TechniqueResult, error) {
	d := base.Clone()
	runCfg := *cfg
	res := &TechniqueResult{Technique: p.Name(), Design: d, ClockPeriodNs: runCfg.ClockPeriodNs}
	st := &FlowState{Design: d, Config: &runCfg, Result: res}
	reports, err := p.Run(ctx, st, flow.RunOptions{Observer: obs})
	res.Stages = reports
	// The flow is over either way: drop its timers and simulator, so no
	// stage that kept the state can hold a whole-design timing graph or
	// compiled netlist past the run.
	st.pre, st.post, st.sim = carriedTimer{}, carriedTimer{}, nil
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunRegistered runs a registered pipeline by name.
func RunRegistered(ctx context.Context, name string, base *netlist.Design, cfg *Config, obs flow.Observer) (*TechniqueResult, error) {
	p, ok := pipelines.Get(name)
	if !ok {
		return nil, fmt.Errorf("core: no pipeline %q (registered: %s)",
			name, strings.Join(pipelines.Names(), ", "))
	}
	return RunPipeline(ctx, p, base, cfg, obs)
}
