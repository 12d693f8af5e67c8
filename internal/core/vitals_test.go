package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"selectivemt/internal/assign"
	"selectivemt/internal/engine"
	"selectivemt/internal/flow"
	"selectivemt/internal/gen"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/power"
	"selectivemt/internal/sim"
	"selectivemt/internal/sta"
)

// runAssignStage runs one built-in assign stage alone on a clone of base
// and returns the result, whose Design is the design the stage left.
func runAssignStage(t *testing.T, stage string, base *netlist.Design, cfg *Config) *TechniqueResult {
	t.Helper()
	st, ok := BuiltinStage(stage)
	if !ok {
		t.Fatalf("no built-in stage %q", stage)
	}
	res, err := RunPipeline(context.Background(), NewPipeline("assign only", st), base, cfg, nil)
	if err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	if len(res.Stages) != 1 {
		t.Fatalf("%s: %d stage reports, want 1", stage, len(res.Stages))
	}
	return res
}

// freshPreWNS analyzes a finished design from scratch under the pre-route
// config the stage vitals use.
func freshPreWNS(t *testing.T, res *TechniqueResult, cfg *Config) float64 {
	t.Helper()
	fresh, err := sta.Analyze(res.Design, cfg.staConfig(&parasitics.EstimateExtractor{Proc: cfg.Proc}, nil))
	if err != nil {
		t.Fatal(err)
	}
	return fresh.WNS
}

// TestAssignStageVitalsMatchFreshAnalysis: the assign stages report the
// WNS of the assigner's own final timing instead of re-analyzing the
// design. That WNS must equal, bit for bit, a fresh pre-route analysis of
// the design the stage leaves — for each technique's assign stage, both
// built-in strategies, one shard and four, on SmallTest, Circuit A and
// Circuit B — and the stage must not consult the analysis cache.
func TestAssignStageVitalsMatchFreshAnalysis(t *testing.T) {
	l := lib(t)
	for _, c := range []struct {
		name string
		spec gen.CircuitSpec
	}{{"small", gen.SmallTest()}, {"a", gen.CircuitA()}, {"b", gen.CircuitB()}} {
		cfg := DefaultConfig(sharedProc, l)
		cfg.ClockSlack = c.spec.ClockSlack
		base, err := PrepareBase(c.spec.Module, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, stage := range []string{StageNameDualVthAssign, StageNameAssignEmbedded, StageNameAssignNoVGND} {
			for _, strategy := range []string{"greedy", "sensitivity"} {
				for _, parts := range []int{0, 4} {
					name := fmt.Sprintf("%s/%s/%s/partitions=%d", c.name, stage, strategy, parts)
					run := *cfg
					run.Strategy, run.Partitions = strategy, parts
					run.Cache = engine.NewAnalysisCache()
					res := runAssignStage(t, stage, base, &run)
					want := freshPreWNS(t, res, &run)
					if got := res.Stages[0].WNSNs; math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s: stage WNS %v, fresh pre-route analysis %v", name, got, want)
					}
					if hits, misses := run.Cache.Stats(); hits+misses != 0 {
						t.Errorf("%s: the stage consulted the analysis cache (%d hits, %d misses)", name, hits, misses)
					}
				}
			}
		}
	}
}

// editAfterUpdate is a test strategy that runs greedy and then breaks the
// reuse contract: it either swaps one more worst-path cell to high Vth
// after its last timing update, so the timing it returns is stale, or
// returns no timing at all. Its last returned WNS is kept for the test.
type editAfterUpdate struct {
	name       string
	dropTiming bool
	staleWNS   float64
}

func (s *editAfterUpdate) Name() string { return s.name }

func (s *editAfterUpdate) Run(inc *sta.Incremental, p assign.Problem, opts assign.Options) (*assign.Result, error) {
	greedy, _ := assign.Lookup("greedy")
	r, err := greedy.Run(inc, p, opts)
	if err != nil {
		return nil, err
	}
	if s.dropTiming {
		r.Timing = nil
		return r, nil
	}
	s.staleWNS = r.Timing.WNS
	lib := inc.Design().Lib
	for _, step := range r.Timing.WorstPaths(1)[0].Steps {
		if step.Inst == nil || step.Inst.Cell.Kind != liberty.KindComb {
			continue
		}
		if v := lib.Variant(step.Inst.Cell, liberty.FlavorHVT); v != nil && v != step.Inst.Cell {
			return r, p.Apply(assign.Move{Inst: step.Inst, To: v})
		}
	}
	return nil, errors.New("no worst-path cell left to slow down")
}

var (
	registerStale sync.Once
	staleMove     = &editAfterUpdate{name: "test-edit-after-update"}
	staleNil      = &editAfterUpdate{name: "test-nil-timing", dropTiming: true}
)

// TestAssignStageVitalsFallBack: when a registered strategy leaves timing
// that is stale (an edit after its last update) or missing, assign.Run
// re-times the design and every assign stage still reports the fresh
// WNS — AssignMixed's LVT fallback included, which reads that timing.
func TestAssignStageVitalsFallBack(t *testing.T) {
	registerStale.Do(func() {
		for _, s := range []assign.Strategy{staleMove, staleNil} {
			if err := assign.Register(s); err != nil {
				t.Fatal(err)
			}
		}
	})
	l := lib(t)
	cfg := DefaultConfig(sharedProc, l)
	cfg.ClockSlack = 1.12
	base, err := PrepareBase(gen.SmallTest().Module, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		strategy *editAfterUpdate
		stage    string
	}{
		{staleMove, StageNameDualVthAssign},
		{staleMove, StageNameAssignNoVGND},
		{staleNil, StageNameDualVthAssign},
		{staleNil, StageNameAssignEmbedded},
		{staleNil, StageNameAssignNoVGND},
	} {
		run := *cfg
		run.Strategy = tc.strategy.name
		res := runAssignStage(t, tc.stage, base, &run)
		want := freshPreWNS(t, res, &run)
		if got := res.Stages[0].WNSNs; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s on %s: stage WNS %v, fresh pre-route analysis %v", tc.strategy.name, tc.stage, got, want)
		}
		if !tc.strategy.dropTiming && tc.stage == StageNameDualVthAssign && tc.strategy.staleWNS == want {
			t.Errorf("%s on %s: the late swap left WNS at %v; the stale timing is indistinguishable",
				tc.strategy.name, tc.stage, want)
		}
	}
}

// TestCarriedTimersMatchFreshAnalysis: the stage vitals and the final
// measurement read the timers the flow carries from stage to stage
// instead of re-analyzing. For every technique on SmallTest, Circuit A
// and Circuit B, at one shard and four, every stage's WNS must equal a
// fresh pre-route analysis of the design that stage left, the final WNS
// and worst hold a fresh post-route analysis of the finished design, bit
// for bit; each carried timer must compile once; and a bare FlowState
// over the finished design must report the same pre-route WNS.
func TestCarriedTimersMatchFreshAnalysis(t *testing.T) {
	l := lib(t)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, c := range []struct {
		name string
		spec gen.CircuitSpec
	}{{"small", gen.SmallTest()}, {"a", gen.CircuitA()}, {"b", gen.CircuitB()}} {
		cfg := DefaultConfig(sharedProc, l)
		cfg.ClockSlack = c.spec.ClockSlack
		base, err := PrepareBase(c.spec.Module, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, technique := range []string{"Dual-Vth", "Conventional-SMT", "Improved-SMT"} {
			for _, parts := range []int{0, 4} {
				name := fmt.Sprintf("%s/%s/partitions=%d", c.name, technique, parts)
				run := *cfg
				run.Partitions = parts
				p, ok := LookupPipeline(technique)
				if !ok {
					t.Fatalf("no pipeline %q", technique)
				}
				// After every stage, analyze the design it left from
				// scratch; at the end, read the carried timers' counters.
				fresh := map[string]float64{}
				var builds [2]int
				var stages []Stage
				for _, st := range p.Stages() {
					stages = append(stages, st, NewStage("check", func(_ context.Context, s *FlowState) (*flow.StageReport, error) {
						r, err := sta.Analyze(s.Design, s.Config.PreRouteConfig())
						if err != nil {
							return nil, err
						}
						fresh[st.Name()] = r.WNS
						return nil, nil
					}))
				}
				stages = append(stages, NewStage("timers", func(_ context.Context, s *FlowState) (*flow.StageReport, error) {
					builds = [2]int{s.pre.inc.Stats().FullBuilds, s.post.inc.Stats().FullBuilds}
					return nil, nil
				}))
				res, err := RunPipeline(context.Background(), NewPipeline(technique, stages...), base, &run, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, sr := range res.Stages {
					if want, ok := fresh[sr.Name]; !ok || !same(sr.WNSNs, want) {
						t.Errorf("%s: stage %q WNS %v, fresh pre-route analysis %v", name, sr.Name, sr.WNSNs, want)
					}
				}
				post, err := sta.Analyze(res.Design, run.postRoute(res.CTS))
				if err != nil {
					t.Fatal(err)
				}
				if !same(res.WNSNs, post.WNS) || !same(res.WorstHoldNs, post.WorstHold) {
					t.Errorf("%s: final WNS %v worst hold %v, fresh post-route analysis %v and %v",
						name, res.WNSNs, res.WorstHoldNs, post.WNS, post.WorstHold)
				}
				if builds != [2]int{1, 1} {
					t.Errorf("%s: the pre-route and post-route timers compiled %d and %d times, want once each", name, builds[0], builds[1])
				}
				bare := (&FlowState{Design: res.Design, Config: &run, Result: res}).StageVitals("probe")
				if want := freshPreWNS(t, res, &run); !same(bare.WNSNs, want) {
					t.Errorf("%s: a bare FlowState reports WNS %v, fresh pre-route analysis %v", name, bare.WNSNs, want)
				}
			}
		}
	}
}

// TestCarriedSimulatorMatchesFresh: the stage vitals, switch-structure
// and the final measurement read the simulator the flow carries from
// stage to stage, and the dynamic power reads the carried post-route
// timer's RC trees. For every technique on SmallTest, Circuit A and
// Circuit B, at one shard and four, every stage's leakage must equal a
// fresh power.Standby of the design that stage left, and the final
// leakage, breakdown and dynamic power must equal fresh power.Standby,
// sim.EstimateActivity and power.Dynamic results (the last with a fresh
// Steiner extractor), bit for bit; the carried simulator must compile
// once, and a bare FlowState over the finished design must report the
// same leakage.
func TestCarriedSimulatorMatchesFresh(t *testing.T) {
	l := lib(t)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, c := range []struct {
		name string
		spec gen.CircuitSpec
	}{{"small", gen.SmallTest()}, {"a", gen.CircuitA()}, {"b", gen.CircuitB()}} {
		cfg := DefaultConfig(sharedProc, l)
		cfg.ClockSlack = c.spec.ClockSlack
		base, err := PrepareBase(c.spec.Module, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, technique := range []string{"Dual-Vth", "Conventional-SMT", "Improved-SMT"} {
			for _, parts := range []int{0, 4} {
				name := fmt.Sprintf("%s/%s/partitions=%d", c.name, technique, parts)
				run := *cfg
				run.Partitions = parts
				p, ok := LookupPipeline(technique)
				if !ok {
					t.Fatalf("no pipeline %q", technique)
				}
				// After every stage, price the design it left from
				// scratch; at the end, read the carried simulator's
				// counters.
				fresh := map[string]float64{}
				var stats sim.Stats
				var stages []Stage
				for _, st := range p.Stages() {
					stages = append(stages, st, NewStage("check", func(_ context.Context, s *FlowState) (*flow.StageReport, error) {
						rep, err := power.Standby(s.Design, power.StandbyOptions{
							Inputs: s.Config.StandbyInputs, Gated: s.Result.gatedFn, HolderOn: s.Result.holderFn,
						})
						if err != nil {
							return nil, err
						}
						fresh[st.Name()] = rep.StandbyLeakMW
						return nil, nil
					}))
				}
				stages = append(stages, NewStage("simulator", func(_ context.Context, s *FlowState) (*flow.StageReport, error) {
					stats = s.sim.Stats()
					return nil, nil
				}))
				res, err := RunPipeline(context.Background(), NewPipeline(technique, stages...), base, &run, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, sr := range res.Stages {
					if want, ok := fresh[sr.Name]; !ok || !same(sr.LeakMW, want) {
						t.Errorf("%s: stage %q leakage %v, fresh standby %v", name, sr.Name, sr.LeakMW, want)
					}
				}
				rep, err := power.Standby(res.Design, power.StandbyOptions{
					Inputs: run.StandbyInputs, Gated: res.gatedFn, HolderOn: res.holderFn,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !same(res.StandbyLeakMW, rep.StandbyLeakMW) || len(res.Breakdown) != len(rep.Breakdown) {
					t.Errorf("%s: final leakage %v over %d categories, fresh standby %v over %d",
						name, res.StandbyLeakMW, len(res.Breakdown), rep.StandbyLeakMW, len(rep.Breakdown))
				}
				for cat, mw := range rep.Breakdown { // rangemap:ok each entry checked on its own
					if got, ok := res.Breakdown[cat]; !ok || !same(got, mw) {
						t.Errorf("%s: %s leakage %v, fresh standby %v", name, cat, got, mw)
					}
				}
				act, err := sim.EstimateActivity(res.Design, run.ActivityCycles, run.Seed)
				if err != nil {
					t.Fatal(err)
				}
				dyn, err := power.Dynamic(res.Design, act, run.Proc, run.ClockPeriodNs,
					&parasitics.SteinerExtractor{Proc: run.Proc, TrunkNets: func(n *netlist.Net) bool { return n.IsVGND }})
				if err != nil {
					t.Fatal(err)
				}
				if !same(res.DynamicMW, dyn) {
					t.Errorf("%s: final dynamic power %v, fresh estimate %v", name, res.DynamicMW, dyn)
				}
				if stats.Compiles != 1 {
					t.Errorf("%s: the carried simulator compiled %d times, want once (%+v)", name, stats.Compiles, stats)
				}
				bare := (&FlowState{Design: res.Design, Config: &run, Result: res}).StageVitals("probe")
				if !same(bare.LeakMW, rep.StandbyLeakMW) {
					t.Errorf("%s: a bare FlowState reports leakage %v, fresh standby %v", name, bare.LeakMW, rep.StandbyLeakMW)
				}
			}
		}
	}
}
