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
	"selectivemt/internal/gen"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
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
