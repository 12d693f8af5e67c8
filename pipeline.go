package selectivemt

import (
	"context"
	"fmt"
	"strings"

	"selectivemt/internal/core"
	"selectivemt/internal/flow"
)

// This file is the pass-manager face of the workflow: techniques are
// named pipelines — declarative stage lists over a shared FlowState —
// registered in a process-wide registry. The paper's three techniques
// are pre-registered ("Dual-Vth", "Conventional-SMT", "Improved-SMT");
// custom power-gating variants register their own stage list and then
// run anywhere a technique name is accepted: RunPipeline here, the
// smtflow -technique flag, and smtd job specs.

// Pipeline types, re-exported so custom variants can be authored
// against the facade alone.
type (
	// FlowState is the state a pipeline's stages share: the working
	// design, the flow config, and the accumulating TechniqueResult.
	FlowState = core.FlowState
	// Stage is one pass of a technique pipeline.
	Stage = core.Stage
	// Pipeline is a named, ordered stage list.
	Pipeline = core.Pipeline
	// StageReport is one stage's recorded vitals (area, leakage, WNS,
	// insertions, wall-clock, area/population deltas).
	StageReport = flow.StageReport
	// StageEvent is a live per-stage progress notification.
	StageEvent = flow.Event
)

// Stage lifecycle states carried by StageEvent.
const (
	StageRunning = flow.StageRunning
	StageDone    = flow.StageDone
	StageFailed  = flow.StageFailed
	StageSkipped = flow.StageSkipped
)

// NewStage wraps a function as a named custom stage.
func NewStage(name string, run func(ctx context.Context, s *FlowState) (*StageReport, error)) Stage {
	return core.NewStage(name, run)
}

// BuiltinStage returns a built-in flow pass by stage name (see
// BuiltinStageNames), for composing custom pipelines out of the
// paper's stages.
func BuiltinStage(name string) (Stage, bool) { return core.BuiltinStage(name) }

// BuiltinStageNames lists the built-in stage names, sorted.
func BuiltinStageNames() []string { return core.BuiltinStageNames() }

// RegisterPipeline registers a custom technique pipeline under a name
// (case-insensitive, must not collide with a registered technique).
// The technique-selection aliases are reserved: a pipeline named
// "dual", "conventional", "improved" or "all" would register fine but
// always be shadowed by the alias resolution in job specs and CLIs.
func RegisterPipeline(name string, stages ...Stage) error {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "dual", "conventional", "improved", "all":
		return fmt.Errorf("selectivemt: pipeline name %q is a reserved technique alias", name)
	}
	return core.RegisterPipeline(core.NewPipeline(name, stages...))
}

// Pipelines lists every registered technique pipeline, sorted by name:
// the three built-ins plus any custom registrations.
func Pipelines() []string { return core.PipelineNames() }

// PipelineStages lists a registered pipeline's stage names in run
// order; ok is false for an unknown name.
func PipelineStages(name string) (stages []string, ok bool) {
	p, ok := core.LookupPipeline(name)
	if !ok {
		return nil, false
	}
	return p.StageNames(), true
}

// RunPipeline runs a technique pipeline on a clone of base: name is a
// registered pipeline's name or one of the aliases dual, conventional
// and improved, in any case. Cancellation via ctx lands between — and
// inside ctx-aware — stages, and observer (when non-nil) receives live
// per-stage progress events. The three built-ins reproduce RunDualVth /
// RunConventionalSMT / RunImprovedSMT exactly.
func RunPipeline(ctx context.Context, name string, base *Design, cfg *Config, observer func(StageEvent)) (*TechniqueResult, error) {
	return core.RunRegistered(ctx, techniqueDisplay(strings.ToLower(strings.TrimSpace(name))), base, cfg, observer)
}
