package assign

import (
	"math"

	"selectivemt/internal/sta"
)

// sensEpsNs floors the per-move delay cost in the priority ratio so
// free moves (negative or zero estimated delta) sort ahead of costly
// ones without dividing by zero.
const sensEpsNs = 1e-6

// sensitivity orders candidates by leakage saved per slack consumed —
// the multi-Vth exemplar's LKG_LUT priority — instead of plain slack.
// Moves commit in batches with an incremental re-time between batches,
// so each commit checks slack at most one batch stale rather than one
// whole pass stale; a local WNS dip therefore does not end the pass —
// the fresh-slack guard keeps further commits off the violating paths
// while the rest of the design keeps absorbing moves. Violations are
// unwound batch by batch (worst slack first, re-timing in between)
// until the margin holds, so a dip costs its offenders, not the pass.
// The same unwind runs as the final guard — sensitivity never ends
// with a setup violation the greedy policy would have avoided.
//
// The engine is the lane engine (lanes.go) at every lane count: one
// commit lane per cluster of the timer's lane view
// (sta.Config.Partitions), so an unpartitioned timer is one lane with
// no boundary nets. The lane schedule follows the cluster count, so a
// different partitioning may commit a different (equally
// violation-free) set; the worker count never changes the answer.
type sensitivity struct{}

func (sensitivity) Name() string { return "sensitivity" }

func (sensitivity) Run(inc *sta.Incremental, p Problem, opts Options) (*Result, error) {
	return newLaneEngine(inc, p, opts).run()
}

// priority is leakage saved per slack consumed. Moves with no modeled
// delay cost rank by raw saving against the epsilon floor.
func priority(m Move) float64 {
	return m.LeakSavedMW / math.Max(m.DeltaNs, sensEpsNs)
}
