package selectivemt

import (
	"strings"

	"selectivemt/internal/mcmm"
	"selectivemt/internal/tech"
)

// Multi-corner sign-off face of the workflow. Setting Config.Corners
// (or JobSpec.Corners) re-verifies every finished design at the PVT
// corners where silicon actually fails — setup at slow, hold and leakage
// at the fast corners — with hold re-fixed at the binding fast corner
// on a sign-off clone. Table-1 numbers stay byte-identical to the
// single-corner run; the corner work only adds a CornerReport per
// technique.

// Corner re-exports the PVT corner identifier.
type Corner = tech.Corner

// Sign-off corners.
const (
	CornerTyp      = tech.CornerTyp
	CornerSlow     = tech.CornerSlow
	CornerFastHot  = tech.CornerFastHot
	CornerFastCold = tech.CornerFastCold
)

// CornerReport is a technique's multi-corner sign-off outcome.
type CornerReport = mcmm.Report

// CornerMetrics is one corner's sign-off numbers.
type CornerMetrics = mcmm.Metrics

// AllCorners returns the canonical corner list (typ, slow, fast-hot,
// fast-cold).
func AllCorners() []Corner { return mcmm.Corners() }

// ParseCorners parses a CLI corner list: "all" or a comma-separated
// subset of typ, slow, fast-hot, fast-cold ("" parses to nil).
func ParseCorners(s string) ([]Corner, error) { return mcmm.ParseCorners(s) }

// CornerReports returns the comparison's per-technique sign-off reports
// in Table-1 column order, skipping techniques without one.
func (c *Comparison) CornerReports() []*CornerReport {
	var out []*CornerReport
	for _, r := range []*TechniqueResult{c.Dual, c.Conv, c.Improved} {
		if r != nil && r.CornerReport != nil {
			out = append(out, r.CornerReport)
		}
	}
	return out
}

// FormatCornerReports renders every sign-off report of the comparisons
// as one text block, in comparison and technique order.
func FormatCornerReports(comps []*Comparison) string {
	var b strings.Builder
	for _, cmp := range comps {
		if cmp == nil {
			continue
		}
		for _, rep := range cmp.CornerReports() {
			b.WriteString(rep.Format())
			b.WriteByte('\n')
		}
	}
	return b.String()
}
