package mcmm

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"selectivemt/internal/eco"
	"selectivemt/internal/engine"
	"selectivemt/internal/power"
	"selectivemt/internal/report"
	"selectivemt/internal/sta"
	"selectivemt/internal/tech"
)

// Metrics is one corner's sign-off numbers.
type Metrics struct {
	Corner tech.Corner

	SetupWNSNs     float64
	SetupTNSNs     float64
	HoldWNSNs      float64
	HoldViolations int
	StandbyLeakMW  float64
}

// Report is the multi-corner sign-off outcome for one design. Corners
// holds post-fix metrics in session order; the Binding* fields name the
// corner each check is worst at — the corner that would gate tape-out.
type Report struct {
	Circuit   string
	Technique string

	Corners []Metrics

	BindingSetup   tech.Corner // worst setup WNS
	BindingHold    tech.Corner // worst hold slack
	BindingLeakage tech.Corner // highest standby leakage

	// HoldFixedAt is the fast corner the hold ECO targeted (the binding
	// fast corner); HoldFixed reports whether it actually had to insert
	// buffers. HoldBeforeFixNs is that corner's hold slack before the fix.
	HoldFixedAt     tech.Corner
	HoldFixed       bool
	HoldBuffers     int
	HoldBeforeFixNs float64
}

// SignoffOptions configures a sign-off run.
type SignoffOptions struct {
	// Standby parameterizes the leakage measurement (input vector and the
	// technique's gating predicates).
	Standby power.StandbyOptions
	// GatingKey identifies the Standby gating predicates in cache keys
	// (closures cannot be hashed). Callers analyzing the same netlist
	// under different predicates must use distinct keys.
	GatingKey string
	// FixHold, when set, runs the hold ECO at the binding fast corner
	// before measuring (sign-off proper). Without it the session only
	// reports (smtreport-style analysis).
	FixHold bool
	ECO     eco.Options
	// Cache, when set, memoizes per-corner metrics by (fingerprint,
	// corner) so repeated sign-off of identical designs is free.
	Cache *engine.AnalysisCache
}

// holdProbe is the pre-fix hold summary of one fast corner.
type holdProbe struct {
	HoldWNSNs  float64
	Violations int
}

// memo computes a value through the cache when one is attached (keyed by
// the caller-composed key) and directly otherwise. T must be a value
// type safe to share across cache hits.
func memo[T any](cache *engine.AnalysisCache, key string, compute func() (any, error)) (T, error) {
	var zero T
	var v any
	var err error
	if cache == nil {
		v, err = compute()
	} else {
		v, err = cache.Memo(key, compute)
	}
	if err != nil {
		return zero, err
	}
	return v.(T), nil
}

// Signoff measures the session's design at every corner — setup/hold
// slack and standby leakage, corner-parallel on engine.Map at
// GOMAXPROCS — and, when FixHold is set, first repairs hold at the
// binding fast corner. The returned report is deterministic: a
// sequential corner loop (GOMAXPROCS 1) produces byte-identical results
// to the parallel run.
func Signoff(s *Session, opts SignoffOptions) (*Report, error) {
	rep := &Report{}
	if opts.FixHold {
		if err := fixBindingHold(s, opts, rep); err != nil {
			return nil, err
		}
	}
	fp := s.primary.Fingerprint()
	metrics, err := engine.Map(context.Background(), len(s.corners), 0,
		func(_ context.Context, i int) (Metrics, error) { return cornerMetrics(s, i, fp, opts) })
	if err != nil {
		return nil, err
	}
	rep.Corners = metrics
	rep.BindingSetup = bindingCorner(metrics, func(m Metrics) float64 { return m.SetupWNSNs })
	rep.BindingHold = bindingCorner(metrics, func(m Metrics) float64 { return m.HoldWNSNs })
	rep.BindingLeakage = bindingCorner(metrics, func(m Metrics) float64 { return -m.StandbyLeakMW })
	return rep, nil
}

// fixBindingHold probes hold at the session's fast corners, picks the
// binding (worst) one and runs the hold ECO there. Fast-corner probes fan
// out on engine.Map; the fix itself is sequential netlist surgery.
func fixBindingHold(s *Session, opts SignoffOptions, rep *Report) error {
	var fastIdx []int
	for i, c := range s.corners {
		if c == tech.CornerFastHot || c == tech.CornerFastCold {
			fastIdx = append(fastIdx, i)
		}
	}
	if len(fastIdx) == 0 {
		return nil
	}
	fp := s.primary.Fingerprint()
	probes, err := engine.Map(context.Background(), len(fastIdx), 0,
		func(_ context.Context, k int) (holdProbe, error) {
			i := fastIdx[k]
			key := fmt.Sprintf("mcmm-hold|%s|%s|%s", fp, s.corners[i], cornerCfgKey(s.cfgs[i]))
			return memo[holdProbe](opts.Cache, key, func() (any, error) {
				t, err := s.timing(i)
				if err != nil {
					return nil, err
				}
				return holdProbe{HoldWNSNs: t.WorstHold, Violations: len(t.HoldViolations)}, nil
			})
		})
	if err != nil {
		return err
	}
	best := 0
	for k := range probes {
		if probes[k].HoldWNSNs < probes[best].HoldWNSNs {
			best = k
		}
	}
	binding := s.corners[fastIdx[best]]
	rep.HoldFixedAt = binding
	rep.HoldBeforeFixNs = probes[best].HoldWNSNs
	if probes[best].Violations == 0 {
		return nil
	}
	ecoRes, err := s.FixHoldAt(binding, opts.ECO)
	if err != nil {
		return err
	}
	rep.HoldFixed = ecoRes.BuffersInserted > 0
	rep.HoldBuffers = ecoRes.BuffersInserted
	return nil
}

// timing is ensure+Update by index (the internal sibling of TimingAt).
func (s *Session) timing(i int) (*sta.Result, error) {
	inc, err := s.ensure(i)
	if err != nil {
		return nil, err
	}
	return inc.Update()
}

// cornerMetrics measures one corner (timing + standby leakage), memoized
// by (fingerprint, corner) when a cache is attached. A cache hit skips
// even building the corner's timing graph.
func cornerMetrics(s *Session, i int, fp string, opts SignoffOptions) (Metrics, error) {
	key := fmt.Sprintf("mcmm-sig|%s|%s|%s|%s|%s",
		fp, s.corners[i], cornerCfgKey(s.cfgs[i]), opts.GatingKey, standbyKey(opts.Standby))
	return memo[Metrics](opts.Cache, key, func() (any, error) {
		t, err := s.timing(i)
		if err != nil {
			return nil, err
		}
		pw, err := power.Standby(s.views[i], opts.Standby)
		if err != nil {
			return nil, fmt.Errorf("mcmm: leakage at %s: %w", s.corners[i], err)
		}
		return Metrics{
			Corner:         s.corners[i],
			SetupWNSNs:     t.WNS,
			SetupTNSNs:     t.TNS,
			HoldWNSNs:      t.WorstHold,
			HoldViolations: len(t.HoldViolations),
			StandbyLeakMW:  pw.StandbyLeakMW,
		}, nil
	})
}

// cornerCfgKey serializes the scalar identity of a corner timing config
// for cache keys: every field that changes results except the clock
// arrival closure, which is a deterministic function of the fingerprinted
// design (the CTS tree is part of the netlist) and is represented by its
// presence.
func cornerCfgKey(cfg sta.Config) string {
	return fmt.Sprintf("%T|%g|%s|%g|%g|%g|%g|%t",
		cfg.Extractor, cfg.ClockPeriodNs, cfg.ClockPort, cfg.InputSlewNs,
		cfg.InputDelayNs, cfg.OutputDelayNs, cfg.ClockSlewNs, cfg.ClockArrival != nil)
}

// standbyKey serializes a standby input vector deterministically.
func standbyKey(opts power.StandbyOptions) string {
	if len(opts.Inputs) == 0 {
		return "-"
	}
	names := make([]string, 0, len(opts.Inputs))
	for n := range opts.Inputs { // rangemap:ok sorted before use
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d,", n, int(opts.Inputs[n]))
	}
	return b.String()
}

// bindingCorner returns the corner with the smallest value of f (the
// worst corner for a smaller-is-worse metric; negate for larger-is-worse).
// Ties resolve to the earliest corner in session order.
func bindingCorner(ms []Metrics, f func(Metrics) float64) tech.Corner {
	best := 0
	worst := math.Inf(1)
	for i, m := range ms {
		if v := f(m); v < worst {
			worst = v
			best = i
		}
	}
	if len(ms) == 0 {
		return tech.CornerTyp
	}
	return ms[best].Corner
}

// Format renders the report as a fixed-width sign-off table, one row per
// corner, with the binding corners flagged in the last column.
func (r *Report) Format() string {
	title := fmt.Sprintf("Sign-off: %s / %s", r.Circuit, r.Technique)
	switch {
	case r.HoldFixed:
		title += fmt.Sprintf(" (hold fixed at %s: %d buffers, was %.4f ns)",
			r.HoldFixedAt, r.HoldBuffers, r.HoldBeforeFixNs)
	case r.HoldFixedAt != tech.CornerTyp || r.HoldBeforeFixNs != 0:
		title += fmt.Sprintf(" (hold clean at %s)", r.HoldFixedAt)
	}
	t := report.New(title,
		"Corner", "Setup WNS ns", "Setup TNS ns", "Hold WNS ns", "Leakage mW", "Binding")
	for _, m := range r.Corners {
		var marks []string
		if m.Corner == r.BindingSetup {
			marks = append(marks, "setup")
		}
		if m.Corner == r.BindingHold {
			marks = append(marks, "hold")
		}
		if m.Corner == r.BindingLeakage {
			marks = append(marks, "leakage")
		}
		t.Add(m.Corner.String(),
			fmt.Sprintf("%.4f", m.SetupWNSNs),
			fmt.Sprintf("%.4f", m.SetupTNSNs),
			fmt.Sprintf("%.4f", m.HoldWNSNs),
			report.Sci(m.StandbyLeakMW),
			strings.Join(marks, "+"))
	}
	return t.String()
}
