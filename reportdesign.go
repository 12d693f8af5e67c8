package selectivemt

import (
	"fmt"
	"sort"
	"strings"

	"selectivemt/internal/core"
	"selectivemt/internal/mcmm"
	"selectivemt/internal/power"
	"selectivemt/internal/report"
	"selectivemt/internal/sta"
)

// ReportDesign renders the full read-only analysis of one design: area
// by cell base, state-dependent standby leakage (optionally minimized
// over the standby input vector), setup/hold timing, and — when the
// config lists sign-off corners — the per-corner slack/leakage table.
// It only reads the design, so independent designs report concurrently;
// the smtreport CLI prints exactly this.
func (e *Environment) ReportDesign(d *Design, cfg *Config, optVector bool) (string, error) {
	var out strings.Builder

	// Area by cell base.
	type row struct {
		base  string
		count int
		area  float64
	}
	byBase := map[string]*row{}
	for _, inst := range d.Instances() {
		r := byBase[inst.Cell.Base]
		if r == nil {
			r = &row{base: inst.Cell.Base}
			byBase[inst.Cell.Base] = r
		}
		r.count++
		r.area += inst.Cell.AreaUm2
	}
	var rows []*row
	for _, r := range byBase {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].area != rows[j].area {
			return rows[i].area > rows[j].area
		}
		return rows[i].base < rows[j].base
	})
	t := report.New(fmt.Sprintf("Area report: %s (total %.1f µm², %d instances)",
		d.Name, d.TotalArea(), d.NumInstances()),
		"cell", "count", "area µm²", "share")
	for _, r := range rows {
		t.Add(r.base, r.count, r.area, fmt.Sprintf("%.1f%%", 100*r.area/d.TotalArea()))
	}
	fmt.Fprintln(&out, t.String())

	// Leakage.
	gated := core.IsGatedMT
	holder := core.HolderOn
	rep, err := power.Standby(d, power.StandbyOptions{Gated: gated, HolderOn: holder})
	if err != nil {
		return "", err
	}
	lt := report.New("Standby leakage (all-zeros standby vector)", "source", "mW")
	var cats []string
	for c := range rep.Breakdown {
		cats = append(cats, string(c))
	}
	sort.Strings(cats)
	for _, c := range cats {
		lt.Add(c, report.Sci(rep.Breakdown[power.Category(c)]))
	}
	lt.Add("TOTAL", report.Sci(rep.StandbyLeakMW))
	fmt.Fprintln(&out, lt.String())

	if optVector {
		vec, leak, err := power.OptimizeStandbyVector(d,
			power.StandbyOptions{Gated: gated, HolderOn: holder}, 4, 1)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&out, "optimized standby vector: %s mW (%.1f%% below all-zeros)\n",
			report.Sci(leak), 100*(1-leak/rep.StandbyLeakMW))
		var names []string
		for n := range vec {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprint(&out, "  vector:")
		for _, n := range names {
			fmt.Fprintf(&out, " %s=%s", n, vec[n])
		}
		fmt.Fprintln(&out)
	}

	// Timing.
	if cfg.ClockPeriodNs > 0 {
		timing, err := sta.Analyze(d, cfg.PreRouteConfig())
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&out, "Timing @ %.3f ns: WNS %.4f ns, TNS %.4f ns, worst hold %.4f ns\n",
			cfg.ClockPeriodNs, timing.WNS, timing.TNS, timing.WorstHold)
		for i, p := range timing.WorstPaths(3) {
			fmt.Fprintf(&out, "  path %d: slack %.4f ns, %d stages\n", i+1, p.SlackNs, len(p.Steps))
		}
	}

	// Multi-corner analysis (report only: nothing is optimized or fixed
	// on an analysis pass, so no corners means no section and no cost).
	if len(cfg.Corners) > 0 && cfg.ClockPeriodNs <= 0 {
		// Say so instead of silently dropping a requested section: the
		// corner timing needs a clock the caller has not provided.
		fmt.Fprintln(&out, "corner analysis skipped: no clock period (provide -sdc or a clock config)")
	}
	if len(cfg.Corners) > 0 && cfg.ClockPeriodNs > 0 {
		set := cfg.CornerSet
		if set == nil {
			set = e.cornerSet()
		}
		sess, err := mcmm.NewSession(d, set, cfg.Corners, cfg.PreRouteCornerConfig())
		if err != nil {
			return "", err
		}
		crep, err := mcmm.Signoff(sess, mcmm.SignoffOptions{
			Standby:   power.StandbyOptions{Gated: gated, HolderOn: holder},
			GatingKey: "smtreport",
			Cache:     cfg.Cache,
		})
		if err != nil {
			return "", err
		}
		crep.Circuit = d.Name
		crep.Technique = "analysis"
		fmt.Fprintln(&out, crep.Format())
	}
	return out.String(), nil
}
