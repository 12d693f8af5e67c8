package selectivemt

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"selectivemt/internal/assign"
	"selectivemt/internal/core"
	"selectivemt/internal/cts"
	"selectivemt/internal/dualvth"
	"selectivemt/internal/eco"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/power"
	"selectivemt/internal/sim"
	"selectivemt/internal/sta"
	"selectivemt/internal/verilog"
	"selectivemt/internal/vgnd"
)

// This file is the pipeline-vs-legacy oracle: a faithful inline copy of
// the pre-refactor monolithic technique runners (the bodies RunDualVth /
// RunConventionalSMT / RunImprovedSMT had before they became registered
// pipelines), run side by side with the pipelines in the same process.
// The refactor's contract is byte identity: same final netlists, same
// Table 1, same per-stage reports, and — for the improved flow — the
// same netlist after every stage.

// legacyResult is what the oracle needs of the old TechniqueResult.
type legacyResult struct {
	area, leak float64
	stages     []StageReport
	verilog    string
	// snapshots holds the improved flow's per-stage netlists.
	snapshots []string
	gated     func(*netlist.Instance) bool
	holderOn  func(*netlist.Net) bool
}

// legacyStaConfig replicates Config.staConfig.
func legacyStaConfig(cfg *Config, ex parasitics.Extractor, clk func(*netlist.Instance) float64) sta.Config {
	return sta.Config{
		ClockPeriodNs: cfg.ClockPeriodNs,
		ClockPort:     cfg.ClockPort,
		InputSlewNs:   0.03,
		InputDelayNs:  0.1,
		Extractor:     ex,
		ClockArrival:  clk,
	}
}

// legacyAssignOpts replicates the options the assign stages resolve:
// the defaults with a slack reserve of 4% of the clock period.
func legacyAssignOpts(cfg *Config) assign.Options {
	o := assign.DefaultOptions()
	o.SlackMarginNs = 0.04 * cfg.ClockPeriodNs
	return o
}

// legacyGreedy is the strategy the pre-refactor runners hardwired.
var legacyGreedy, _ = assign.Lookup("greedy")

// legacyStage replicates TechniqueResult.stage: area, best-effort
// pre-route WNS, leakage under the technique's gating.
func legacyStage(d *netlist.Design, cfg *Config, res *legacyResult, name string) *StageReport {
	sr := StageReport{Name: name, AreaUm2: d.TotalArea()}
	pre := legacyStaConfig(cfg, &parasitics.EstimateExtractor{Proc: cfg.Proc}, nil)
	if t, err := sta.Analyze(d, pre); err == nil {
		sr.WNSNs = t.WNS
	}
	if rep, err := power.Standby(d, power.StandbyOptions{
		Inputs: cfg.StandbyInputs, Gated: res.gated, HolderOn: res.holderOn,
	}); err == nil {
		sr.LeakMW = rep.StandbyLeakMW
	}
	res.stages = append(res.stages, sr)
	return &res.stages[len(res.stages)-1]
}

// legacyMeasure replicates the parts of measure the oracle compares
// (Table 1 is area + standby leakage).
func legacyMeasure(d *netlist.Design, cfg *Config, res *legacyResult) error {
	res.area = d.TotalArea()
	rep, err := power.Standby(d, power.StandbyOptions{
		Inputs: cfg.StandbyInputs, Gated: res.gated, HolderOn: res.holderOn,
	})
	if err != nil {
		return err
	}
	res.leak = rep.StandbyLeakMW
	return nil
}

// legacyFinish replicates finishFlow: CTS, hold ECO, measurement.
func legacyFinish(d *netlist.Design, cfg *Config, res *legacyResult,
	gated func(*netlist.Instance) bool, holderOn func(*netlist.Net) bool) error {
	res.gated, res.holderOn = gated, holderOn
	ctsRes, err := cts.Synthesize(d, cfg.ClockPort, cfg.CTSOpts)
	if err != nil {
		return err
	}
	legacyStage(d, cfg, res, "CTS")
	post := legacyStaConfig(cfg, &parasitics.SteinerExtractor{Proc: cfg.Proc,
		TrunkNets: func(n *netlist.Net) bool { return n.IsVGND }}, ctsRes.Arrival)
	inc, err := sta.NewIncremental(d, post)
	if err != nil {
		return err
	}
	ecoRes, err := eco.FixHoldWith(inc, cfg.ECOOpts)
	if err != nil {
		return err
	}
	legacyStage(d, cfg, res, "hold ECO").Inserted = ecoRes.BuffersInserted
	return legacyMeasure(d, cfg, res)
}

func snapshotVerilog(t *testing.T, d *netlist.Design) string {
	t.Helper()
	var buf bytes.Buffer
	if err := verilog.Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// legacyDualVth is the pre-refactor RunDualVth body.
func legacyDualVth(t *testing.T, base *netlist.Design, cfg *Config) *legacyResult {
	t.Helper()
	d := base.Clone()
	res := &legacyResult{}
	pre := legacyStaConfig(cfg, &parasitics.EstimateExtractor{Proc: cfg.Proc}, nil)
	if _, err := dualvth.Assign(d, pre, legacyGreedy, legacyAssignOpts(cfg)); err != nil {
		t.Fatal(err)
	}
	legacyStage(d, cfg, res, "dual-vth assignment")
	if err := legacyFinish(d, cfg, res, nil, nil); err != nil {
		t.Fatal(err)
	}
	res.verilog = snapshotVerilog(t, d)
	return res
}

// legacyConventional is the pre-refactor RunConventionalSMT body.
func legacyConventional(t *testing.T, base *netlist.Design, cfg *Config) *legacyResult {
	t.Helper()
	d := base.Clone()
	res := &legacyResult{}
	pre := legacyStaConfig(cfg, &parasitics.EstimateExtractor{Proc: cfg.Proc}, nil)
	if _, err := dualvth.AssignMixed(d, pre, legacyGreedy, legacyAssignOpts(cfg), liberty.FlavorMTConv); err != nil {
		t.Fatal(err)
	}
	res.gated, res.holderOn = core.IsGatedMT, core.HolderOn
	legacyStage(d, cfg, res, "HVT+MT(embedded) assignment")
	nbuf, err := core.BuildMTE(d, cfg.MTEMaxFanout, cfg.PlaceOpts)
	if err != nil {
		t.Fatal(err)
	}
	legacyStage(d, cfg, res, "MTE network").Inserted = nbuf
	if err := legacyFinish(d, cfg, res, core.IsGatedMT, core.HolderOn); err != nil {
		t.Fatal(err)
	}
	res.verilog = snapshotVerilog(t, d)
	return res
}

// oracleCurrents replicates core's currents adapter.
type oracleCurrents struct {
	avg, peak map[*netlist.Instance]float64
}

func (c oracleCurrents) Peak(inst *netlist.Instance) float64 {
	if v, ok := c.peak[inst]; ok && v > 0 {
		return v
	}
	return inst.Cell.PeakCurrentMA
}
func (c oracleCurrents) Avg(inst *netlist.Instance) float64 { return c.avg[inst] }

// legacyImproved is the pre-refactor RunImprovedSMT body, taking a
// netlist snapshot after each reporting stage.
func legacyImproved(t *testing.T, base *netlist.Design, cfg *Config) *legacyResult {
	t.Helper()
	d := base.Clone()
	res := &legacyResult{}
	snap := func() { res.snapshots = append(res.snapshots, snapshotVerilog(t, d)) }
	pre := legacyStaConfig(cfg, &parasitics.EstimateExtractor{Proc: cfg.Proc}, nil)

	if _, err := dualvth.AssignMixed(d, pre, legacyGreedy, legacyAssignOpts(cfg), liberty.FlavorMTNoVGND); err != nil {
		t.Fatal(err)
	}
	res.gated, res.holderOn = core.IsGatedMT, core.HolderOn
	legacyStage(d, cfg, res, "HVT+MT(no VGND) assignment")
	snap()

	if _, err := core.ConvertToVGND(d); err != nil {
		t.Fatal(err)
	}
	holders, err := core.InsertHolders(d, cfg.PlaceOpts)
	if err != nil {
		t.Fatal(err)
	}
	legacyStage(d, cfg, res, "VGND conversion + holders").Inserted = len(holders)
	snap()

	var mtCells []*netlist.Instance
	for _, inst := range d.Instances() {
		if inst.Cell.Flavor == liberty.FlavorMTVGND {
			mtCells = append(mtCells, inst)
		}
	}
	act, err := sim.EstimateActivity(d, cfg.ActivityCycles, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := power.Currents(d, act, cfg.Proc, cfg.ClockPeriodNs,
		&parasitics.EstimateExtractor{Proc: cfg.Proc})
	if err != nil {
		t.Fatal(err)
	}
	cur := oracleCurrents{avg: cc.AvgMA, peak: cc.PeakMA}
	if len(mtCells) > 0 {
		mega := &vgnd.Cluster{Cells: mtCells}
		sws := cfg.Lib.SwitchCells()
		_, _ = vgnd.SolveBounce(mega, mega.Center(), sws[len(sws)-1], cur, cfg.Proc, cfg.Rules)
	}
	clusters, err := core.BuildClusters(d, mtCells, cur, cfg.Proc, cfg.Rules)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.InsertSwitches(d, clusters, cfg.PlaceOpts); err != nil {
		t.Fatal(err)
	}
	legacyStage(d, cfg, res, "switch-structure construction")
	snap()

	nbuf, err := core.BuildMTE(d, cfg.MTEMaxFanout, cfg.PlaceOpts)
	if err != nil {
		t.Fatal(err)
	}
	legacyStage(d, cfg, res, "MTE network").Inserted = nbuf
	snap()

	if err := legacyFinish(d, cfg, res, core.IsGatedMT, core.HolderOn); err != nil {
		t.Fatal(err)
	}
	// One snapshot after the shared back end (CTS + hold ECO +
	// measurement; the measurement does not touch the netlist).
	snap()

	if _, err := core.PostRouteReoptimize(d, clusters, cur, cfg); err != nil {
		t.Fatal(err)
	}
	legacyStage(d, cfg, res, "post-route switch re-optimization")
	if err := legacyMeasure(d, cfg, res); err != nil {
		t.Fatal(err)
	}
	snap()
	res.verilog = snapshotVerilog(t, d)
	return res
}

// oracleConfig builds the no-cache flow config both sides run under
// (caching is orthogonal: the cache returns the same bits it computed).
func oracleConfig(t *testing.T, env *Environment) (*netlist.Design, *Config) {
	t.Helper()
	cfg := core.DefaultConfig(env.Proc, env.Lib)
	cfg.ClockSlack = SmallTest().ClockSlack
	base, err := core.PrepareBase(SmallTest().Module, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return base, cfg
}

// compareStages checks the technique-visible stage-report fields; the
// pipeline's new fields (ElapsedMS, deltas) are additions, not part of
// the oracle.
func compareStages(t *testing.T, technique string, got, want []StageReport) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d stage reports, legacy had %d", technique, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Inserted != w.Inserted ||
			math.Float64bits(g.AreaUm2) != math.Float64bits(w.AreaUm2) ||
			math.Float64bits(g.LeakMW) != math.Float64bits(w.LeakMW) ||
			math.Float64bits(g.WNSNs) != math.Float64bits(w.WNSNs) {
			t.Errorf("%s stage %d diverged from legacy:\n got %+v\nwant %+v", technique, i, g, w)
		}
	}
}

// TestPipelineOracle proves the pass-manager refactor is a pure
// architecture move: each registered technique pipeline reproduces the
// legacy monolithic runner byte for byte — final netlist, Table 1 and
// stage reports.
func TestPipelineOracle(t *testing.T) {
	env := testEnv(t)
	base, cfg := oracleConfig(t, env)

	legacy := map[string]*legacyResult{
		"Dual-Vth":         legacyDualVth(t, base, cfg),
		"Conventional-SMT": legacyConventional(t, base, cfg),
		"Improved-SMT":     legacyImproved(t, base, cfg),
	}
	mkLegacy := func(name string) *TechniqueResult {
		return &TechniqueResult{AreaUm2: legacy[name].area, StandbyLeakMW: legacy[name].leak}
	}

	results := map[string]*TechniqueResult{}
	for _, name := range []string{"Dual-Vth", "Conventional-SMT", "Improved-SMT"} {
		res, err := RunPipeline(context.Background(), name, base, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		results[name] = res
		if got := snapshotVerilog(t, res.Design); got != legacy[name].verilog {
			t.Errorf("%s: final netlist diverged from the legacy runner", name)
		}
		compareStages(t, name, res.Stages, legacy[name].stages)
	}

	want := FormatTable1([]*Comparison{{
		Circuit:  base.Name,
		Dual:     mkLegacy("Dual-Vth"),
		Conv:     mkLegacy("Conventional-SMT"),
		Improved: mkLegacy("Improved-SMT"),
	}})
	got := FormatTable1([]*Comparison{{
		Circuit:  base.Name,
		Dual:     results["Dual-Vth"],
		Conv:     results["Conventional-SMT"],
		Improved: results["Improved-SMT"],
	}})
	if got != want {
		t.Errorf("Table 1 diverged from legacy:\n%s\nwant\n%s", got, want)
	}
}

// TestPipelineOracleStageNetlists interleaves snapshot passes between
// the improved flow's built-in stages (a custom pipeline composed from
// the catalog) and requires every intermediate netlist to be
// byte-identical to the legacy runner's at the same point — plus the
// composed pipeline to finish bit-identical to the registered one.
func TestPipelineOracleStageNetlists(t *testing.T) {
	env := testEnv(t)
	base, cfg := oracleConfig(t, env)
	legacy := legacyImproved(t, base, cfg)

	var snaps []string
	snapStage := func(i int) Stage {
		return NewStage(fmt.Sprintf("snapshot %d", i), func(_ context.Context, s *FlowState) (*StageReport, error) {
			snaps = append(snaps, snapshotVerilog(t, s.Design))
			return nil, nil
		})
	}
	builtin := func(name string) Stage {
		st, ok := BuiltinStage(name)
		if !ok {
			t.Fatalf("no builtin stage %q", name)
		}
		return st
	}
	// The improved stage list with snapshots at the legacy snapshot
	// points: after assignment, conversion, switch construction, MTE,
	// CTS+ECO (netlist unchanged by measure), and re-optimization.
	stages := []Stage{
		builtin("HVT+MT(no VGND) assignment"), snapStage(0),
		builtin("VGND conversion + holders"), snapStage(1),
		builtin("switch-structure construction"), snapStage(2),
		builtin("MTE network"), snapStage(3),
		builtin("CTS"),
		builtin("hold ECO"),
		builtin("measure"), snapStage(4),
		builtin("post-route switch re-optimization"), snapStage(5),
		builtin("sign-off"),
	}
	name := uniquePipelineName("Oracle-Improved-Snapshots")
	if err := RegisterPipeline(name, stages...); err != nil {
		t.Fatal(err)
	}
	res, err := RunPipeline(context.Background(), strings.ToLower(name), base, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != len(legacy.snapshots) {
		t.Fatalf("%d snapshots, legacy took %d", len(snaps), len(legacy.snapshots))
	}
	for i := range snaps {
		if snaps[i] != legacy.snapshots[i] {
			t.Errorf("stage snapshot %d diverged from the legacy flow", i)
		}
	}
	// Composing the same stages must equal the registered pipeline.
	reg, err := RunImprovedSMT(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if snapshotVerilog(t, res.Design) != snapshotVerilog(t, reg.Design) {
		t.Error("composed pipeline's final netlist diverged from the registered Improved-SMT")
	}
	if math.Float64bits(res.AreaUm2) != math.Float64bits(reg.AreaUm2) ||
		math.Float64bits(res.StandbyLeakMW) != math.Float64bits(reg.StandbyLeakMW) {
		t.Errorf("composed pipeline metrics diverged: area %v vs %v, leak %v vs %v",
			res.AreaUm2, reg.AreaUm2, res.StandbyLeakMW, reg.StandbyLeakMW)
	}
}
