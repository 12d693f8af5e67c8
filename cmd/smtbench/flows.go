package main

import (
	"context"
	"fmt"
	"time"

	"selectivemt"
	"selectivemt/internal/core"
	"selectivemt/internal/engine"
	"selectivemt/internal/flow"
	"selectivemt/internal/gen"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/place"
	"selectivemt/internal/power"
	"selectivemt/internal/sim"
	"selectivemt/internal/sta"
	"selectivemt/internal/synth"
)

// The paper's three techniques.
const (
	dualVth     = "Dual-Vth"
	convSMT     = "Conventional-SMT"
	improvedSMT = "Improved-SMT"
)

// The assign workload's strategy and timer shard count: enough shards that
// both lanes of a 2-worker fan-out stay busy.
const (
	assignPolicy     = "sensitivity"
	assignPartitions = 16
)

// runTable1 is the paper's Table 1 with a cold cache: each op runs all
// three techniques on every prepared circuit, one worker, after dropping
// every cached analysis. The seed drives the activity stimulus.
func runTable1(r *runner) error {
	env, designs, err := r.setupDesigns(func() ([]namedSpec, error) {
		var specs []namedSpec
		for _, c := range r.opt.circuits {
			spec, err := selectivemt.BenchmarkCircuit(c)
			if err != nil {
				return nil, err
			}
			specs = append(specs, namedSpec{spec.Module.Name, spec})
		}
		return specs, nil
	})
	if err != nil {
		return err
	}

	sig := ""
	op := func(i int, traced bool, series string) {
		env.ResetCache()
		tl := newTally(env)
		var runs []techniqueRuns
		r.timeOp(series, i, traced, func(t *tracer, parent int) {
			for _, d := range designs {
				runs = append(runs, techniqueRuns{d, r.runTechniques(t, parent, i, d, dualVth, convSMT, improvedSMT)})
			}
		})
		var leak, area []float64
		wns := 0.0
		for k, tr := range runs {
			tl.add(tr.res...)
			dual, conv, imp := tr.get(dualVth), tr.get(convSMT), tr.get(improvedSMT)
			if dual == nil || conv == nil || imp == nil {
				continue
			}
			r.check("orderings", imp.StandbyLeakMW < conv.StandbyLeakMW && conv.StandbyLeakMW < dual.StandbyLeakMW &&
				dual.AreaUm2 < imp.AreaUm2 && imp.AreaUm2 < conv.AreaUm2,
				"%s: leakage dual=%g conv=%g imp=%g, area dual=%g imp=%g conv=%g", tr.name,
				dual.StandbyLeakMW, conv.StandbyLeakMW, imp.StandbyLeakMW, dual.AreaUm2, imp.AreaUm2, conv.AreaUm2)
			q := map[string]float64{
				"imp_leak_pct":  100 * imp.StandbyLeakMW / dual.StandbyLeakMW,
				"imp_area_pct":  100 * imp.AreaUm2 / dual.AreaUm2,
				"conv_leak_pct": 100 * conv.StandbyLeakMW / dual.StandbyLeakMW,
				"conv_area_pct": 100 * conv.AreaUm2 / dual.AreaUm2,
				"wns_min_ns":    min(dual.WNSNs, conv.WNSNs, imp.WNSNs),
			}
			r.checkQoR("table1", tr.name, q)
			leak, area = append(leak, q["imp_leak_pct"]), append(area, q["imp_area_pct"])
			if k == 0 || q["wns_min_ns"] < wns {
				wns = q["wns_min_ns"]
			}
			if i == 0 && k == 0 {
				// Fig. 2 (conventional) and Fig. 3 (improved) structures must
				// stay logically equivalent; checked once per run.
				eq, why, err := sim.Equivalent(conv.Design, imp.Design, 24, 42)
				r.check("fig2-fig3-equivalent", err == nil && eq, "%s: %v %s", tr.name, err, why)
			}
		}
		r.closeTally(tl)
		if len(leak) > 0 {
			r.sample("imp_leak_pct", mean(leak))
			r.sample("imp_area_pct", mean(area))
			r.sample("wns_min_ns", wns)
		}
		r.checkRepeat(&sig, runs)
		if traced {
			for _, tr := range runs {
				r.probe(i, tr.cfg, allProbes, tr.res...)
			}
		}
	}
	op(0, false, "") // warm-up: the first op also grows the heap
	r.loop(2, 1, func(i int, traced bool) { op(i, traced, "flow") })
	return nil
}

// runFlow runs Dual-Vth and Improved-SMT end to end on one gen.Large design
// per op (monolithic timer, greedy, cold cache). Conventional-SMT is left
// out: its stages are a subset of these two and table1 covers it.
func runFlow(r *runner) error {
	env, designs, err := r.setupDesigns(r.largeSpec)
	if err != nil {
		return err
	}
	d := designs[0]
	sig := ""
	op := func(i int, traced bool, series string) {
		env.ResetCache()
		tl := newTally(env)
		var tr techniqueRuns
		r.timeOp(series, i, traced, func(t *tracer, parent int) {
			tr = techniqueRuns{d, r.runTechniques(t, parent, i, d, dualVth, improvedSMT)}
		})
		tl.add(tr.res...)
		r.closeTally(tl)
		if dual, imp := tr.get(dualVth), tr.get(improvedSMT); dual != nil && imp != nil {
			r.check("orderings", imp.StandbyLeakMW < dual.StandbyLeakMW && dual.AreaUm2 < imp.AreaUm2,
				"leakage dual=%g imp=%g, area dual=%g imp=%g",
				dual.StandbyLeakMW, imp.StandbyLeakMW, dual.AreaUm2, imp.AreaUm2)
			q := map[string]float64{
				"imp_leak_pct": 100 * imp.StandbyLeakMW / dual.StandbyLeakMW,
				"imp_area_pct": 100 * imp.AreaUm2 / dual.AreaUm2,
				"wns_min_ns":   min(dual.WNSNs, imp.WNSNs),
			}
			r.checkQoR("flow", d.name, q)
			for _, k := range sortedKeys(q) {
				r.sample(k, q[k])
			}
		}
		r.checkRepeat(&sig, []techniqueRuns{tr})
		if traced {
			r.probe(i, d.cfg, allProbes, tr.res...)
		}
	}
	op(0, false, "") // warm-up: the first op also grows the heap
	r.loop(2, 1, func(i int, traced bool) { op(i, traced, "flow") })
	return nil
}

// runAssign times the Vth-assignment stage alone: a one-stage pipeline
// with the sensitivity strategy on the partitioned timer, cold cache, 2
// lane/shard workers. No activity estimation runs, so the lane engine and
// the sharded timer block every op. A traced run alternates 2 and 1
// workers, for the w2/w1 ratio; the seed picks which width goes first.
func runAssign(r *runner) error {
	env, designs, err := r.setupDesigns(r.largeSpec)
	if err != nil {
		return err
	}
	d := designs[0]
	stage, ok := core.BuiltinStage(core.StageNameAssignNoVGND)
	if !ok {
		return fmt.Errorf("no built-in stage %q", core.StageNameAssignNoVGND)
	}
	p := core.NewPipeline("assign", stage)
	widths := [2]int{2, 1}
	if r.opt.seed%2 != 0 {
		widths = [2]int{1, 2}
	}
	type outcome struct {
		leak             float64
		commits, reverts int
	}
	var first *outcome
	op := func(i int, traced bool, w int, series string) {
		env.ResetCache()
		tl := newTally(env)
		cfg := *d.cfg
		cfg.Strategy = assignPolicy
		cfg.Partitions = assignPartitions
		cfg.AssignJobs, cfg.ShardJobs = w, w
		var res *core.TechniqueResult
		r.timeOp(series, i, traced, func(t *tracer, parent int) {
			id := t.begin("technique.assign", parent, i)
			var err error
			res, err = core.RunPipeline(context.Background(), p, d.base, &cfg, t.observer(id, i))
			t.end(id)
			r.attempt(fmt.Sprintf("%s/assign w%d", d.name, w), err)
		})
		if res == nil || len(res.Stages) == 0 || len(res.AssignReports) == 0 {
			return
		}
		tl.add(res)
		r.closeTally(tl)
		st, ar := res.Stages[0], res.AssignReports[0]
		got := outcome{st.LeakMW, ar.Commits, ar.Reverts}
		if first == nil {
			first = &got
		}
		r.check("widths-identical", got == *first, "w%d gave leak=%g commits=%d reverts=%d, first op leak=%g commits=%d reverts=%d",
			w, got.leak, got.commits, got.reverts, first.leak, first.commits, first.reverts)
		r.check("timing-clean", st.WNSNs >= 0, "w%d: WNS %g ns", w, st.WNSNs)
		r.checkQoR("assign", d.name, map[string]float64{
			"assign_leak_mw": st.LeakMW, "commits": float64(ar.Commits), "reverts": float64(ar.Reverts),
		})
		r.sample("assign_leak_mw", st.LeakMW)
		r.sample("wns_min_ns", st.WNSNs)
		if traced {
			r.probe(i, &cfg, timerProbes, res)
		}
	}
	op(0, false, 2, "") // warm-up: leakage LUT, lane pools
	r.loop(2, 2, func(i int, traced bool) {
		w, series := 2, "flow"
		if r.opt.traced && widths[(i-1)%2] == 1 {
			w, series = 1, "w1"
		}
		op(i, traced, w, series)
	})
	return nil
}

// techniqueRuns are one design's technique results.
type techniqueRuns struct {
	design
	res []*core.TechniqueResult
}

func (t techniqueRuns) get(technique string) *core.TechniqueResult {
	for _, r := range t.res {
		if r.Technique == technique {
			return r
		}
	}
	return nil
}

// runTechniques runs each registered technique on base, one attempt each,
// under a technique span when traced. Failed techniques are counted and
// left out of the returned results.
func (r *runner) runTechniques(t *tracer, parent, op int, d design, names ...string) []*core.TechniqueResult {
	var out []*core.TechniqueResult
	for _, name := range names {
		id := t.begin("technique."+name, parent, op)
		res, err := core.RunRegistered(context.Background(), name, d.base, d.cfg, t.observer(id, op))
		t.end(id)
		r.attempt(d.name+"/"+name, err)
		if err == nil {
			out = append(out, res)
		}
	}
	return out
}

// checkRepeat checks that every op of a run produces the same numbers as
// the first: the flow is deterministic for a fixed input.
func (r *runner) checkRepeat(sig *string, runs []techniqueRuns) {
	s := ""
	for _, tr := range runs {
		for _, res := range tr.res {
			s += fmt.Sprintf("%s/%s leak=%v area=%v wns=%v hold=%v dyn=%v;", tr.name, res.Technique,
				res.StandbyLeakMW, res.AreaUm2, res.WNSNs, res.WorstHoldNs, res.DynamicMW)
		}
	}
	if *sig == "" {
		*sig = s
	}
	r.check("deterministic", s == *sig, "op gave %s, first op %s", s, *sig)
}

// checkQoR records a design's exact quality numbers and, when golden.json
// pins that design, checks each pinned number matches exactly.
func (r *runner) checkQoR(workload, key string, q map[string]float64) {
	r.setQoR(key, q)
	want, ok := golden.QoR[workload][key]
	if !ok {
		return
	}
	for _, name := range sortedKeys(want) {
		got, have := q[name]
		r.check("golden-qor", have && got == want[name], "%s %s: got %v, golden %v", key, name, got, want[name])
	}
}

// design is one prepared base design and the flow configuration it runs
// with.
type design struct {
	name string
	cfg  *core.Config
	base *netlist.Design
}

// namedSpec is a circuit to prepare and the name its results go under.
type namedSpec struct {
	name string
	spec gen.CircuitSpec
}

// largeSpec is the gen.Large design of the flow and assign workloads.
func (r *runner) largeSpec() ([]namedSpec, error) {
	spec := gen.Large(r.opt.size, r.opt.designSeed)
	return []namedSpec{{fmt.Sprintf("%s_seed_%d", spec.Module.Name, r.opt.designSeed), spec}}, nil
}

// setupDesigns is the set-up of the flow workloads: the environment, then
// each circuit built and prepared (mapped, placed, clocked), every layer
// timed on its own. The seed becomes each configuration's activity
// stimulus.
func (r *runner) setupDesigns(specs func() ([]namedSpec, error)) (env *selectivemt.Environment, designs []design, err error) {
	err = r.setup(func(parent int) error {
		if err := r.layer("liberty.generate", parent, 0, func() (err error) {
			env, err = selectivemt.NewEnvironment()
			return err
		}); err != nil {
			return err
		}
		var named []namedSpec
		if err := r.layer("gen.build", parent, 0, func() (err error) {
			named, err = specs()
			return err
		}); err != nil {
			return err
		}
		designs = designs[:0]
		for _, ns := range named {
			cfg := env.NewConfig()
			cfg.ClockSlack = ns.spec.ClockSlack
			cfg.Seed = r.opt.seed
			base, err := r.prepare(parent, cfg, ns.spec)
			if err != nil {
				return fmt.Errorf("prepare %s: %w", ns.name, err)
			}
			designs = append(designs, design{ns.name, cfg, base})
		}
		return nil
	})
	return env, designs, err
}

// prepare is core.PrepareBase (map, place, fix the clock from the
// minimum-period probe) with each layer timed on its own.
func (r *runner) prepare(parent int, cfg *core.Config, spec gen.CircuitSpec) (*netlist.Design, error) {
	var d *netlist.Design
	if err := r.layer("synth.map", parent, 0, func() (err error) {
		d, err = synth.Map(spec.Module, cfg.Lib, synth.DefaultOptions())
		return err
	}); err != nil {
		return nil, err
	}
	if err := r.layer("place.place", parent, 0, func() error {
		_, err := place.Place(d, cfg.PlaceOpts)
		return err
	}); err != nil {
		return nil, err
	}
	probe := preSTA(cfg)
	probe.ClockPeriodNs = 1000
	var pmin float64
	if err := r.layer("sta.minperiod", parent, 0, func() (err error) {
		pmin, err = sta.MinPeriod(d, probe)
		return err
	}); err != nil {
		return nil, err
	}
	cfg.ClockPeriodNs = pmin * cfg.ClockSlack
	return d, nil
}

// preSTA is the flow's pre-route timing configuration (core's estimate-
// extractor analysis, with the sharded timer's fan-out on the engine pool),
// rebuilt so the benchmark can call the timer itself. The smoke test pins
// it to core.PrepareBase's clock period, and every traced run checks that
// it and postSTA reproduce the flow's own timing.
func preSTA(cfg *core.Config) sta.Config {
	sc := sta.Config{
		ClockPeriodNs: cfg.ClockPeriodNs,
		ClockPort:     cfg.ClockPort,
		InputSlewNs:   0.03,
		InputDelayNs:  0.1,
		Extractor:     &parasitics.EstimateExtractor{Proc: cfg.Proc},
	}
	if cfg.Partitions > 1 {
		sc.Partitions, sc.ShardJobs, sc.ShardRun = cfg.Partitions, cfg.ShardJobs, shardRun
	}
	return sc
}

// shardRun runs a sharded-timer fan-out on the engine's job pool, as the
// flow's own timing does.
func shardRun(tasks, workers int, run func(int)) {
	if _, err := engine.Map(context.Background(), tasks, workers, func(_ context.Context, i int) (struct{}, error) {
		run(i)
		return struct{}{}, nil
	}); err != nil {
		panic(fmt.Sprintf("smtbench: shard fan-out: %v", err))
	}
}

// postSTA is the post-route configuration measure uses: Steiner wires with
// VGND trunks and the clock tree's arrivals.
func postSTA(cfg *core.Config, res *core.TechniqueResult) sta.Config {
	sc := preSTA(cfg)
	sc.ClockPeriodNs = res.ClockPeriodNs
	sc.Extractor = &parasitics.SteinerExtractor{Proc: cfg.Proc,
		TrunkNets: func(n *netlist.Net) bool { return n.IsVGND }}
	if res.CTS != nil {
		sc.ClockArrival = res.CTS.Arrival
	}
	return sc
}

// probeSet selects which layer probes a workload replays.
type probeSet int

const (
	timerProbes probeSet = iota // pre-route STA and stage vitals only
	allProbes
)

// probe replays public layer calls on each finished design after the op's
// timer has stopped, as spans of their own, and samples their per-op sums.
// The replayed calls must reproduce the numbers the flow measured on the
// same design (check "probes-match-flow"), which pins the probes'
// configurations to the flow's.
func (r *runner) probe(op int, cfg *core.Config, set probeSet, results ...*core.TechniqueResult) {
	sums := map[string]float64{}
	timed := func(name string, fn func() error) bool {
		start := time.Now()
		err := r.tr.do("probe."+name, 0, op, fn)
		sums[name+"_s"] += time.Since(start).Seconds()
		r.check("probes", err == nil, "%s: %v", name, err)
		return err == nil
	}
	for _, res := range results {
		d := res.Design
		if set == allProbes {
			var act *sim.Activity
			var standby *power.Report
			var dyn float64
			var post *sta.Result
			opts := power.StandbyOptions{Inputs: cfg.StandbyInputs}
			if res.Technique != dualVth {
				opts.Gated, opts.HolderOn = core.IsGatedMT, core.HolderOn
			}
			postCfg := postSTA(cfg, res)
			ok := timed("sim.activity", func() (err error) {
				act, err = sim.EstimateActivity(d, cfg.ActivityCycles, cfg.Seed)
				return err
			})
			ok = timed("power.standby", func() (err error) { standby, err = power.Standby(d, opts); return err }) && ok
			ok = ok && timed("power.dynamic", func() (err error) {
				dyn, err = power.Dynamic(d, act, cfg.Proc, res.ClockPeriodNs, postCfg.Extractor)
				return err
			})
			ok = timed("sta.analyze-post", func() (err error) { post, err = sta.Analyze(d, postCfg); return err }) && ok
			if ok {
				r.check("probes-match-flow", post.WNS == res.WNSNs && post.WorstHold == res.WorstHoldNs &&
					standby.StandbyLeakMW == res.StandbyLeakMW && dyn == res.DynamicMW,
					"%s: replayed WNS %v ns, worst hold %v ns, leakage %v mW, dynamic %v mW; the flow measured %v, %v, %v, %v",
					res.Technique, post.WNS, post.WorstHold, standby.StandbyLeakMW, dyn,
					res.WNSNs, res.WorstHoldNs, res.StandbyLeakMW, res.DynamicMW)
			}
		}
		preCfg := preSTA(cfg)
		preCfg.ClockPeriodNs = res.ClockPeriodNs
		var pre *sta.Result
		ok := timed("sta.analyze-pre", func() (err error) { pre, err = sta.Analyze(d, preCfg); return err })
		uncached := *cfg
		uncached.Cache = nil
		var vitals *flow.StageReport
		timed("core.stage-vitals", func() error {
			vitals = (&core.FlowState{Design: d, Config: &uncached, Result: res}).StageVitals("probe")
			return nil
		})
		if ok {
			r.check("probes-match-flow", pre.WNS == vitals.WNSNs,
				"%s: replayed pre-route WNS %v ns, the flow's stage vitals %v", res.Technique, pre.WNS, vitals.WNSNs)
		}
	}
	for _, name := range sortedKeys(sums) {
		r.sample(name, sums[name])
	}
}

// tally sums one op's counters over its technique results.
type tally struct {
	env          *selectivemt.Environment
	hits, misses uint64
	sums         map[string]float64
	mt, switches int
}

func newTally(env *selectivemt.Environment) *tally {
	h, m, _ := env.CacheStats()
	return &tally{env: env, hits: h, misses: m, sums: map[string]float64{}}
}

func (t *tally) add(results ...*core.TechniqueResult) {
	for _, res := range results {
		for _, a := range res.AssignReports {
			t.sums["assign.score_s"] += float64(a.Phases.ScoreNs) / 1e9
			t.sums["assign.commit_s"] += float64(a.Phases.CommitNs) / 1e9
			t.sums["assign.retime_s"] += float64(a.Phases.RetimeNs) / 1e9
			t.sums["assign.unwind_s"] += float64(a.Phases.UnwindNs) / 1e9
			t.sums["assign.passes"] += float64(a.Passes)
			t.sums["assign.commits"] += float64(a.Commits)
			t.sums["assign.reverts"] += float64(a.Reverts)
		}
		t.sums["vgnd.clusters"] += float64(len(res.Clusters))
		t.sums["vgnd.reopt_resized"] += float64(res.ReoptResized)
		t.sums["core.holders"] += float64(res.HoldersInserted)
		t.sums["eco.hold_buffers"] += float64(res.Counts.HoldBuffers)
		t.sums["cts.clock_buffers"] += float64(res.Counts.ClockBuffers)
		if len(res.Clusters) > 0 {
			t.mt += res.Counts.MT
			t.switches += res.Counts.Switches
		}
	}
}

// closeTally samples the op's counters, the cache traffic since the tally
// opened included.
func (r *runner) closeTally(t *tally) {
	for _, name := range sortedKeys(t.sums) {
		r.sample(name, t.sums[name])
	}
	if c := t.sums["assign.commits"]; c > 0 {
		r.sample("assign.kept_ratio", (c-t.sums["assign.reverts"])/c)
	}
	if t.switches > 0 {
		r.sample("vgnd.cells_per_switch", float64(t.mt)/float64(t.switches))
	}
	h, m, _ := t.env.CacheStats()
	r.sampleCache(h-t.hits, m-t.misses)
}

func (r *runner) sampleCache(hits, misses uint64) {
	r.sample("engine.cache_hits", float64(hits))
	r.sample("engine.cache_misses", float64(misses))
	if hits+misses > 0 {
		r.sample("engine.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
