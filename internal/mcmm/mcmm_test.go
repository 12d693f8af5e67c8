package mcmm_test

import (
	"runtime"
	"strings"
	"testing"

	"selectivemt/internal/cts"
	"selectivemt/internal/eco"
	"selectivemt/internal/engine"
	"selectivemt/internal/gen"
	"selectivemt/internal/liberty"
	"selectivemt/internal/mcmm"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/place"
	"selectivemt/internal/power"
	"selectivemt/internal/sta"
	"selectivemt/internal/synth"
	"selectivemt/internal/tech"
	"selectivemt/internal/verilog"
)

func TestParseCorners(t *testing.T) {
	if cs, err := mcmm.ParseCorners(""); err != nil || cs != nil {
		t.Fatalf("empty: %v %v", cs, err)
	}
	cs, err := mcmm.ParseCorners("all")
	if err != nil || len(cs) != 4 {
		t.Fatalf("all: %v %v", cs, err)
	}
	cs, err = mcmm.ParseCorners("slow, fast-hot")
	if err != nil || len(cs) != 2 || cs[0] != tech.CornerSlow || cs[1] != tech.CornerFastHot {
		t.Fatalf("subset: %v %v", cs, err)
	}
	if _, err := mcmm.ParseCorners("typ,typ"); err == nil {
		t.Fatal("duplicate corner accepted")
	}
	if _, err := mcmm.ParseCorners("warp"); err == nil {
		t.Fatal("unknown corner accepted")
	}
}

func TestSetTypicalAliasesBase(t *testing.T) {
	proc := tech.Default130()
	lib, err := liberty.Generate(proc, liberty.DefaultBuildOptions(proc))
	if err != nil {
		t.Fatal(err)
	}
	set := mcmm.NewSet(proc, lib)
	ch, err := set.At(tech.CornerTyp)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Proc != proc || ch.Lib != lib {
		t.Fatal("typical characterization must alias the base pair")
	}
	slow1, err := set.At(tech.CornerSlow)
	if err != nil {
		t.Fatal(err)
	}
	slow2, err := set.At(tech.CornerSlow)
	if err != nil {
		t.Fatal(err)
	}
	if slow1 != slow2 {
		t.Fatal("corner characterization not cached")
	}
	if slow1.Lib == lib || slow1.Proc == proc {
		t.Fatal("slow corner must not alias the base pair")
	}
	if len(slow1.Lib.CellNames()) != len(lib.CellNames()) {
		t.Fatalf("corner library has %d cells, base %d",
			len(slow1.Lib.CellNames()), len(lib.CellNames()))
	}
}

// testFlow is a placed, clock-treed SmallTest design plus everything a
// session needs.
type testFlow struct {
	proc   *tech.Process
	lib    *liberty.Library
	design *netlist.Design
	cts    *cts.Result
	period float64
	set    *mcmm.Set
}

func buildFlow(t *testing.T) *testFlow {
	t.Helper()
	proc := tech.Default130()
	lib, err := liberty.Generate(proc, liberty.DefaultBuildOptions(proc))
	if err != nil {
		t.Fatal(err)
	}
	spec := gen.SmallTest()
	d, err := synth.Map(spec.Module, lib, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	po := place.DefaultOptions(proc.RowHeightUm, proc.SitePitchUm)
	if _, err := place.Place(d, po); err != nil {
		t.Fatal(err)
	}
	pre := sta.Config{
		ClockPeriodNs: 100, ClockPort: "clk", InputSlewNs: 0.03, InputDelayNs: 0.1,
		Extractor: &parasitics.EstimateExtractor{Proc: proc},
	}
	pmin, err := sta.MinPeriod(d, pre)
	if err != nil {
		t.Fatal(err)
	}
	ctsRes, err := cts.Synthesize(d, "clk", cts.DefaultOptions(proc))
	if err != nil {
		t.Fatal(err)
	}
	return &testFlow{
		proc: proc, lib: lib, design: d, cts: ctsRes,
		period: pmin * spec.ClockSlack,
		set:    mcmm.NewSet(proc, lib),
	}
}

// mkCfg mirrors the flow's post-route corner config: Steiner extraction
// with the corner process, clock arrivals scaled by the clock derate and
// I/O delays by the data derate. inputDelay 0 forces hold violations at
// every corner (each input-fed flop then races its capture clock).
func (f *testFlow) mkCfg(inputDelay float64) func(*mcmm.Characterization) sta.Config {
	arr := make(map[string]float64)
	for _, inst := range f.design.Instances() {
		if inst.Cell.IsSequential() {
			arr[inst.Name] = f.cts.Arrival(inst)
		}
	}
	return func(ch *mcmm.Characterization) sta.Config {
		clk := ch.ClockDerate(f.proc)
		data := ch.DataDerate(f.proc)
		return sta.Config{
			ClockPeriodNs: f.period,
			ClockPort:     "clk",
			InputSlewNs:   0.03,
			InputDelayNs:  inputDelay * data,
			Extractor: &parasitics.SteinerExtractor{Proc: ch.Proc,
				TrunkNets: func(n *netlist.Net) bool { return n.IsVGND }},
			ClockArrival: func(inst *netlist.Instance) float64 { return clk * arr[inst.Name] },
		}
	}
}

func (f *testFlow) ecoOpts() eco.Options {
	return eco.DefaultOptions(place.DefaultOptions(f.proc.RowHeightUm, f.proc.SitePitchUm))
}

func TestSessionTimingMonotonic(t *testing.T) {
	f := buildFlow(t)
	sess, err := mcmm.NewSession(f.design, f.set, nil, f.mkCfg(0.1))
	if err != nil {
		t.Fatal(err)
	}
	wns := make(map[tech.Corner]float64)
	for _, c := range sess.Corners() {
		timing, err := sess.TimingAt(c)
		if err != nil {
			t.Fatal(err)
		}
		wns[c] = timing.WNS
	}
	if !(wns[tech.CornerSlow] < wns[tech.CornerTyp]) {
		t.Errorf("slow WNS %v not below typ %v", wns[tech.CornerSlow], wns[tech.CornerTyp])
	}
	if !(wns[tech.CornerFastHot] > wns[tech.CornerTyp]) {
		t.Errorf("fast-hot WNS %v not above typ %v", wns[tech.CornerFastHot], wns[tech.CornerTyp])
	}
	if _, err := sess.TimingAt(tech.Corner(99)); err == nil {
		t.Error("timing at unknown corner should fail")
	}
}

func TestFixHoldReplayKeepsViewsIdentical(t *testing.T) {
	f := buildFlow(t)
	// Zero input delay: every input-fed flop violates hold at every
	// corner, so the binding-corner fix genuinely inserts buffers.
	sess, err := mcmm.NewSession(f.design, f.set, nil, f.mkCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	before, err := sess.TimingAt(tech.CornerFastHot)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.HoldViolations) == 0 {
		t.Fatal("expected hold violations with zero input delay")
	}
	res, err := sess.FixHoldAt(tech.CornerFastHot, f.ecoOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.BuffersInserted == 0 {
		t.Fatal("hold fix inserted no buffers")
	}
	after, err := sess.TimingAt(tech.CornerFastHot)
	if err != nil {
		t.Fatal(err)
	}
	if after.WorstHold < 0 {
		t.Errorf("hold still violated after fix: %v", after.WorstHold)
	}
	// The replay must leave every corner view structurally identical to
	// the primary: same instances, nets and connections, so the written
	// netlists agree byte for byte (cell names match across corner libs).
	var want strings.Builder
	if err := verilog.Write(&want, sess.Primary()); err != nil {
		t.Fatal(err)
	}
	for _, c := range sess.Corners() {
		var got strings.Builder
		if err := verilog.Write(&got, sess.View(c)); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s view diverged from primary after hold-fix replay", c)
		}
	}
	// The original design must be untouched by the whole session.
	if f.design.Instance("buf_1") != nil {
		t.Error("session mutated the design it was built from")
	}
	for _, inst := range f.design.Instances() {
		if inst.Cell != f.lib.Cell(inst.Cell.Name) {
			t.Fatalf("instance %s rebound in the original design", inst.Name)
		}
	}
}

func signoffOpts(f *testFlow, cache *engine.AnalysisCache) mcmm.SignoffOptions {
	return mcmm.SignoffOptions{
		Standby: power.StandbyOptions{},
		FixHold: true,
		ECO:     f.ecoOpts(),
		Cache:   cache,
	}
}

// TestSignoffParallelMatchesSequential: sign-off fans its corners out at
// GOMAXPROCS, so the sequential runs pin it to 1 and the parallel ones
// raise it to 4.
func TestSignoffParallelMatchesSequential(t *testing.T) {
	f := buildFlow(t)
	run := func(procs int, cache *engine.AnalysisCache) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		sess, err := mcmm.NewSession(f.design, f.set, nil, f.mkCfg(0))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := mcmm.Signoff(sess, signoffOpts(f, cache))
		if err != nil {
			t.Fatal(err)
		}
		rep.Circuit, rep.Technique = "small_test", "test"
		return rep.Format()
	}
	seq := run(1, nil)
	par := run(4, nil)
	if seq != par {
		t.Fatalf("parallel sign-off differs from sequential:\n--- seq\n%s\n--- par\n%s", seq, par)
	}
	// And through the shared cache: first run populates, second hits.
	cache := engine.NewAnalysisCache()
	first := run(4, cache)
	_, misses1 := cache.Stats()
	second := run(1, cache)
	hits2, misses2 := cache.Stats()
	if first != seq || second != seq {
		t.Fatal("cached sign-off differs from uncached")
	}
	if misses2 != misses1 {
		t.Errorf("second sign-off missed the cache (%d -> %d misses)", misses1, misses2)
	}
	if hits2 == 0 {
		t.Error("second sign-off recorded no cache hits")
	}
}

func TestSignoffReportShape(t *testing.T) {
	f := buildFlow(t)
	sess, err := mcmm.NewSession(f.design, f.set,
		[]tech.Corner{tech.CornerTyp, tech.CornerSlow, tech.CornerFastHot, tech.CornerFastCold},
		f.mkCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mcmm.Signoff(sess, signoffOpts(f, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corners) != 4 {
		t.Fatalf("want 4 corner metrics, got %d", len(rep.Corners))
	}
	if !rep.HoldFixed || rep.HoldBuffers == 0 {
		t.Errorf("expected a binding-corner hold fix, got fixed=%t buffers=%d",
			rep.HoldFixed, rep.HoldBuffers)
	}
	if rep.HoldFixedAt != tech.CornerFastHot && rep.HoldFixedAt != tech.CornerFastCold {
		t.Errorf("hold fixed at %s, want a fast corner", rep.HoldFixedAt)
	}
	if rep.BindingSetup != tech.CornerSlow {
		t.Errorf("setup binds at %s, want slow", rep.BindingSetup)
	}
	if rep.BindingLeakage != tech.CornerFastHot {
		t.Errorf("leakage binds at %s, want fast-hot", rep.BindingLeakage)
	}
	for _, m := range rep.Corners {
		if m.Corner == tech.CornerFastHot && m.StandbyLeakMW <= findMetrics(rep, tech.CornerTyp).StandbyLeakMW {
			t.Error("fast-hot leakage not above typical")
		}
	}
	out := rep.Format()
	for _, want := range []string{"typ", "slow", "fast-hot", "fast-cold", "Binding"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted report lacks %q:\n%s", want, out)
		}
	}
}

func findMetrics(rep *mcmm.Report, c tech.Corner) mcmm.Metrics {
	for _, m := range rep.Corners {
		if m.Corner == c {
			return m
		}
	}
	return mcmm.Metrics{}
}

func TestSessionErrors(t *testing.T) {
	f := buildFlow(t)
	if _, err := mcmm.NewSession(f.design, nil, nil, f.mkCfg(0.1)); err == nil {
		t.Error("nil set accepted")
	}
	if _, err := mcmm.NewSession(f.design, f.set,
		[]tech.Corner{tech.CornerTyp, tech.CornerTyp}, f.mkCfg(0.1)); err == nil {
		t.Error("duplicate corner accepted")
	}
	sess, err := mcmm.NewSession(f.design, f.set, []tech.Corner{tech.CornerTyp}, f.mkCfg(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if sess.View(tech.CornerSlow) != nil {
		t.Error("View of absent corner should be nil")
	}
	if _, err := sess.FixHoldAt(tech.CornerSlow, f.ecoOpts()); err == nil {
		t.Error("FixHoldAt on absent corner should fail")
	}
}

func TestRebindRejectsForeignCell(t *testing.T) {
	proc := tech.Default130()
	lib, err := liberty.Generate(proc, liberty.DefaultBuildOptions(proc))
	if err != nil {
		t.Fatal(err)
	}
	other := liberty.NewLibrary("empty", proc)
	d := netlist.New("t", lib)
	n, _ := d.AddNet("n")
	inst, err := d.AddInstance("u1", lib.Cell("INV_X1_L"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(inst, "A", n); err != nil {
		t.Fatal(err)
	}
	if err := mcmm.Rebind(d, other); err == nil {
		t.Fatal("rebind onto a library lacking the cell should fail")
	}
}
