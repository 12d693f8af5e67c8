package assign_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"selectivemt/internal/assign"
	"selectivemt/internal/gen"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/place"
	"selectivemt/internal/power"
	"selectivemt/internal/sta"
	"selectivemt/internal/synth"
	"selectivemt/internal/tech"
)

var (
	sharedLib  *liberty.Library
	sharedProc *tech.Process
)

func lib(t *testing.T) *liberty.Library {
	t.Helper()
	if sharedLib == nil {
		sharedProc = tech.Default130()
		l, err := liberty.Generate(sharedProc, liberty.DefaultBuildOptions(sharedProc))
		if err != nil {
			t.Fatal(err)
		}
		sharedLib = l
	}
	return sharedLib
}

// randomModule builds a deterministic random pipeline: registered random
// logic clouds between input and output flops (the mcmm property-test
// generator, reused for strategy comparisons).
func randomModule(seed int64, gates int) *gen.Module {
	m := gen.NewModule(fmt.Sprintf("rand_%d", seed))
	in := m.InputBus("in", 8)
	regs := m.DFFBus(in)
	cloud := m.RandomLogic(regs, gates, seed)
	m.OutputBus("out", m.DFFBus(cloud))
	return m
}

// prepRandom maps and places a randomized circuit and returns it with an
// STA config at slack× its minimum period.
func prepRandom(t *testing.T, seed int64, gates int, slack float64) (*netlist.Design, sta.Config) {
	t.Helper()
	l := lib(t)
	d, err := synth.Map(randomModule(seed, gates), l, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := place.Place(d, place.DefaultOptions(sharedProc.RowHeightUm, sharedProc.SitePitchUm)); err != nil {
		t.Fatal(err)
	}
	cfg := sta.Config{
		ClockPeriodNs: 100,
		ClockPort:     "clk",
		InputSlewNs:   0.03,
		Extractor:     &parasitics.EstimateExtractor{Proc: sharedProc},
	}
	pmin, err := sta.MinPeriod(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ClockPeriodNs = pmin * slack
	return d, cfg
}

// runHVT runs the named strategy through assign.Run over the Dual-Vth
// flavor problem on d (LVT to HVT, unwinding to LVT).
func runHVT(t testing.TB, d *netlist.Design, cfg sta.Config, name string, opts assign.Options) *assign.Result {
	t.Helper()
	s, err := assign.Parse(name)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := sta.NewIncremental(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := assign.Run(s, inc, assign.NewFlavorProblem(d, liberty.FlavorHVT, liberty.FlavorLVT, opts), opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// TestOptionsValidate: nonsensical option combinations are rejected
// with named errors instead of being silently replaced with defaults
// inside the hot loop. The strategy rows check the name a Vth stage
// resolves with Parse.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name     string
		strategy string
		mutate   func(*assign.Options)
		wantErr  error // nil means the selection must validate
	}{
		{"defaults", "", func(o *assign.Options) {}, nil},
		{"explicit greedy", "greedy", func(o *assign.Options) {}, nil},
		{"sensitivity", "sensitivity", func(o *assign.Options) {}, nil},
		{"case-insensitive strategy", "  Greedy ", func(o *assign.Options) {}, nil},
		{"unknown strategy", "annealing", func(o *assign.Options) {}, assign.ErrUnknownStrategy},
		{"zero margin ok", "", func(o *assign.Options) { o.SlackMarginNs = 0 }, nil},
		{"zero value invalid", "", func(o *assign.Options) { *o = assign.Options{} }, assign.ErrNonPositivePasses},
		{"zero passes", "", func(o *assign.Options) { o.MaxPasses = 0 }, assign.ErrNonPositivePasses},
		{"negative passes", "", func(o *assign.Options) { o.MaxPasses = -3 }, assign.ErrNonPositivePasses},
		{"zero safety", "", func(o *assign.Options) { o.SafetyFactor = 0 }, assign.ErrNonPositiveSafety},
		{"negative safety", "", func(o *assign.Options) { o.SafetyFactor = -1.5 }, assign.ErrNonPositiveSafety},
		{"NaN safety", "", func(o *assign.Options) { o.SafetyFactor = math.NaN() }, assign.ErrNonPositiveSafety},
		{"zero batch", "", func(o *assign.Options) { o.BatchSize = 0 }, assign.ErrNonPositiveBatch},
		{"negative batch", "", func(o *assign.Options) { o.BatchSize = -8 }, assign.ErrNonPositiveBatch},
		{"negative margin", "", func(o *assign.Options) { o.SlackMarginNs = -0.1 }, assign.ErrBadSlackMargin},
		{"NaN margin", "", func(o *assign.Options) { o.SlackMarginNs = math.NaN() }, assign.ErrBadSlackMargin},
		{"infinite margin", "", func(o *assign.Options) { o.SlackMarginNs = math.Inf(1) }, assign.ErrBadSlackMargin},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := assign.DefaultOptions()
			tc.mutate(&o)
			_, err := assign.Parse(tc.strategy)
			if err == nil {
				err = o.Validate()
			}
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Validate() = %v, want errors.Is(..., %v)", err, tc.wantErr)
			}
		})
	}
}

// TestRunRejectsInvalidOptions: Run is the only guard between options
// and a strategy. Zero-valued options must come back as the named
// error for both builtins, before the strategy runs (a zero BatchSize
// would otherwise stall the lane engine: every lane's quota is 0).
func TestRunRejectsInvalidOptions(t *testing.T) {
	d, cfg := prepRandom(t, 5, 60, 1.2)
	inc, err := sta.NewIncremental(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rev := d.Revision()
	noBatch := assign.DefaultOptions()
	noBatch.BatchSize = 0
	for _, name := range []string{"greedy", "sensitivity"} {
		s, err := assign.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			opts assign.Options
			want error
		}{
			{assign.Options{}, assign.ErrNonPositivePasses},
			{noBatch, assign.ErrNonPositiveBatch},
		} {
			p := assign.NewFlavorProblem(d, liberty.FlavorHVT, liberty.FlavorLVT, tc.opts)
			if _, err := assign.Run(s, inc, p, tc.opts); !errors.Is(err, tc.want) {
				t.Errorf("%s: Run(%+v) = %v, want %v", name, tc.opts, err, tc.want)
			}
		}
	}
	if _, err := assign.Run(nil, inc, nil, assign.DefaultOptions()); !errors.Is(err, assign.ErrUnknownStrategy) {
		t.Errorf("Run(nil strategy) = %v, want ErrUnknownStrategy", err)
	}
	if d.Revision() != rev {
		t.Error("a rejected Run edited the design")
	}
}

// contractBreaker returns what Run must repair: no result at all, or a
// result with no timing after committing one move.
type contractBreaker struct{ nilResult bool }

func (contractBreaker) Name() string { return "contract-breaker" }

func (c contractBreaker) Run(inc *sta.Incremental, p assign.Problem, opts assign.Options) (*assign.Result, error) {
	if c.nilResult {
		return nil, nil
	}
	timing, err := inc.Update()
	if err != nil {
		return nil, err
	}
	moves := p.Candidates(timing, nil)
	if len(moves) == 0 {
		return nil, errors.New("no candidate to commit")
	}
	return &assign.Result{Commits: 1}, p.Apply(moves[0])
}

// TestRunEnforcesResultContract: a nil result with a nil error becomes
// an error, and missing timing is replaced by an analysis of the design
// as the strategy left it.
func TestRunEnforcesResultContract(t *testing.T) {
	d, cfg := prepRandom(t, 9, 60, 1.2)
	opts := assign.DefaultOptions()
	inc, err := sta.NewIncremental(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := assign.NewFlavorProblem(d, liberty.FlavorHVT, liberty.FlavorLVT, opts)
	if _, err := assign.Run(contractBreaker{nilResult: true}, inc, p, opts); err == nil {
		t.Error("Run accepted a nil result with a nil error")
	}
	res, err := assign.Run(contractBreaker{}, inc, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing == nil || res.Timing.Revision != d.Revision() {
		t.Fatal("Run returned missing or stale timing")
	}
	fresh, err := sta.Analyze(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.Timing.WNS) != math.Float64bits(fresh.WNS) {
		t.Errorf("repaired timing WNS %v, fresh analysis %v", res.Timing.WNS, fresh.WNS)
	}
}

func TestParseAndNames(t *testing.T) {
	names := assign.Names()
	if len(names) < 2 {
		t.Fatalf("Names() = %v, want at least the two builtins", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
	def, err := assign.Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if def.Name() != assign.DefaultStrategy {
		t.Fatalf("Parse(\"\") = %q, want %q", def.Name(), assign.DefaultStrategy)
	}
	for _, alias := range []string{"greedy", "GREEDY", "  Greedy "} {
		s, err := assign.Parse(alias)
		if err != nil {
			t.Fatalf("Parse(%q): %v", alias, err)
		}
		if s.Name() != "greedy" {
			t.Fatalf("Parse(%q) = %q", alias, s.Name())
		}
	}
	if _, err := assign.Parse("simulated-annealing"); !errors.Is(err, assign.ErrUnknownStrategy) {
		t.Fatalf("Parse(unknown) = %v, want ErrUnknownStrategy", err)
	} else if !strings.Contains(err.Error(), "greedy") {
		t.Fatalf("unknown-strategy error should list choices, got %v", err)
	}
}

type namelessStrategy struct{ name string }

func (s namelessStrategy) Name() string { return s.name }
func (s namelessStrategy) Run(*sta.Incremental, assign.Problem, assign.Options) (*assign.Result, error) {
	return &assign.Result{}, nil
}

func TestRegisterRejectsBadNames(t *testing.T) {
	if err := assign.Register(namelessStrategy{name: "  "}); err == nil {
		t.Fatal("Register with blank name succeeded")
	}
	if err := assign.Register(namelessStrategy{name: "Greedy"}); err == nil {
		t.Fatal("Register duplicating a builtin (case-insensitively) succeeded")
	}
}

// TestLeakageLUT checks the first-class library artifact: every
// swappable LVT cell gets a row toward HVT, the recorded saving matches
// the library delta and is strictly positive (HVT leaks less), and the
// table is cached per (library, flavor).
func TestLeakageLUT(t *testing.T) {
	l := lib(t)
	lut := assign.LeakageLUT(l, liberty.FlavorHVT)
	if lut.Len() == 0 {
		t.Fatal("empty LUT for HVT target")
	}
	if lut.Target() != liberty.FlavorHVT {
		t.Fatalf("Target() = %v", lut.Target())
	}
	rows := 0
	for _, name := range l.CellNames() {
		c := l.Cell(name)
		if c.Flavor != liberty.FlavorLVT {
			continue
		}
		v := l.Variant(c, liberty.FlavorHVT)
		if v == nil {
			continue
		}
		e, ok := lut.Entry(c)
		if !ok {
			t.Fatalf("no LUT row for %s", name)
		}
		rows++
		if e.Variant != v {
			t.Fatalf("%s: LUT variant %v != library variant %v", name, e.Variant.Name, v.Name)
		}
		if want := c.LeakageMW - v.LeakageMW; e.LeakSavedMW != want {
			t.Fatalf("%s: LeakSavedMW %v != library delta %v", name, e.LeakSavedMW, want)
		}
		if e.LeakSavedMW <= 0 {
			t.Fatalf("%s: moving LVT→HVT should save leakage, got %v", name, e.LeakSavedMW)
		}
		if e.DelayCostNs <= 0 {
			t.Fatalf("%s: moving LVT→HVT should cost delay, got %v", name, e.DelayCostNs)
		}
		if lut.Saved(c) != e.LeakSavedMW {
			t.Fatalf("%s: Saved() disagrees with Entry()", name)
		}
	}
	if rows == 0 {
		t.Fatal("no LVT→HVT rows checked")
	}
	if again := assign.LeakageLUT(l, liberty.FlavorHVT); again != lut {
		t.Fatal("LeakageLUT not cached per (library, flavor)")
	}
	if other := assign.LeakageLUT(l, liberty.FlavorMTConv); other == lut {
		t.Fatal("different target flavors share a LUT")
	}
}

// TestSensitivityNeverWorseTimingThanGreedy is the PR 9 property test:
// across randomized circuits and clock pressures, the sensitivity
// strategy never leaves a setup violation the greedy strategy would
// have avoided — whenever greedy ends timing-clean, sensitivity ends
// timing-clean too (at the same margin), and both leave positive-slack
// designs strictly less leaky than the all-LVT baseline.
func TestSensitivityNeverWorseTimingThanGreedy(t *testing.T) {
	seeds := []int64{1, 7, 42}
	slacks := []float64{1.02, 1.1, 1.35}
	for _, seed := range seeds {
		for _, slack := range slacks {
			base, cfg := prepRandom(t, seed, 160, slack)
			before := power.ActiveLeakage(base)

			run := func(strategy string) (*assign.Result, *netlist.Design) {
				d := base.Clone()
				return runHVT(t, d, cfg, strategy, assign.DefaultOptions()), d
			}
			g, gd := run("greedy")
			s, sd := run("sensitivity")

			if g.Timing.WNS >= 0 && s.Timing.WNS < 0 {
				t.Errorf("seed %d slack %v: greedy clean (WNS %v) but sensitivity violating (WNS %v)",
					seed, slack, g.Timing.WNS, s.Timing.WNS)
			}
			for name, res := range map[string]*assign.Result{"greedy": g, "sensitivity": s} {
				if res.Moved+res.Kept == 0 {
					t.Errorf("seed %d slack %v %s: empty tally", seed, slack, name)
				}
				if res.Commits < res.Moved {
					t.Errorf("seed %d slack %v %s: %d commits below net %d swaps",
						seed, slack, name, res.Commits, res.Moved)
				}
			}
			if gl := power.ActiveLeakage(gd); g.Moved > 0 && !(gl < before) {
				t.Errorf("seed %d slack %v: greedy did not reduce leakage (%v → %v)", seed, slack, before, gl)
			}
			if sl := power.ActiveLeakage(sd); s.Moved > 0 && !(sl < before) {
				t.Errorf("seed %d slack %v: sensitivity did not reduce leakage (%v → %v)", seed, slack, before, sl)
			}
		}
	}
}

// TestSensitivityBatchSizeOne drives the batched commit path at its
// finest granularity: with BatchSize 1 every commit is followed by a
// re-time, which must still converge and end timing-clean at a relaxed
// clock.
func TestSensitivityBatchSizeOne(t *testing.T) {
	d, cfg := prepRandom(t, 11, 120, 1.25)
	opts := assign.DefaultOptions()
	opts.BatchSize = 1
	res := runHVT(t, d, cfg, "sensitivity", opts)
	if res.Timing.WNS < 0 {
		t.Fatalf("batch-1 sensitivity broke timing: WNS %v", res.Timing.WNS)
	}
	if res.Moved == 0 {
		t.Fatal("batch-1 sensitivity swapped nothing at a relaxed clock")
	}
}

// TestSizingProblemGreedy sanity-checks the generic loop over the
// sizing domain: drives only step down when timing allows, and the
// design never ends violating at a loose clock.
func TestSizingProblemGreedy(t *testing.T) {
	d, cfg := prepRandom(t, 3, 140, 1.3)
	opts := assign.DefaultOptions()
	runHVT(t, d, cfg, "greedy", opts)
	inc, err := sta.NewIncremental(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	greedy, _ := assign.Lookup("greedy")
	r, err := assign.Run(greedy, inc, assign.NewSizingProblem(d, opts), opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Commits - r.Reverts; n < 0 {
		t.Fatalf("net downsizes negative: %d", n)
	}
	timing, err := sta.Analyze(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if timing.WNS < 0 {
		t.Fatalf("sizing recovery broke timing: WNS %v", timing.WNS)
	}
}
