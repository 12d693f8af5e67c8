package sta

import (
	"math"
	"math/rand"
	"testing"

	"selectivemt/internal/gen"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/place"
	"selectivemt/internal/synth"
)

// requireExactMatch asserts that a Result equals the map-based oracle bit
// for bit: presence and value of every per-net quantity, the endpoint
// scalars, and the hold list. This is the check the whole engine is held
// to — exact, not epsilon. A Result compared against another Result goes
// through legacyView first.
func requireExactMatch(t *testing.T, d *netlist.Design, got *Result, want *legacyResult) {
	t.Helper()
	if n := len(got.st.rc); n != d.NumNets() {
		t.Fatalf("result covers %d nets, design has %d (stale graph)", n, d.NumNets())
	}
	requireSameTiming(t, d, legacyView(d, got), want)
}

// legacyView reads a Result through its accessors into the oracle's map
// shape, over the design's current nets.
func legacyView(d *netlist.Design, r *Result) *legacyResult {
	v := &legacyResult{
		Config:         r.Config,
		ArrivalMax:     make(map[*netlist.Net]float64),
		ArrivalMin:     make(map[*netlist.Net]float64),
		SlewMax:        make(map[*netlist.Net]float64),
		RequiredMax:    make(map[*netlist.Net]float64),
		RC:             make(map[*netlist.Net]*parasitics.RCTree),
		WNS:            r.WNS,
		TNS:            r.TNS,
		WorstHold:      r.WorstHold,
		HoldViolations: r.HoldViolations,
		Revision:       r.Revision,
		design:         r.design,
	}
	for _, n := range d.Nets() {
		if rc := r.RC(n); rc != nil {
			v.RC[n] = rc
		}
		if amax, amin, ok := r.Arrival(n); ok {
			v.ArrivalMax[n], v.ArrivalMin[n], v.SlewMax[n] = amax, amin, r.Slew(n)
		}
		if req, ok := r.Required(n); ok {
			v.RequiredMax[n] = req
		}
	}
	return v
}

// requireSameTiming compares two map-shaped results bit for bit.
func requireSameTiming(t *testing.T, d *netlist.Design, got, want *legacyResult) {
	t.Helper()
	sameF := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	type m struct {
		name     string
		got, wnt map[*netlist.Net]float64
	}
	for _, mm := range []m{
		{"ArrivalMax", got.ArrivalMax, want.ArrivalMax},
		{"ArrivalMin", got.ArrivalMin, want.ArrivalMin},
		{"SlewMax", got.SlewMax, want.SlewMax},
		{"RequiredMax", got.RequiredMax, want.RequiredMax},
	} {
		if len(mm.got) != len(mm.wnt) {
			t.Errorf("%s: %d entries got vs %d oracle (stale or missing nets)",
				mm.name, len(mm.got), len(mm.wnt))
		}
		for _, n := range d.Nets() {
			gv, gok := mm.got[n]
			wv, wok := mm.wnt[n]
			if gok != wok {
				t.Errorf("%s[%s]: presence %v vs %v", mm.name, n.Name, gok, wok)
				continue
			}
			if gok && !sameF(gv, wv) {
				t.Errorf("%s[%s] = %v got, %v oracle (Δ=%g)",
					mm.name, n.Name, gv, wv, gv-wv)
			}
		}
	}
	if len(got.RC) != len(want.RC) {
		t.Errorf("RC: %d entries got vs %d oracle", len(got.RC), len(want.RC))
	}
	for _, n := range d.Nets() {
		grc, wrc := got.RC[n], want.RC[n]
		if (grc == nil) != (wrc == nil) {
			t.Errorf("RC[%s]: presence differs", n.Name)
			continue
		}
		if grc != nil && !sameF(grc.TotalCap(), wrc.TotalCap()) {
			t.Errorf("RC[%s]: total cap %v vs %v", n.Name, grc.TotalCap(), wrc.TotalCap())
		}
	}
	if !sameF(got.WNS, want.WNS) {
		t.Errorf("WNS %v got, %v oracle", got.WNS, want.WNS)
	}
	if !sameF(got.TNS, want.TNS) {
		t.Errorf("TNS %v got, %v oracle", got.TNS, want.TNS)
	}
	if !sameF(got.WorstHold, want.WorstHold) {
		t.Errorf("WorstHold %v got, %v oracle", got.WorstHold, want.WorstHold)
	}
	if len(got.HoldViolations) != len(want.HoldViolations) {
		t.Fatalf("hold violations: %d got vs %d oracle",
			len(got.HoldViolations), len(want.HoldViolations))
	}
	for i := range got.HoldViolations {
		if got.HoldViolations[i] != want.HoldViolations[i] {
			t.Errorf("hold violation %d: %s vs %s", i,
				got.HoldViolations[i].Name, want.HoldViolations[i].Name)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// requireOracle compares a Result with a fresh run of the map-based
// oracle on the design's current state.
func requireOracle(t *testing.T, d *netlist.Design, c Config, got *Result) {
	t.Helper()
	want, err := AnalyzeLegacy(d, c)
	if err != nil {
		t.Fatal(err)
	}
	requireExactMatch(t, d, got, want)
}

// forEachLayout runs an oracle walk once per shard layout, each on its
// own freshly built design: Partitions 0 and 1 (one shard), Partitions 4
// at 2 workers (clustered), and a random 5-shard cut at 1, 2 and 4
// workers.
func forEachLayout(t *testing.T, build func(*testing.T) *netlist.Design, base Config,
	walk func(t *testing.T, d *netlist.Design, c Config)) {
	cut := func(workers int) func(*netlist.Design, *Config) {
		return func(d *netlist.Design, c *Config) {
			c.shardAssign, c.shardCount, c.ShardJobs = randomCut(d, 5, 20050307), 5, workers
		}
	}
	layouts := []struct {
		name string
		set  func(d *netlist.Design, c *Config)
	}{
		{"p0", func(*netlist.Design, *Config) {}},
		{"p1", func(_ *netlist.Design, c *Config) { c.Partitions = 1 }},
		{"p4w2", func(_ *netlist.Design, c *Config) { c.Partitions, c.ShardJobs = 4, 2 }},
		{"cut5w1", cut(1)},
		{"cut5w2", cut(2)},
		{"cut5w4", cut(4)},
	}
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			d := build(t)
			c := base
			l.set(d, &c)
			walk(t, d, c)
		})
	}
}

// synthSmall maps and places the SmallTest module — a realistic multi-
// level circuit (~120 gates) for the property tests.
func synthSmall(t *testing.T) *netlist.Design {
	t.Helper()
	l := lib(t)
	d, err := synth.Map(gen.SmallTest().Module, l, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := place.Place(d, place.DefaultOptions(sharedProc.RowHeightUm, sharedProc.SitePitchUm)); err != nil {
		t.Fatal(err)
	}
	return d
}

// swappableFlavors are the targets the random walk rebinds cells across —
// the same moves the dual-Vth/MT assignment loops make.
var swappableFlavors = []liberty.Flavor{
	liberty.FlavorLVT, liberty.FlavorHVT, liberty.FlavorMTConv, liberty.FlavorMTNoVGND,
}

// TestIncrementalMatchesFullAfterSwaps is the core property test: after
// every randomized batch of cell swaps and reverts, at every shard
// layout, the incremental result must equal the oracle exactly.
func TestIncrementalMatchesFullAfterSwaps(t *testing.T) {
	l := lib(t)
	forEachLayout(t, synthSmall, cfg(t, 3), func(t *testing.T, d *netlist.Design, c Config) {
		inc, err := NewIncremental(d, c)
		if err != nil {
			t.Fatal(err)
		}
		requireOracle(t, d, c, inc.Result())

		var cands []*netlist.Instance
		for _, inst := range d.Instances() {
			if inst.Cell.Kind == liberty.KindComb || inst.Cell.Kind == liberty.KindFF {
				cands = append(cands, inst)
			}
		}
		if len(cands) < 20 {
			t.Fatalf("only %d swappable instances; circuit too small for the property", len(cands))
		}
		rng := rand.New(rand.NewSource(20050307))
		for round := 0; round < 12; round++ {
			// A batch of 1..8 random swaps (some rounds degenerate to
			// no-ops when no variant exists — that exercises the clean path).
			batch := 1 + rng.Intn(8)
			swapped := 0
			for i := 0; i < batch; i++ {
				inst := cands[rng.Intn(len(cands))]
				f := swappableFlavors[rng.Intn(len(swappableFlavors))]
				v := l.Variant(inst.Cell, f)
				if v == nil || v == inst.Cell {
					continue
				}
				if err := d.ReplaceCell(inst, v); err != nil {
					t.Fatal(err)
				}
				swapped++
			}
			got, err := inc.Update()
			if err != nil {
				t.Fatal(err)
			}
			requireOracle(t, d, c, got)
			if swapped > 0 && got.Revision != d.Revision() {
				t.Fatalf("round %d: result revision %d, design at %d", round, got.Revision, d.Revision())
			}
		}
		st := inc.Stats()
		if st.SwapUpdates == 0 {
			t.Error("property walk never exercised the incremental swap path")
		}
		if st.FullBuilds != 1 {
			t.Errorf("swaps alone forced %d full rebuilds, want only the initial one", st.FullBuilds)
		}
	})
}

// TestIncrementalDirtyConeIsSparse pins down the point of the engine: a
// single swap must re-time only its cone, not the whole design.
func TestIncrementalDirtyConeIsSparse(t *testing.T) {
	l := lib(t)
	d := synthSmall(t)
	inc, err := NewIncremental(d, cfg(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	var inv *netlist.Instance
	for _, inst := range d.Instances() {
		if inst.Cell.Kind == liberty.KindComb && l.Variant(inst.Cell, liberty.FlavorHVT) != nil {
			inv = inst
			break
		}
	}
	if inv == nil {
		t.Fatal("no swappable comb cell")
	}
	if err := d.ReplaceCell(inv, l.Variant(inv.Cell, liberty.FlavorHVT)); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Update(); err != nil {
		t.Fatal(err)
	}
	if n := inc.Stats().NetsRetimed; n >= d.NumNets()/2 {
		t.Errorf("one swap re-timed %d of %d nets; the dirty cone is not sparse", n, d.NumNets())
	}
}

// TestIncrementalStructuralEdits covers the ECO shape: buffer insertion
// in front of flop D pins (instance+net adds, sink moves, placement) and
// instance removal, all while holding exact equality with the oracle at
// every shard layout. A Result taken before the edits must follow the
// recompiled graph.
func TestIncrementalStructuralEdits(t *testing.T) {
	l := lib(t)
	po := place.DefaultOptions(sharedProc.RowHeightUm, sharedProc.SitePitchUm)
	buf := l.Cell("BUF_X1_H")
	if buf == nil {
		t.Fatal("no BUF_X1_H in library")
	}
	forEachLayout(t, synthSmall, cfg(t, 3), func(t *testing.T, d *netlist.Design, c Config) {
		inc, err := NewIncremental(d, c)
		if err != nil {
			t.Fatal(err)
		}
		live := inc.Result()
		inserted := 0
		for _, inst := range d.Instances() {
			if !inst.Cell.IsSequential() || inst.Net("D") == nil {
				continue
			}
			b, err := d.InsertBuffer(inst.Net("D"), buf, []netlist.PinRef{{Inst: inst, Pin: "D"}})
			if err != nil {
				t.Fatal(err)
			}
			place.PlaceNear(d, b, inst.Pos, po)
			inserted++
			if inserted == 3 {
				break
			}
		}
		if inserted == 0 {
			t.Fatal("no flop D pins to buffer")
		}
		got, err := inc.Update()
		if err != nil {
			t.Fatal(err)
		}
		if got != live {
			t.Fatal("Update replaced the live Result")
		}
		requireOracle(t, d, c, live)
		if inc.Stats().StructuralUpdates != 1 {
			t.Errorf("structural updates = %d, want 1", inc.Stats().StructuralUpdates)
		}
		if inc.Stats().FullBuilds != 1 {
			t.Errorf("structural edit forced a full rebuild (%d builds); it must stay incremental",
				inc.Stats().FullBuilds)
		}

		// Remove one inserted buffer again: disconnect, rewire, delete.
		var b *netlist.Instance
		for _, inst := range d.Instances() {
			if inst.Cell == buf {
				b = inst
				break
			}
		}
		in, out := b.Net("A"), b.Net("Z")
		sink := out.Sinks[0]
		if err := d.Disconnect(sink.Inst, sink.Pin); err != nil {
			t.Fatal(err)
		}
		if err := d.RemoveInstance(b); err != nil {
			t.Fatal(err)
		}
		if err := d.Connect(sink.Inst, sink.Pin, in); err != nil {
			t.Fatal(err)
		}
		if err := d.RemoveNet(out); err != nil {
			t.Fatal(err)
		}
		got, err = inc.Update()
		if err != nil {
			t.Fatal(err)
		}
		requireOracle(t, d, c, got)
		if _, _, ok := got.Arrival(out); ok || got.RC(out) != nil {
			t.Error("a removed net still has timing state")
		}
	})
}

// TestIncrementalRandomMixedEdits interleaves swaps, buffer insertions
// and placement moves in one random walk — the closest approximation of
// a whole optimization flow hammering one graph — at every shard layout.
func TestIncrementalRandomMixedEdits(t *testing.T) {
	l := lib(t)
	po := place.DefaultOptions(sharedProc.RowHeightUm, sharedProc.SitePitchUm)
	buf := l.Cell("BUF_X1_L")
	forEachLayout(t, synthSmall, cfg(t, 3), func(t *testing.T, d *netlist.Design, c Config) {
		inc, err := NewIncremental(d, c)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		for round := 0; round < 8; round++ {
			insts := d.Instances()
			for i := 0; i < 3; i++ {
				inst := insts[rng.Intn(len(insts))]
				switch rng.Intn(3) {
				case 0: // swap
					f := swappableFlavors[rng.Intn(len(swappableFlavors))]
					if v := l.Variant(inst.Cell, f); v != nil && v != inst.Cell {
						if err := d.ReplaceCell(inst, v); err != nil {
							t.Fatal(err)
						}
					}
				case 1: // buffer a random sink of the instance's output
					out := inst.OutputNet()
					if out == nil || len(out.Sinks) == 0 || out.Sinks[0].Inst == nil {
						continue
					}
					b, err := d.InsertBuffer(out, buf, []netlist.PinRef{out.Sinks[0]})
					if err != nil {
						t.Fatal(err)
					}
					place.PlaceNear(d, b, inst.Pos, po)
				case 2: // nudge placement
					place.PlaceNear(d, inst, inst.Pos, po)
				}
			}
			got, err := inc.Update()
			if err != nil {
				t.Fatal(err)
			}
			requireOracle(t, d, c, got)
		}
	})
}

// TestIncrementalLoadChangeReseedsDriverFanins: moving the capture flop
// changes the load on the last inverter of a chain, so the inverter's
// delay and every required time upstream of it move, while the D net's
// own required time (a setup endpoint) does not. Only the retime seed of
// the driver's fanins can carry that change upstream.
func TestIncrementalLoadChangeReseedsDriverFanins(t *testing.T) {
	lib(t) // the config's extractor reads the shared process
	pipe := func(t *testing.T) *netlist.Design { return buildPipe(t, 6, liberty.FlavorLVT) }
	forEachLayout(t, pipe, cfg(t, 2), func(t *testing.T, d *netlist.Design, c Config) {
		inc, err := NewIncremental(d, c)
		if err != nil {
			t.Fatal(err)
		}
		ff2 := d.Instance("ff2")
		ff2.Pos.X += 60
		d.NotePlacement(ff2)
		got, err := inc.Update()
		if err != nil {
			t.Fatal(err)
		}
		requireOracle(t, d, c, got)
	})
}

// TestIncrementalJournalLossFallsBack proves a bulk edit (or any lost
// history) silently degrades to a correct full rebuild.
func TestIncrementalJournalLossFallsBack(t *testing.T) {
	d := buildPipe(t, 10, liberty.FlavorLVT)
	c := cfg(t, 2)
	inc, err := NewIncremental(d, c)
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-band surgery: move a cell without telling the journal, then
	// declare the bulk edit.
	inv := d.Instance("inv_1")
	if inv == nil {
		for _, i := range d.Instances() {
			if i.Cell.Kind == liberty.KindComb {
				inv = i
				break
			}
		}
	}
	inv.Pos.X += 40
	d.NoteBulkEdit()
	got, err := inc.Update()
	if err != nil {
		t.Fatal(err)
	}
	requireOracle(t, d, c, got)
	if inc.Stats().FullBuilds != 2 {
		t.Errorf("full builds = %d, want 2 (initial + fallback)", inc.Stats().FullBuilds)
	}
}

// TestIncrementalNoopUpdateIsFree covers the redundant-re-analysis
// satellite: an Update with a clean journal must not re-time anything.
func TestIncrementalNoopUpdateIsFree(t *testing.T) {
	d := buildPipe(t, 10, liberty.FlavorLVT)
	inc, err := NewIncremental(d, cfg(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	r1 := inc.Result()
	r2, err := inc.Update()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("clean update must return the same live result")
	}
	st := inc.Stats()
	if st.NoopUpdates != 1 || st.NetsRetimed != 0 {
		t.Errorf("clean update did work: %+v", st)
	}
}

// TestWorstPathsAndCriticalsOnDegenerateNets is the edge-case half of the
// coverage satellite: designs with disconnected (undriven, sink-less) and
// constant-like nets must not break path extraction or the critical-cell
// query.
func TestWorstPathsAndCriticalsOnDegenerateNets(t *testing.T) {
	l := lib(t)
	d := netlist.New("degenerate", l)
	if _, err := d.AddPort("in", netlist.DirInput); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("clk", netlist.DirInput); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddPort("out", netlist.DirOutput); err != nil {
		t.Fatal(err)
	}
	// g1 computes from the live input and a floating (undriven) net: the
	// NAND still propagates the constrained arc.
	floating, err := d.AddNet("floating")
	if err != nil {
		t.Fatal(err)
	}
	g1, err := d.AddInstance("g1", l.Cell("NAND2_X1_L"))
	if err != nil {
		t.Fatal(err)
	}
	mustConnect := func(inst *netlist.Instance, pin string, n *netlist.Net) {
		t.Helper()
		if err := d.Connect(inst, pin, n); err != nil {
			t.Fatal(err)
		}
	}
	mustConnect(g1, "A", d.NetByName("in"))
	mustConnect(g1, "B", floating)
	mustConnect(g1, "ZN", d.NetByName("out"))
	// g2 is fed ONLY by the undriven net — a constant-like cone with no
	// constrained arrival — and drives a dangling net with no sinks.
	dangling, err := d.AddNet("dangling")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := d.AddInstance("g2", l.Cell("INV_X1_L"))
	if err != nil {
		t.Fatal(err)
	}
	mustConnect(g2, "A", floating)
	mustConnect(g2, "ZN", dangling)

	r, err := Analyze(d, cfg(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := r.Arrival(dangling); ok {
		t.Error("a cone fed only by an undriven net must stay unconstrained")
	}
	// The floating net has constrained fanout (through g1), so the
	// backward pass still assigns it a required time; with no arrival its
	// slack degenerates to that required time rather than +Inf.
	if _, _, ok := r.Arrival(floating); ok {
		t.Error("an undriven net must not acquire an arrival")
	}
	if s := r.Slack(floating); math.IsInf(s, 1) || math.IsNaN(s) {
		t.Errorf("floating net with constrained fanout: slack = %v, want finite", s)
	}
	if s := r.InstSlack(g2); !math.IsInf(s, 1) {
		t.Errorf("constant-cone instance slack = %v, want +Inf", s)
	}

	// WorstPaths must terminate and return only the constrained endpoint.
	paths := r.WorstPaths(5)
	if len(paths) != 1 {
		t.Fatalf("WorstPaths returned %d paths, want 1 (only `out` is constrained)", len(paths))
	}
	if len(paths[0].Steps) == 0 || paths[0].Steps[len(paths[0].Steps)-1].Net != d.NetByName("out") {
		t.Fatal("worst path does not end at the output port net")
	}

	// CriticalInstances with a huge margin must flag only instances with
	// finite slack: g2 (infinite slack) stays exempt no matter the margin.
	crit := r.CriticalInstances(1e9)
	for _, inst := range crit {
		if inst == g2 {
			t.Fatal("CriticalInstances flagged an unconstrained instance")
		}
	}
	if len(crit) == 0 {
		t.Fatal("the constrained gate should be inside a 1e9 margin")
	}

	// Analyze and the incremental engine agree with the oracle on the
	// degenerate design, including across a swap of the constant-cone gate.
	requireOracle(t, d, cfg(t, 2), r)
	inc, err := NewIncremental(d, cfg(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	requireOracle(t, d, cfg(t, 2), inc.Result())
	if err := d.ReplaceCell(g2, l.Cell("INV_X1_H")); err != nil {
		t.Fatal(err)
	}
	got, err := inc.Update()
	if err != nil {
		t.Fatal(err)
	}
	requireOracle(t, d, cfg(t, 2), got)
}

// TestCollectTouchedEpochWraparound: the touched-net marks survive their
// epoch counter wrapping. Marks left at the value the counter restarts
// from would hide every net of the next batch unless the wrap clears
// them; the retime must still see the swap and match the oracle.
func TestCollectTouchedEpochWraparound(t *testing.T) {
	l := lib(t)
	d := synthSmall(t)
	c := cfg(t, 3)
	inc, err := NewIncremental(d, c)
	if err != nil {
		t.Fatal(err)
	}
	var inst *netlist.Instance
	for _, cand := range d.Instances() {
		if cand.Cell.Kind == liberty.KindComb && l.Variant(cand.Cell, liberty.FlavorHVT) != nil {
			inst = cand
			break
		}
	}
	if inst == nil {
		t.Fatal("no comb instance with an HVT variant")
	}
	orig := inst.Cell
	swap := func(to *liberty.Cell) *Result {
		t.Helper()
		if err := d.ReplaceCell(inst, to); err != nil {
			t.Fatal(err)
		}
		res, err := inc.Update()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	swap(l.Variant(orig, liberty.FlavorHVT)) // sizes the marks
	for i := range inc.touchMark {
		inc.touchMark[i] = 1
	}
	inc.touchEpoch = math.MaxUint32
	res := swap(orig)
	if len(inc.touched) == 0 {
		t.Fatal("the batch after the wrap collected no nets")
	}
	requireOracle(t, d, c, res)
}
