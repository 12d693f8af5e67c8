package sta

import (
	"math/rand"
	"testing"

	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
)

// warmGraph compiles d under c, lays the shards over it and runs the full
// analysis.
func warmGraph(t *testing.T, d *netlist.Design, c Config) *ShardedGraph {
	t.Helper()
	c, err := normalizeConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := newTimer(d, c)
	if err != nil {
		t.Fatal(err)
	}
	sg.runFull()
	return sg
}

// requireRepropagateZeroAlloc pins the allocation contract of a full
// re-propagation, the tail of every full analysis: once its buffers have
// reached steady capacity it must not touch the heap at all.
func requireRepropagateZeroAlloc(t *testing.T, sg *ShardedGraph) {
	t.Helper()
	sg.repropagateAll() // warm every buffer to steady capacity
	if n := testing.AllocsPerRun(10, func() { sg.repropagateAll() }); n != 0 {
		t.Errorf("repropagateAll on %d shards allocates %v/run, want 0", sg.Shards(), n)
	}
}

// requireRetimeZeroAlloc is the same contract for the incremental path:
// a cell-swap rebind plus the seeded forward/backward waves and the
// endpoint scan — the white-box equivalent of ReplaceCell +
// Incremental.retime, minus the journal.
func requireRetimeZeroAlloc(t *testing.T, d *netlist.Design, sg *ShardedGraph) {
	t.Helper()
	l := lib(t)
	cg := sg.cg
	var inst *netlist.Instance
	for _, cand := range d.Instances() {
		if cand.Cell.Kind != liberty.KindComb {
			continue
		}
		if l.Variant(cand.Cell, liberty.FlavorLVT) != nil && l.Variant(cand.Cell, liberty.FlavorHVT) != nil {
			inst = cand
			break
		}
	}
	if inst == nil {
		t.Fatal("no comb instance with both Vth variants")
	}
	ci, _ := cg.combOf(inst)
	var touched []int32
	for k := range inst.Cell.Pins {
		if n := inst.NetAt(k); n != nil {
			if id, ok := cg.lookup(n); ok {
				touched = append(touched, id)
			}
		}
	}
	variants := [2]*liberty.Cell{
		l.Variant(inst.Cell, liberty.FlavorHVT),
		l.Variant(inst.Cell, liberty.FlavorLVT),
	}
	k := 0
	retime := func() {
		inst.Cell = variants[k&1]
		k++
		cg.combArcs[ci] = cg.buildArcs(inst, cg.combArcs[ci])
		sg.resetAll()
		for _, id := range touched {
			sg.seedRetime(id)
		}
		sg.propagate()
	}
	retime()
	retime() // warm both variants and the changed-list capacities
	if n := testing.AllocsPerRun(10, retime); n != 0 {
		t.Errorf("swap retime on %d shards allocates %v/run, want 0", sg.Shards(), n)
	}
}

// TestRepropagateZeroAlloc pins the default layout: one shard that owns
// every net, an empty boundary, one round per direction, and a full
// re-propagation that allocates nothing.
func TestRepropagateZeroAlloc(t *testing.T) {
	sg := warmGraph(t, synthSmall(t), cfg(t, 3))
	if sg.Shards() != 1 || sg.Boundary() != 0 {
		t.Fatalf("default layout: %d shards, %d boundary nets; want 1 and 0", sg.Shards(), sg.Boundary())
	}
	if sg.Rounds() != 2 {
		t.Fatalf("one shard ran %d rounds, want one per direction", sg.Rounds())
	}
	requireRepropagateZeroAlloc(t, sg)
}

// TestRetimeZeroAlloc is the swap-retime contract on the one-shard graph.
func TestRetimeZeroAlloc(t *testing.T) {
	d := synthSmall(t)
	requireRetimeZeroAlloc(t, d, warmGraph(t, d, cfg(t, 3)))
}

// TestFlatLegacyDifferentialRandomEdits is the fuzz-style differential
// oracle: a seeded random walk of swap and placement-move batches, where
// after every batch Analyze must match the map-based pass bit for bit, at
// every shard layout.
func TestFlatLegacyDifferentialRandomEdits(t *testing.T) {
	l := lib(t)
	forEachLayout(t, synthSmall, cfg(t, 3), func(t *testing.T, d *netlist.Design, c Config) {
		var cands []*netlist.Instance
		for _, inst := range d.Instances() {
			if inst.Cell.Kind == liberty.KindComb || inst.Cell.Kind == liberty.KindFF {
				cands = append(cands, inst)
			}
		}
		if len(cands) < 20 {
			t.Fatalf("only %d editable instances; circuit too small for the walk", len(cands))
		}
		rng := rand.New(rand.NewSource(20050307))
		for round := 0; round < 15; round++ {
			batch := 1 + rng.Intn(10)
			for i := 0; i < batch; i++ {
				inst := cands[rng.Intn(len(cands))]
				if rng.Intn(3) == 0 {
					inst.Pos.X += (rng.Float64() - 0.5) * 10
					inst.Pos.Y += (rng.Float64() - 0.5) * 10
					d.NotePlacement(inst)
					continue
				}
				f := swappableFlavors[rng.Intn(len(swappableFlavors))]
				v := l.Variant(inst.Cell, f)
				if v == nil || v == inst.Cell {
					continue
				}
				if err := d.ReplaceCell(inst, v); err != nil {
					t.Fatal(err)
				}
			}
			flat, err := Analyze(d, c)
			if err != nil {
				t.Fatal(err)
			}
			legacy, err := AnalyzeLegacy(d, c)
			if err != nil {
				t.Fatal(err)
			}
			requireExactMatch(t, d, flat, legacy)
		}
	})
}

// TestIncrementalSwapUpdateZeroAlloc pins the whole journal path of a
// swap batch: 64 cell swaps and the Update that follows (journal read,
// touched-net de-duplication, arc rebind, retime and publish) allocate
// nothing once warm, on a design with no hold violations (the hold list
// is the one result slice an endpoint scan may grow). A bounded journal
// recycles its buffer, so the swaps allocate nothing either.
func TestIncrementalSwapUpdateZeroAlloc(t *testing.T) {
	l := lib(t)
	d := synthSmall(t)
	d.SetJournalCap(256)
	c := cfg(t, 3)
	c.InputDelayNs = 0.1 // as the flow sets it: input-fed flops meet hold
	inc, err := NewIncremental(d, c)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(inc.Result().HoldViolations); n != 0 {
		t.Fatalf("fixture has %d hold violations; the guard needs none", n)
	}
	var insts []*netlist.Instance
	var variants [][2]*liberty.Cell
	for _, inst := range d.Instances() {
		hvt, lvt := l.Variant(inst.Cell, liberty.FlavorHVT), l.Variant(inst.Cell, liberty.FlavorLVT)
		if inst.Cell.Kind != liberty.KindComb || hvt == nil || lvt == nil {
			continue
		}
		insts = append(insts, inst)
		variants = append(variants, [2]*liberty.Cell{hvt, lvt})
		if len(insts) == 64 {
			break
		}
	}
	if len(insts) < 64 {
		t.Fatalf("only %d swappable instances; the batch needs 64", len(insts))
	}
	k := 0
	batch := func() {
		for i, inst := range insts {
			if err := d.ReplaceCell(inst, variants[i][k&1]); err != nil {
				t.Fatal(err)
			}
		}
		k++
		if _, err := inc.Update(); err != nil {
			t.Fatal(err)
		}
	}
	for range 8 { // fill the journal to its cap and warm every buffer
		batch()
	}
	if got := inc.Stats().SwapUpdates; got != 8 {
		t.Fatalf("8 swap batches took the swap path %d times", got)
	}
	if n := testing.AllocsPerRun(10, batch); n != 0 {
		t.Errorf("a 64-swap batch and its Update allocate %v/run, want 0", n)
	}
}
