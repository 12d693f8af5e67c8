package sta

import (
	"math/rand"
	"testing"

	"selectivemt/internal/gen"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/place"
	"selectivemt/internal/synth"
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
// re-propagation, the cached-Analyze hot path: once its buffers have
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
	ci := cg.combIdx[inst]
	var touched []int32
	for _, p := range inst.Cell.Pins {
		if n := inst.Conns[p.Name]; n != nil {
			if id, ok := cg.netID[n]; ok {
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

// TestAnalyzeCacheHitAllocsConstant pins the cost of a compile-cache hit:
// it copies the flat per-net state into a few slabs, so it allocates the
// same small number of objects whatever the design size.
func TestAnalyzeCacheHitAllocsConstant(t *testing.T) {
	l := lib(t)
	a, err := synth.Map(gen.CircuitA().Module, l, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := place.Place(a, place.DefaultOptions(sharedProc.RowHeightUm, sharedProc.SitePitchUm)); err != nil {
		t.Fatal(err)
	}
	c := cfg(t, 3)
	var allocs [2]float64
	for i, d := range []*netlist.Design{synthSmall(t), a} {
		r, err := Analyze(d, c) // compile and cache
		if err != nil {
			t.Fatal(err)
		}
		allocs[i] = testing.AllocsPerRun(10, func() {
			if _, err := Analyze(d, c); err != nil {
				t.Fatal(err)
			}
		})
		if len(r.HoldViolations) > 0 {
			allocs[i]-- // the Result's own copy of the hold list
		}
	}
	if allocs[0] != allocs[1] || allocs[0] > 6 {
		t.Errorf("cache-hit Analyze allocates %v objects on SmallTest and %v on Circuit A besides the hold list; want the same, at most 6",
			allocs[0], allocs[1])
	}
	t.Logf("cache-hit Analyze: %v allocations besides the hold list", allocs[0])
}

// TestFlatLegacyDifferentialRandomEdits is the fuzz-style differential
// oracle: a seeded random walk of swap and placement-move batches, where
// after every batch Analyze (the first analysis compiles, the second hits
// the compile cache) must match the map-based pass bit for bit, at every
// shard layout.
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
			// Same revision again: the cache-hit refresh path must agree too.
			cached, err := Analyze(d, c)
			if err != nil {
				t.Fatal(err)
			}
			requireExactMatch(t, d, cached, legacy)
		}
	})
}
