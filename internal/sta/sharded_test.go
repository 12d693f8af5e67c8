package sta

import (
	"math/rand"
	"testing"

	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
)

// randomCut scatters instances over k shards uniformly at random — the
// adversarial opposite of the cohesion clustering (nearly every
// multi-instance net is cut), so the interface-graph fixed point is
// exercised as hard as the design allows.
func randomCut(d *netlist.Design, k int, seed int64) func(*netlist.Instance) int32 {
	rng := rand.New(rand.NewSource(seed))
	of := make(map[*netlist.Instance]int32, len(d.Instances()))
	for _, inst := range d.Instances() {
		of[inst] = int32(rng.Intn(k))
	}
	return func(inst *netlist.Instance) int32 { return of[inst] }
}

// TestShardedAnalyzeMatchesMonolithicRandomCuts is the sharding
// property: under random partition cuts, at worker counts 1/2/4, Analyze
// must reproduce the map-based oracle bit for bit — arrivals, requireds,
// slews, slacks, endpoint scalars, hold list. The 1-shard cut runs the
// same drain with every net owned by shard 0.
func TestShardedAnalyzeMatchesMonolithicRandomCuts(t *testing.T) {
	d := synthSmall(t)
	base := cfg(t, 3)
	want, err := AnalyzeLegacy(d, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 7, 1} {
		for _, workers := range []int{1, 2, 4} {
			for seed := int64(1); seed <= 3; seed++ {
				c := base
				c.shardAssign = randomCut(d, shards, seed)
				c.shardCount = shards
				c.ShardJobs = workers
				got, err := Analyze(d, c)
				if err != nil {
					t.Fatal(err)
				}
				t.Run("", func(t *testing.T) {
					t.Logf("shards=%d workers=%d seed=%d", shards, workers, seed)
					requireExactMatch(t, d, got, want)
				})
			}
		}
	}
}

// TestShardedAnalyzeClusteredMatchesMonolithic covers the production path
// (cfg.Partitions drives the cohesion clustering, results flow through
// the compile cache): first call compiles + shards, second hits the
// cached sharded graph's refresh path — both must equal the oracle.
func TestShardedAnalyzeClusteredMatchesMonolithic(t *testing.T) {
	d := synthSmall(t)
	base := cfg(t, 3)
	want, err := AnalyzeLegacy(d, base)
	if err != nil {
		t.Fatal(err)
	}
	c := base
	c.Partitions = 4
	c.ShardJobs = 2
	got, err := Analyze(d, c)
	if err != nil {
		t.Fatal(err)
	}
	requireExactMatch(t, d, got, want)
	cached, err := Analyze(d, c) // cache hit: sharded repropagate refresh
	if err != nil {
		t.Fatal(err)
	}
	requireExactMatch(t, d, cached, want)
	// A different period on the same cached sharded graph re-runs the
	// sharded passes under the new config.
	c2, w2 := c, base
	c2.ClockPeriodNs, w2.ClockPeriodNs = 5, 5
	want5, err := AnalyzeLegacy(d, w2)
	if err != nil {
		t.Fatal(err)
	}
	got5, err := Analyze(d, c2)
	if err != nil {
		t.Fatal(err)
	}
	requireExactMatch(t, d, got5, want5)
	// The first Result is a private copy: the refresh at 5 ns must not
	// have moved it.
	requireExactMatch(t, d, got, want)
}

// TestShardedIncrementalMatchesFullAfterEdits drives a seeded swap/move
// walk through the per-partition Incremental path on a random cut: after
// every batch, the sharded incremental result must equal the oracle
// exactly. This is the dual-Vth/ECO workload the per-partition retime
// exists for.
func TestShardedIncrementalMatchesFullAfterEdits(t *testing.T) {
	l := lib(t)
	d := synthSmall(t)
	base := cfg(t, 3)
	c := base
	c.shardAssign = randomCut(d, 5, 20050307)
	c.shardCount = 5
	c.ShardJobs = 3
	inc, err := NewIncremental(d, c)
	if err != nil {
		t.Fatal(err)
	}
	if inc.ShardCount() != 5 {
		t.Fatalf("a 5-shard cut built %d shards", inc.ShardCount())
	}
	requireOracle(t, d, base, inc.Result())

	var cands []*netlist.Instance
	for _, inst := range d.Instances() {
		if inst.Cell.Kind == liberty.KindComb || inst.Cell.Kind == liberty.KindFF {
			cands = append(cands, inst)
		}
	}
	if len(cands) < 20 {
		t.Fatalf("only %d editable instances; circuit too small for the walk", len(cands))
	}
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 12; round++ {
		batch := 1 + rng.Intn(8)
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
		got, err := inc.Update()
		if err != nil {
			t.Fatal(err)
		}
		requireOracle(t, d, base, got)
	}
}

// TestShardedDirtyShardsOnly pins the per-partition incrementality claim:
// a swap confined to one cluster must not drain the other shards'
// queues (their buckets stay empty through the whole propagate).
func TestShardedDirtyShardsOnly(t *testing.T) {
	l := lib(t)
	d := synthSmall(t)
	c := cfg(t, 3)
	c.Partitions = 4
	c.ShardJobs = 1
	inc, err := NewIncremental(d, c)
	if err != nil {
		t.Fatal(err)
	}
	sg := inc.sg
	if len(sg.shards) < 2 {
		t.Fatalf("want >= 2 shards, got %v", sg.Shards())
	}
	// Swap one instance; count how many shards see a change. On a
	// cohesive clustering a local swap should touch a strict subset of
	// shards.
	var inst *netlist.Instance
	for _, cand := range d.Instances() {
		if cand.Cell.Kind == liberty.KindComb && l.Variant(cand.Cell, liberty.FlavorHVT) != nil {
			inst = cand
			break
		}
	}
	if inst == nil {
		t.Skip("no swappable comb instance")
	}
	v := l.Variant(inst.Cell, liberty.FlavorHVT)
	if v == inst.Cell {
		v = l.Variant(inst.Cell, liberty.FlavorLVT)
	}
	if v == nil || v == inst.Cell {
		t.Skip("no distinct variant")
	}
	if err := d.ReplaceCell(inst, v); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Update(); err != nil {
		t.Fatal(err)
	}
	// Every changed net's owner shard was dirty.
	dirty := map[int32]bool{}
	sg.eachChanged(func(id int32) { dirty[sg.owner[id]] = true })
	if len(dirty) == len(sg.shards) {
		t.Logf("swap of %s rippled into all %d shards (possible on a tiny design)", inst.Name, len(sg.shards))
	}
	if len(dirty) == 0 {
		t.Fatal("swap changed nothing — test is vacuous")
	}
}

// TestShardedRepropagateZeroAlloc extends the allocation contract to k
// shards at one worker: a full re-propagation — per-shard drains plus the
// interface-graph fixed-point iteration — must not touch the heap once
// warm.
func TestShardedRepropagateZeroAlloc(t *testing.T) {
	c := cfg(t, 3)
	c.Partitions = 4
	c.ShardJobs = 1
	sg := warmGraph(t, synthSmall(t), c)
	if sg.Rounds() <= 2 {
		t.Fatalf("only %d rounds — the interface iteration isn't exercised", sg.Rounds())
	}
	requireRepropagateZeroAlloc(t, sg)
}

// TestShardedRetimeZeroAlloc is the incremental counterpart: seeding a
// swap's cone into the owning shards and iterating both fixed points
// (including cross-shard outbox distribution) must run allocation-free.
func TestShardedRetimeZeroAlloc(t *testing.T) {
	c := cfg(t, 3)
	c.Partitions = 4
	c.ShardJobs = 1
	d := synthSmall(t)
	requireRetimeZeroAlloc(t, d, warmGraph(t, d, c))
}
