package sta

import (
	"math/rand"
	"runtime"
	"testing"

	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/partition"
)

// randomCut scatters instances over k lanes uniformly at random — the
// adversarial opposite of the cohesion clustering (nearly every
// multi-instance net is cut).
func randomCut(d *netlist.Design, k int, seed int64) func(*netlist.Instance) int32 {
	rng := rand.New(rand.NewSource(seed))
	of := make(map[*netlist.Instance]int32, len(d.Instances()))
	for _, inst := range d.Instances() {
		of[inst] = int32(rng.Intn(k))
	}
	return func(inst *netlist.Instance) int32 { return of[inst] }
}

// TestShardedAnalyzeMatchesMonolithicRandomCuts: timing does not depend on
// the cut. Under random lane cuts, at worker counts 1/2/4, Analyze and a
// fresh Incremental (which lays the lanes) must reproduce the map-based
// oracle bit for bit — arrivals, requireds, slews, slacks, endpoint
// scalars, hold list.
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
				inc, err := NewIncremental(d, c)
				if err != nil {
					t.Fatal(err)
				}
				t.Run("", func(t *testing.T) {
					t.Logf("shards=%d workers=%d seed=%d", shards, workers, seed)
					requireExactMatch(t, d, got, want)
					requireExactMatch(t, d, inc.Result(), want)
				})
			}
		}
	}
}

// TestShardedAnalyzeClusteredMatchesMonolithic covers the production knob
// (cfg.Partitions drives the cohesion clustering): repeated analyses, at
// the same and at another period, must all equal the oracle.
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
	cached, err := Analyze(d, c)
	if err != nil {
		t.Fatal(err)
	}
	requireExactMatch(t, d, cached, want)
	// A different period re-runs the passes under the new config.
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
	// The first Result owns its state: the analysis at 5 ns must not
	// have moved it.
	requireExactMatch(t, d, got, want)
}

// editWalk drives the seeded swap/move walk the lane tests share: 12
// batches of 1..8 random cell swaps and placement moves, calling check
// after each.
func editWalk(t *testing.T, d *netlist.Design, check func()) {
	t.Helper()
	l := lib(t)
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
		check()
	}
}

// TestShardedIncrementalMatchesFullAfterEdits drives the swap/move walk
// through an Incremental laid over a random 5-lane cut: after every
// batch the result must equal the oracle exactly. This is the
// dual-Vth/ECO workload the lanes run on.
func TestShardedIncrementalMatchesFullAfterEdits(t *testing.T) {
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
		t.Fatalf("a 5-lane cut built %d lanes", inc.ShardCount())
	}
	requireOracle(t, d, base, inc.Result())
	editWalk(t, d, func() {
		got, err := inc.Update()
		if err != nil {
			t.Fatal(err)
		}
		requireOracle(t, d, base, got)
	})
}

// TestRetimeWorkIndependentOfPartitions: the lanes are only a view, so a
// timer at Partitions 16 recomputes exactly the arrivals an unpartitioned
// one does. Both follow one design through the swap/move walk; after
// every Update they must report the same NetsRetimed and bit-identical
// results.
func TestRetimeWorkIndependentOfPartitions(t *testing.T) {
	d := synthSmall(t)
	flat := cfg(t, 3)
	laned := flat
	laned.Partitions, laned.ShardJobs = 16, 2
	inc0, err := NewIncremental(d, flat)
	if err != nil {
		t.Fatal(err)
	}
	inc16, err := NewIncremental(d, laned)
	if err != nil {
		t.Fatal(err)
	}
	if inc16.ShardCount() < 2 {
		t.Fatalf("Partitions 16 laid %d lanes; the walk needs a cut", inc16.ShardCount())
	}
	batch := 0
	editWalk(t, d, func() {
		batch++
		r0, err := inc0.Update()
		if err != nil {
			t.Fatal(err)
		}
		r16, err := inc16.Update()
		if err != nil {
			t.Fatal(err)
		}
		if a, b := inc0.Stats().NetsRetimed, inc16.Stats().NetsRetimed; a != b {
			t.Fatalf("batch %d: %d arrivals recomputed at Partitions 0, %d at 16", batch, a, b)
		}
		requireSameTiming(t, d, legacyView(d, r16), legacyView(d, r0))
	})
}

// partitionedTimer builds an Incremental at Partitions 16 on one worker
// and requires the clustering to have cut the design.
func partitionedTimer(t *testing.T, d *netlist.Design) *Incremental {
	t.Helper()
	c := cfg(t, 3)
	c.Partitions, c.ShardJobs = 16, 1
	inc, err := NewIncremental(d, c)
	if err != nil {
		t.Fatal(err)
	}
	if inc.ShardCount() < 2 {
		t.Fatalf("Partitions 16 laid %d lanes", inc.ShardCount())
	}
	return inc
}

// TestShardedRepropagateZeroAlloc: under a 16-lane view a full
// re-propagation still allocates nothing once warm.
func TestShardedRepropagateZeroAlloc(t *testing.T) {
	requireRepropagateZeroAlloc(t, partitionedTimer(t, synthSmall(t)).p)
}

// TestShardedRetimeZeroAlloc is the incremental counterpart: seeding a
// swap's cone and draining both directions under a 16-lane view runs
// allocation-free.
func TestShardedRetimeZeroAlloc(t *testing.T) {
	d := synthSmall(t)
	requireRetimeZeroAlloc(t, d, partitionedTimer(t, d).p)
}

// laneOracle derives the lane view the way the partitioned timer derived
// its shard ownership and interface graph when it propagated per
// cluster: a net goes to its driving instance's cluster (port-driven and
// undriven nets co-locate with their first instance sink; out-of-range
// clusters fall to 0), and a comb arc in the consumer CSR whose fanin and
// output nets have different owners makes both boundary nets.
func laneOracle(cg *CompiledGraph, of func(*netlist.Instance) int32, count int) (owner []int32, boundary []bool) {
	count = max(count, 1)
	nn := len(cg.nets)
	owner = make([]int32, nn)
	for i, n := range cg.nets {
		var inst *netlist.Instance
		switch cg.drvKind[i] {
		case drvSeq:
			inst = cg.seqs[cg.drvIdx[i]].inst
		case drvComb:
			inst = cg.combs[cg.drvIdx[i]]
		default:
			for _, s := range n.Sinks {
				if s.Inst != nil {
					inst = s.Inst
					break
				}
			}
		}
		k := int32(0)
		if inst != nil {
			k = of(inst)
		}
		if k < 0 || k >= int32(count) {
			k = 0
		}
		owner[i] = k
	}
	boundary = make([]bool, nn)
	for id := int32(0); id < int32(nn); id++ {
		for _, c := range cg.consumers(id) {
			if c.kind != rcComb {
				continue
			}
			out := cg.combOut[c.idx]
			if owner[out] != owner[id] {
				boundary[id] = true
				boundary[out] = true
			}
		}
	}
	return owner, boundary
}

// requireLaneOracle holds an Incremental's lane view to the oracle over
// its current graph: the lane count, every instance's lane, every net's
// owner and boundary flag.
func requireLaneOracle(t *testing.T, inc *Incremental, of func(*netlist.Instance) int32, count int) {
	t.Helper()
	cg := inc.p.cg
	owner, boundary := laneOracle(cg, of, count)
	if got := inc.ShardCount(); got != max(count, 1) {
		t.Fatalf("ShardCount %d, want %d", got, max(count, 1))
	}
	for _, inst := range inc.d.Instances() {
		want := 0
		if out := inst.OutputNet(); out != nil {
			want = int(owner[cg.idOf(out)])
		}
		if got := inc.ShardOf(inst); got != want {
			t.Errorf("ShardOf(%s) = %d, want %d", inst.Name, got, want)
		}
	}
	for id, n := range cg.nets {
		if got := inc.BoundaryNet(n); got != boundary[id] {
			t.Errorf("BoundaryNet(%s) = %v, want %v", n.Name, got, boundary[id])
		}
		if inc.lanes != nil && inc.lanes.owner[id] != owner[id] {
			t.Errorf("net %s: owner %d, want %d", n.Name, inc.lanes.owner[id], owner[id])
		}
	}
}

// TestLaneViewMatchesOracle: on clustered and random cuts the lane view
// equals the oracle; at one lane no net is a boundary net.
func TestLaneViewMatchesOracle(t *testing.T) {
	d := synthSmall(t)
	for _, k := range []int{0, 1, 4, 16} {
		c := cfg(t, 3)
		c.Partitions = k
		inc, err := NewIncremental(d, c)
		if err != nil {
			t.Fatal(err)
		}
		of, count := func(*netlist.Instance) int32 { return 0 }, 1
		if k > 1 {
			cl, err := partition.Cluster(d, partition.Options{Count: k})
			if err != nil {
				t.Fatal(err)
			}
			of, count = cl.ShardOf, cl.Count
			if count < 2 {
				t.Fatalf("Partitions %d clustered into %d", k, count)
			}
		}
		requireLaneOracle(t, inc, of, count)
	}
	for _, k := range []int{1, 2, 3, 7} {
		for seed := int64(1); seed <= 3; seed++ {
			c := cfg(t, 3)
			c.shardAssign, c.shardCount = randomCut(d, k, seed), k
			inc, err := NewIncremental(d, c)
			if err != nil {
				t.Fatal(err)
			}
			requireLaneOracle(t, inc, c.shardAssign, k)
		}
	}
	// Out-of-range clusters fall to lane 0.
	c := cfg(t, 3)
	c.shardAssign = func(inst *netlist.Instance) int32 { return int32(inst.ID()%5) - 1 }
	c.shardCount = 3
	inc, err := NewIncremental(d, c)
	if err != nil {
		t.Fatal(err)
	}
	requireLaneOracle(t, inc, c.shardAssign, 3)
	// One lane: no net is read across a cut.
	c.shardCount = 1
	if inc, err = NewIncremental(d, c); err != nil {
		t.Fatal(err)
	}
	for _, n := range d.Nets() {
		if inc.BoundaryNet(n) {
			t.Fatalf("one-lane timer reports %s as a boundary net", n.Name)
		}
	}
}

// TestLaneViewFollowsPatches: after every insertion batch of the flow
// walk, a patched timer's lane view equals the view a fresh timer lays
// over the current design, clustered and under a random cut.
func TestLaneViewFollowsPatches(t *testing.T) {
	lib(t)
	for _, name := range []string{"p4", "cut5"} {
		t.Run(name, func(t *testing.T) {
			d := synthSmall(t)
			c := postRouteCfg(t, 3)
			if name == "p4" {
				c.Partitions = 4
			} else {
				c.shardAssign, c.shardCount = randomCut(d, 5, 20050307), 5
			}
			inc, err := NewIncremental(d, c)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range flowEditSteps() {
				st.edit(t, d)
				if _, err := inc.Update(); err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				fresh, err := NewIncremental(d, c)
				if err != nil {
					t.Fatal(err)
				}
				if inc.ShardCount() != fresh.ShardCount() {
					t.Fatalf("%s: %d lanes patched, %d fresh", st.name, inc.ShardCount(), fresh.ShardCount())
				}
				for _, inst := range d.Instances() {
					if a, b := inc.ShardOf(inst), fresh.ShardOf(inst); a != b {
						t.Errorf("%s: ShardOf(%s) %d patched, %d fresh", st.name, inst.Name, a, b)
					}
				}
				for _, n := range d.Nets() {
					if a, b := inc.BoundaryNet(n), fresh.BoundaryNet(n); a != b {
						t.Errorf("%s: BoundaryNet(%s) %v patched, %v fresh", st.name, n.Name, a, b)
					}
				}
				if s := inc.Stats(); s.FullBuilds != 1 {
					t.Fatalf("%s: %d compiles; the walk must patch", st.name, s.FullBuilds)
				}
			}
		})
	}
}

// TestIncrementalWorkers: the lanes' fan-out width is ShardJobs capped at
// the lane count, with <= 0 meaning GOMAXPROCS. The assignment lanes
// run at this width, so it is the one per-design parallelism knob.
func TestIncrementalWorkers(t *testing.T) {
	d := synthSmall(t)
	gmp := runtime.GOMAXPROCS(0)
	cases := []struct {
		jobs, shards, want int
	}{
		{3, 8, 3},
		{9, 4, 4},
		{1, 16, 1},
		{0, 2, min(gmp, 2)},
		{0, 16, min(gmp, 16)},
		{-1, 16, min(gmp, 16)},
		{4, 1, 1},
	}
	for _, tc := range cases {
		c := cfg(t, 3)
		c.shardAssign, c.shardCount, c.ShardJobs = randomCut(d, tc.shards, 7), tc.shards, tc.jobs
		inc, err := NewIncremental(d, c)
		if err != nil {
			t.Fatal(err)
		}
		if inc.ShardCount() != tc.shards {
			t.Fatalf("a %d-lane cut built %d lanes", tc.shards, inc.ShardCount())
		}
		if got := inc.Workers(); got != tc.want {
			t.Errorf("ShardJobs %d on %d lanes: Workers() = %d, want %d", tc.jobs, tc.shards, got, tc.want)
		}
	}
}

// TestLastRetimeReportsEveryChange: the change report the lanes re-score
// from is complete and counts each net at most once per kind. After every
// swap/move batch, every net whose arrival, slew, required time or load
// moved is reported; a net appears at most three times (touched, arrival
// changed, required changed); and LastRetimeSpan counts exactly the
// records LastRetimeChanged delivers.
func TestLastRetimeReportsEveryChange(t *testing.T) {
	d := synthSmall(t)
	c := cfg(t, 3)
	c.Partitions = 16
	inc, err := NewIncremental(d, c)
	if err != nil {
		t.Fatal(err)
	}
	// snap copies each net's timing and load out of the live result.
	snap := func(r *Result) map[*netlist.Net][5]float64 {
		out := map[*netlist.Net][5]float64{}
		for _, n := range d.Nets() {
			amax, amin, _ := r.Arrival(n)
			req, _ := r.Required(n)
			out[n] = [5]float64{amax, amin, r.Slew(n), req, r.RC(n).TotalCap()}
		}
		return out
	}
	before := snap(inc.Result())
	editWalk(t, d, func() {
		got, err := inc.Update()
		if err != nil {
			t.Fatal(err)
		}
		after := snap(got)
		seen := map[*netlist.Net]int{}
		records := 0
		if !inc.LastRetimeChanged(func(n *netlist.Net) { seen[n]++; records++ }) {
			t.Fatal("a swap/move batch was serviced by a full rebuild")
		}
		if span, exact := inc.LastRetimeSpan(); !exact || span != records {
			t.Fatalf("LastRetimeSpan = %d (exact %v), LastRetimeChanged delivered %d", span, exact, records)
		}
		for _, n := range d.Nets() {
			if seen[n] > 3 {
				t.Errorf("net %s reported %d times", n.Name, seen[n])
			}
			if before[n] != after[n] && seen[n] == 0 {
				t.Errorf("net %s moved but was not reported", n.Name)
			}
		}
		before = after
	})
}
