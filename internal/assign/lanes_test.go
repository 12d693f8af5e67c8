package assign

// White-box tests for the shard-parallel lane engine: the strict heap
// order, the adaptive batch arithmetic, and the
// PR 10 satellite contract — the steady-state score / commit-selection
// / unwind-selection phases allocate nothing once their reuse buffers
// are warm (testing.AllocsPerRun guards, below the pprof wrappers).

import (
	"testing"

	"selectivemt/internal/gen"
	"selectivemt/internal/liberty"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/place"
	"selectivemt/internal/sta"
	"selectivemt/internal/synth"
	"selectivemt/internal/tech"
)

var (
	laneLib  *liberty.Library
	laneProc *tech.Process
)

func laneLibrary(t *testing.T) *liberty.Library {
	t.Helper()
	if laneLib == nil {
		laneProc = tech.Default130()
		l, err := liberty.Generate(laneProc, liberty.DefaultBuildOptions(laneProc))
		if err != nil {
			t.Fatal(err)
		}
		laneLib = l
	}
	return laneLib
}

// laneFixture builds a lane engine over a partitioned timer on a small
// registered random cloud, clocked at slack× its minimum period, and
// returns it with a fresh analysis (one retime already absorbed).
func laneFixture(t *testing.T, partitions int, slack float64) (*laneEngine, *sta.Result) {
	t.Helper()
	l := laneLibrary(t)
	m := gen.NewModule("lanefix")
	in := m.InputBus("in", 8)
	regs := m.DFFBus(in)
	cloud := m.RandomLogic(regs, 220, 17)
	m.OutputBus("out", m.DFFBus(cloud))
	d, err := synth.Map(m, l, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := place.Place(d, place.DefaultOptions(laneProc.RowHeightUm, laneProc.SitePitchUm)); err != nil {
		t.Fatal(err)
	}
	cfg := sta.Config{
		ClockPeriodNs: 100,
		ClockPort:     "clk",
		InputSlewNs:   0.03,
		Extractor:     &parasitics.EstimateExtractor{Proc: laneProc},
		Partitions:    partitions,
		ShardJobs:     1,
	}
	pmin, err := sta.MinPeriod(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ClockPeriodNs = pmin * slack
	inc, err := sta.NewIncremental(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if inc.ShardCount() < 2 {
		t.Fatalf("fixture wanted a partitioned timer, got %d shards", inc.ShardCount())
	}
	opts := DefaultOptions()
	e := newLaneEngine(inc, NewFlavorProblem(d, liberty.FlavorHVT, liberty.FlavorLVT, opts), opts)
	timing, err := e.retime()
	if err != nil {
		t.Fatal(err)
	}
	return e, timing
}

func TestEntryAboveTotalOrder(t *testing.T) {
	mv := func(leak, delta, slack float64) Move {
		return Move{LeakSavedMW: leak, DeltaNs: delta, SlackNs: slack}
	}
	hi := laneEntry{m: mv(2, 1, 0.5), seq: 3}
	lo := laneEntry{m: mv(1, 1, 0.5), seq: 1}
	if !entryAbove(&hi, &lo) || entryAbove(&lo, &hi) {
		t.Fatal("higher priority must outrank")
	}
	slackier := laneEntry{m: mv(1, 1, 0.9), seq: 9}
	if !entryAbove(&slackier, &lo) {
		t.Fatal("equal priority must fall back to more slack")
	}
	twin := laneEntry{m: lo.m, seq: 7}
	if !entryAbove(&lo, &twin) || entryAbove(&twin, &lo) {
		t.Fatal("full ties must break on enumeration order")
	}
	if entryAbove(&lo, &lo) {
		t.Fatal("entryAbove must be irreflexive (strict order)")
	}
}

// TestLanePopOrder heapifies a shuffled lane and checks pops come out
// in the strict total order — the property that makes each lane's
// proposal sequence independent of how its heap was built.
func TestLanePopOrder(t *testing.T) {
	var l lane
	for i, leak := range []float64{0.3, 1.2, 0.3, 2.5, 0.9, 1.2, 0.1, 2.5} {
		l.entries = append(l.entries, laneEntry{
			m:   Move{LeakSavedMW: leak, DeltaNs: 0.5, SlackNs: float64(i % 3)},
			seq: int32(i),
		})
	}
	l.heapify()
	var prev *laneEntry
	for len(l.entries) > 0 {
		e := l.pop()
		if prev != nil && entryAbove(&e, prev) {
			t.Fatalf("pop order violated: %+v after %+v", e.m, prev.m)
		}
		cp := e
		prev = &cp
	}
}

func TestAdaptiveBatchBounds(t *testing.T) {
	e := &laneEngine{opts: Options{BatchSize: 8}, batch: 8, maxBatch: 50}
	for i := 0; i < 10; i++ {
		e.growBatch()
	}
	if e.batch != 50 {
		t.Fatalf("growth must cap at maxBatch: got %d", e.batch)
	}
	e.shrinkBatch()
	if e.batch != 12 {
		t.Fatalf("shrink is a /4 collapse: got %d", e.batch)
	}
	for i := 0; i < 5; i++ {
		e.shrinkBatch()
	}
	if e.batch != 8 {
		t.Fatalf("shrink must floor at BatchSize: got %d", e.batch)
	}
}

// TestLaneSteadyStateAllocFree is the PR 10 zero-alloc satellite: once
// the reuse buffers are warm, the sensitivity engine's score and
// commit-selection phases allocate nothing per run. (Apply itself is
// excluded: journaling a design change allocates by contract.)
func TestLaneSteadyStateAllocFree(t *testing.T) {
	e, timing := laneFixture(t, 4, 1.25)
	p := e.p.(*FlavorProblem)

	// Pre-size the boundary budget's buckets: clear() keeps capacity,
	// so charging any boundary-net subset later stays allocation-free.
	for _, n := range p.d.Nets() {
		if e.inc.BoundaryNet(n) {
			e.bound[n] = 0
		}
	}
	clear(e.bound)

	e.scoreLanes(timing) // warm the enumeration and lane buffers
	if n := testing.AllocsPerRun(20, func() { e.scoreLanes(timing) }); n > 0 {
		t.Errorf("score phase allocates %v/run in steady state, want 0", n)
	}

	// Commit selection: quota distribution, heap pops with the
	// fresh-slack guard, and boundary-budget admission.
	commitSelect := func() {
		e.collectActive()
		if len(e.active) == 0 {
			return
		}
		base, rem := e.batch/len(e.active), e.batch%len(e.active)
		for k := range e.active {
			q := base
			if k < rem {
				q++
			}
			e.lanes[e.active[k]].quota = q
		}
		for _, id := range e.active {
			e.propose(&e.lanes[id], timing)
		}
		clear(e.bound)
		for i := range e.lanes {
			for _, m := range e.lanes[i].prop {
				e.admit(m)
			}
		}
	}
	commitSelect() // warm proposal buffers
	if n := testing.AllocsPerRun(20, func() { commitSelect() }); n > 0 {
		t.Errorf("commit selection allocates %v/run in steady state, want 0", n)
	}
}

// TestLaneUnwindSelectionAllocFree drives the unwind half of the
// zero-alloc satellite: with the design over-committed into a real
// violation, selecting a revert batch (enumerate criticals, stable-sort
// worst-first, truncate) reuses its buffers completely.
func TestLaneUnwindSelectionAllocFree(t *testing.T) {
	e, timing := laneFixture(t, 3, 1.05)
	p := e.p.(*FlavorProblem)

	// Over-commit: swap everything to HVT regardless of slack so the
	// clock breaks and the critical set is non-trivial.
	for _, m := range p.Candidates(timing, nil) {
		if err := p.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	timing, err := e.retime()
	if err != nil {
		t.Fatal(err)
	}
	if timing.WNS >= e.opts.SlackMarginNs {
		t.Fatalf("fixture did not violate after over-commit: WNS %v", timing.WNS)
	}
	moves, err := e.selectReverts(timing) // warm rev buffer and variant cache
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatal("violating design produced no revert candidates")
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := e.selectReverts(timing); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("unwind selection allocates %v/run in steady state, want 0", n)
	}
}
