package assign

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"selectivemt/internal/engine"
	"selectivemt/internal/netlist"
	"selectivemt/internal/sta"
)

// laneEngine is the sensitivity strategy's engine: one commit lane per
// cluster of the timer's lane view (sta.Incremental.ShardCount). An
// unpartitioned timer is one lane with no boundary nets, run inline.
//
// The engine is deterministic by construction at any worker count:
//
//   - Every lane owns the candidates whose instance lives in its
//     cluster and orders them in a max-heap under a strict total order
//     (priority, then slack, then enumeration sequence). Scoring,
//     heap maintenance and proposal selection touch only lane-local
//     state, so fanning lanes out over workers reorders nothing.
//   - Proposals apply serially in fixed global order — lane ID, then
//     the lane's priority order — under a boundary-slack budget that
//     keeps lanes from jointly overdrawing slack on a boundary net
//     they share (the same safety-scaled charge greedy levies per
//     output cone, restricted to nets a lane cut crosses; interior
//     moves are covered by the one-batch-stale guard plus the
//     post-pass unwind).
//   - Re-timing between batches is the timer's incremental update:
//     only the dirty cones of the batch's commits re-propagate, and
//     the change journal feeds lazy re-scoring — an entry is re-scored
//     at pop time iff a re-time actually moved its instance's timing
//     since the entry was scored.
//   - The batch size adapts: it grows geometrically while batches land
//     violation-free (cutting re-times, the dominant large-tier cost)
//     and collapses on a violation, so overshoot stays shallow.
type laneEngine struct {
	inc  *sta.Incremental
	p    Problem
	opts Options
	res  *Result

	lanes  []lane
	active []int32 // scratch: lanes with pending entries

	all []Move // candidate enumeration buffer, reused across passes
	rev []Move // revert enumeration buffer, reused across batches

	revSort movesBySlackAsc

	// The per-element tables below are indexed by Instance.ID or Net.ID
	// and grow on write, since Problem.Apply may add elements; a read
	// past the end is a zero.
	//
	// epoch counts re-times; dirty[inst] records the epoch whose
	// re-time last moved the instance's timing, allDirty the last epoch
	// whose update invalidated everything (full rebuild). An entry is
	// stale iff it was scored before either mark.
	epoch    uint32
	allDirty uint32
	dirty    []uint32

	// bound is the per-batch boundary-slack budget: safety-scaled delay
	// charged against every boundary net a committed move touches.
	// charged lists the nets charged in the current batch, so the reset
	// touches only them.
	bound   []float64
	charged []int32

	// vetoed counts how often an unwind reverted each instance's
	// commit. One revert is often transient — other reverts clear the
	// path and the retry sticks, so first offenders re-enter the next
	// pass. A second revert pins the instance for good: without that
	// the same marginal set commits and unwinds until MaxPasses —
	// measured as ~8 wasted pass/unwind cycles on the 100k tier.
	vetoed []uint8

	batch    int // adaptive commit batch, >= opts.BatchSize
	maxBatch int // growth cap: a quarter of the pass's candidates
	markCap  int // change-record span past which retime marks all-dirty
}

// lane is one cluster's commit lane. All mutable state is lane-local;
// parallel phases never touch another lane's fields.
type lane struct {
	entries []laneEntry // max-heap under entryAbove
	prop    []Move      // this batch's proposals, in pop order (reused)
	quota   int         // this batch's proposal allowance

	scoreLb  pprof.LabelSet // assign_phase=score, assign_shard=<id>
	commitLb pprof.LabelSet // assign_phase=commit, assign_shard=<id>
}

// laneEntry is one scored candidate in a lane's heap.
type laneEntry struct {
	m     Move
	seq   int32  // enumeration order: the deterministic tie-break
	epoch uint32 // the re-time epoch the scores were computed at
}

// entryAbove reports whether entry a outranks b: higher
// leakage-per-slack priority first, then more slack (greedy's order),
// then enumeration order — a strict total order, so each heap pops a
// unique sequence regardless of how it was built.
func entryAbove(a, b *laneEntry) bool {
	pa, pb := priority(a.m), priority(b.m)
	if pa != pb {
		return pa > pb
	}
	if a.m.SlackNs != b.m.SlackNs {
		return a.m.SlackNs > b.m.SlackNs
	}
	return a.seq < b.seq
}

func (l *lane) siftDown(i int) {
	n := len(l.entries)
	for {
		kid := 2*i + 1
		if kid >= n {
			return
		}
		if r := kid + 1; r < n && entryAbove(&l.entries[r], &l.entries[kid]) {
			kid = r
		}
		if !entryAbove(&l.entries[kid], &l.entries[i]) {
			return
		}
		l.entries[i], l.entries[kid] = l.entries[kid], l.entries[i]
		i = kid
	}
}

func (l *lane) heapify() {
	for i := len(l.entries)/2 - 1; i >= 0; i-- {
		l.siftDown(i)
	}
}

func (l *lane) pop() laneEntry {
	n := len(l.entries) - 1
	e := l.entries[0]
	l.entries[0] = l.entries[n]
	l.entries = l.entries[:n]
	l.siftDown(0)
	return e
}

// movesBySlackAsc is a concrete stable-sort order (worst slack first)
// so steady-state unwinds sort without the sort.SliceStable closure
// allocations.
type movesBySlackAsc struct{ moves []Move }

func (s *movesBySlackAsc) Len() int           { return len(s.moves) }
func (s *movesBySlackAsc) Less(i, j int) bool { return s.moves[i].SlackNs < s.moves[j].SlackNs }
func (s *movesBySlackAsc) Swap(i, j int)      { s.moves[i], s.moves[j] = s.moves[j], s.moves[i] }

// phaseLabels is the pprof label set for one assignment phase.
func phaseLabels(phase string) pprof.LabelSet {
	return pprof.Labels("assign_phase", phase)
}

func newLaneEngine(inc *sta.Incremental, p Problem, opts Options) *laneEngine {
	d := inc.Design()
	e := &laneEngine{
		inc:   inc,
		p:     p,
		opts:  opts,
		res:   &Result{Workers: inc.Workers()},
		lanes: make([]lane, inc.ShardCount()),
		dirty: make([]uint32, d.InstanceSlots()),
		bound: make([]float64, d.NetSlots()),
		batch: opts.BatchSize,
	}
	for i := range e.lanes {
		id := strconv.Itoa(i)
		e.lanes[i].scoreLb = pprof.Labels("assign_phase", "score", "assign_shard", id)
		e.lanes[i].commitLb = pprof.Labels("assign_phase", "commit", "assign_shard", id)
	}
	return e
}

// run alternates passes and unwinds: a fresh analysis below the margin
// unwinds, otherwise a pass commits. It stops when a pass commits
// nothing, an unwind reverts nothing or the pass budget runs out.
func (e *laneEngine) run() (*Result, error) {
	res := e.res
	for pass := 0; pass < e.opts.MaxPasses; pass++ {
		res.Passes = pass + 1
		timing, err := e.retime()
		if err != nil {
			return res, err
		}
		if timing.WNS < e.opts.SlackMarginNs {
			reverted, err := e.unwind(timing)
			if err != nil {
				return res, err
			}
			if reverted == 0 {
				break
			}
			continue
		}
		committed, err := e.pass(timing)
		if err != nil {
			return res, err
		}
		if committed == 0 {
			break
		}
	}
	// Final guard: never end with a setup violation an unwind could
	// have cleared. This pins the "never worse than greedy at equal
	// timing-cleanliness" property.
	timing, err := e.retime()
	if err != nil {
		return res, err
	}
	if timing.WNS < e.opts.SlackMarginNs {
		if _, err := e.unwind(timing); err != nil {
			return res, err
		}
	}
	res.Moved, res.Kept = e.p.Tally()
	return res, nil
}

// retime runs one incremental update, bumps the staleness epoch and
// marks the instances the change journal reports as moved. A full
// rebuild — no usable journal — marks everything stale instead.
func (e *laneEngine) retime() (*sta.Result, error) {
	start := time.Now()
	var timing *sta.Result
	var err error
	pprof.Do(context.Background(), phaseLabels("retime"), func(context.Context) {
		timing, err = e.inc.Update()
	})
	e.res.Phases.RetimeNs += time.Since(start).Nanoseconds()
	if err != nil {
		return nil, err
	}
	e.epoch++
	// A batch that moved most of the design makes per-net marking pure
	// overhead: marking everything stale is decision-identical (an
	// unchanged instance re-scores to the same value) and O(1).
	if span, exact := e.inc.LastRetimeSpan(); !exact ||
		(e.markCap > 0 && span > e.markCap) {
		e.allDirty = e.epoch
	} else {
		e.inc.LastRetimeChanged(e.markNet)
	}
	e.res.Timing = timing
	return timing, nil
}

// markNet records that a net's timing moved: the driver's output slack
// and every sink's input slew may have changed, so moves on any
// attached instance must re-score before their next proposal.
func (e *laneEngine) markNet(n *netlist.Net) {
	if drv := n.Driver.Inst; drv != nil {
		e.dirty = setID(e.dirty, drv.ID(), e.epoch)
	}
	for _, s := range n.Sinks {
		if s.Inst != nil {
			e.dirty = setID(e.dirty, s.Inst.ID(), e.epoch)
		}
	}
}

// staleEpoch returns the epoch an entry for inst must have been scored
// at (or after) to be trusted.
func (e *laneEngine) staleEpoch(inst *netlist.Instance) uint32 {
	return max(atID(e.dirty, inst.ID()), e.allDirty)
}

// atID reads entry id of a per-element table, zero past its end.
func atID[T any](t []T, id int32) T {
	if int(id) < len(t) {
		return t[id]
	}
	var zero T
	return zero
}

// setID stores v as entry id of a per-element table, growing it with
// zeros when the ID falls past its end.
func setID[T any](t []T, id int32, v T) []T {
	if n := int(id) + 1 - len(t); n > 0 {
		t = append(t, make([]T, n)...)
	}
	t[id] = v
	return t
}

// pass runs one full lane pass: score and bucket every candidate once,
// then drain the lanes batch by batch until no entries remain. A WNS
// dip does not stop the drain — stale entries re-score against the dip
// and fail the fresh-slack guard — it only collapses the adaptive
// batch so overshoot stays shallow.
func (e *laneEngine) pass(timing *sta.Result) (int, error) {
	e.score(timing)
	committed := 0
	for e.pending() > 0 {
		applied, err := e.commitBatch(timing)
		committed += applied
		if err != nil {
			e.res.Commits += committed
			return committed, err
		}
		if applied == 0 {
			continue // batch's entries all dropped; nothing to re-time
		}
		t, err := e.retime()
		if err != nil {
			e.res.Commits += committed
			return committed, err
		}
		timing = t
		if timing.WNS >= e.opts.SlackMarginNs {
			e.growBatch()
		} else {
			e.shrinkBatch()
		}
	}
	e.res.Commits += committed
	return committed, nil
}

// score enumerates the pass's candidates once, buckets them into their
// instance's lane and heap-orders each lane (fanned out over the
// workers; heap construction is lane-local so order of lanes is
// irrelevant). It also sets the pass's adaptive-batch ceiling.
func (e *laneEngine) score(timing *sta.Result) {
	start := time.Now()
	pprof.Do(context.Background(), phaseLabels("score"), func(context.Context) {
		e.scoreLanes(timing)
	})
	e.res.Phases.ScoreNs += time.Since(start).Nanoseconds()
}

func (e *laneEngine) scoreLanes(timing *sta.Result) {
	all := e.p.Candidates(timing, e.all[:0])
	e.all = all
	for i := range e.lanes {
		e.lanes[i].entries = e.lanes[i].entries[:0]
	}
	for i := range all {
		if atID(e.vetoed, all[i].Inst.ID()) >= 2 {
			continue
		}
		l := &e.lanes[e.inc.ShardOf(all[i].Inst)]
		l.entries = append(l.entries, laneEntry{m: all[i], seq: int32(i), epoch: e.epoch})
	}
	// The one-worker path stays closure-free: a literal handed to fanOut
	// escapes (heap-allocates) even when it ends up running inline.
	if e.collectActive() {
		e.fanOut(len(e.active), func(k int) {
			l := &e.lanes[e.active[k]]
			pprof.Do(context.Background(), l.scoreLb, func(context.Context) { l.heapify() })
		})
	} else {
		for _, id := range e.active {
			e.lanes[id].heapify()
		}
	}
	// Cap growth at a quarter of the pass's population: one oversized
	// batch must not consume the whole pass unchecked.
	e.maxBatch = len(all) / 4
	if e.maxBatch < e.opts.BatchSize {
		e.maxBatch = e.opts.BatchSize
	}
	if e.batch > e.maxBatch {
		e.batch = e.maxBatch
	}
	// Past this many change records, per-net dirty marking costs more
	// than the rescores it would save; retime flips to the flat
	// everything-is-stale epoch instead.
	e.markCap = len(all) / 4
}

// pending counts entries left across all lanes.
func (e *laneEngine) pending() int {
	n := 0
	for i := range e.lanes {
		n += len(e.lanes[i].entries)
	}
	return n
}

// collectActive refreshes the active-lane index and reports whether
// the engine will actually fan out (more than one active lane and more
// than one worker).
func (e *laneEngine) collectActive() bool {
	active := e.active[:0]
	for i := range e.lanes {
		if len(e.lanes[i].entries) > 0 {
			active = append(active, int32(i))
		}
	}
	e.active = active
	return e.res.Workers > 1 && len(active) > 1
}

// fanOut runs n lane tasks on engine.Map at the timer's width. Callers
// take it only when collectActive reports a fan-out, and otherwise run
// their tasks inline with no closure, so the one-worker path allocates
// nothing. Tasks must be lane-local; completion order is irrelevant.
// Lane tasks return no errors, so a Map error is a task panic: it panics
// again here rather than commit from half-scored lanes.
func (e *laneEngine) fanOut(n int, task func(k int)) {
	_, err := engine.Map(context.Background(), n, e.res.Workers, func(_ context.Context, k int) (struct{}, error) {
		task(k)
		return struct{}{}, nil
	})
	if err != nil {
		panic(fmt.Sprintf("assign: lane fan-out: %v", err))
	}
}

// commitBatch drains up to one adaptive batch: lanes propose their
// best fresh entries concurrently, then proposals apply serially in
// fixed global order (lane ID, then lane priority order) under the
// boundary-slack budget. Returns the number of moves applied.
func (e *laneEngine) commitBatch(timing *sta.Result) (int, error) {
	start := time.Now()
	applied := 0
	var err error
	pprof.Do(context.Background(), phaseLabels("commit"), func(context.Context) {
		applied, err = e.commitLanes(timing)
	})
	e.res.Phases.CommitNs += time.Since(start).Nanoseconds()
	return applied, err
}

func (e *laneEngine) commitLanes(timing *sta.Result) (int, error) {
	parallel := e.collectActive()
	if len(e.active) == 0 {
		return 0, nil
	}
	// Distribute the batch over active lanes, remainder to the lowest
	// lane IDs — deterministic and independent of execution order.
	base, rem := e.batch/len(e.active), e.batch%len(e.active)
	for k := range e.active {
		q := base
		if k < rem {
			q++
		}
		e.lanes[e.active[k]].quota = q
	}
	if parallel {
		e.fanOut(len(e.active), func(k int) {
			l := &e.lanes[e.active[k]]
			pprof.Do(context.Background(), l.commitLb, func(context.Context) { e.propose(l, timing) })
		})
	} else {
		for _, id := range e.active {
			e.propose(&e.lanes[id], timing)
		}
	}
	// Serial apply in lane-ID order under the boundary budget (active
	// is built ascending, so this order is fixed at any worker count).
	// The budget resets each batch: the re-time that follows refreshes
	// every boundary net's slack. Only this batch's proposers apply —
	// a drained lane's prop buffer holds its previous batch, which
	// already committed.
	e.resetBound()
	applied := 0
	for _, id := range e.active {
		for _, m := range e.lanes[id].prop {
			if !e.admit(m) {
				continue
			}
			if err := e.p.Apply(m); err != nil {
				return applied, err
			}
			applied++
		}
	}
	return applied, nil
}

// propose pops a lane's best entries up to its quota. Stale entries
// (their instance's timing moved since scoring) re-score in place and
// re-seat before competing again; fresh entries either pass the
// fresh-slack guard and become proposals, or drop for the pass.
func (e *laneEngine) propose(l *lane, timing *sta.Result) {
	l.prop = l.prop[:0]
	for len(l.entries) > 0 && len(l.prop) < l.quota {
		root := &l.entries[0]
		if root.epoch < e.staleEpoch(root.m.Inst) {
			e.p.Rescore(&root.m, timing)
			root.epoch = e.epoch
			l.siftDown(0)
			continue
		}
		m := l.pop().m
		// Fresh slack against the raw delay estimate. Greedy needs its
		// safety factor because every move in a pass reads pass-start
		// slack; here staleness is at most one batch and the unwind
		// catches overshoot, so padding the guard as well would freeze
		// marginal cells greedy profitably swaps.
		if m.SlackNs-m.DeltaNs <= e.opts.SlackMarginNs {
			continue
		}
		l.prop = append(l.prop, m)
	}
}

// resetBound zeroes the boundary budget of the nets the last batch
// charged.
func (e *laneEngine) resetBound() {
	for _, id := range e.charged {
		e.bound[id] = 0
	}
	e.charged = e.charged[:0]
}

// admit charges a proposal against the batch's boundary-slack budget.
// Interior moves (touching no boundary net) pass free — their
// interactions stay inside one lane, covered by the one-batch-stale
// guard and the post-pass unwind. A move touching boundary nets must
// fit under the worst already-charged budget of those nets, then
// charges its safety-scaled delay to each: two lanes sharing a boundary
// net cannot see each other's commits until the next re-time, so the
// batch pre-books the slack it spends.
func (e *laneEngine) admit(m Move) bool {
	used := 0.0
	boundary := false
	for k := range m.Inst.Cell.Pins {
		n := m.Inst.NetAt(k)
		if n == nil || !e.inc.BoundaryNet(n) {
			continue
		}
		boundary = true
		if u := atID(e.bound, n.ID()); u > used {
			used = u
		}
	}
	if !boundary {
		return true
	}
	if m.SlackNs-used-e.opts.SafetyFactor*m.DeltaNs <= e.opts.SlackMarginNs {
		return false
	}
	charge := e.opts.SafetyFactor * m.DeltaNs
	if charge <= 0 {
		return true // a free move books nothing
	}
	for k := range m.Inst.Cell.Pins {
		n := m.Inst.NetAt(k)
		if n == nil || !e.inc.BoundaryNet(n) {
			continue
		}
		u := atID(e.bound, n.ID())
		if u == 0 { // charges are positive: first charge this batch
			e.charged = append(e.charged, n.ID())
		}
		e.bound = setID(e.bound, n.ID(), u+charge)
	}
	return true
}

func (e *laneEngine) growBatch() {
	b := e.batch * 4
	if b > e.maxBatch {
		b = e.maxBatch
	}
	e.batch = b
}

func (e *laneEngine) shrinkBatch() {
	b := e.batch / 4
	if b < e.opts.BatchSize {
		b = e.opts.BatchSize
	}
	e.batch = b
}

// unwind reverts worst slack first, one BatchSize batch at a time,
// re-timing in between, until the margin holds or nothing revertable
// remains, and returns the number reverted. Reverting always resets
// the adaptive batch — a violation just cost re-times, so the next
// growth run starts conservative again.
func (e *laneEngine) unwind(timing *sta.Result) (int, error) {
	total := 0
	for timing.WNS < e.opts.SlackMarginNs {
		reverted, err := e.revertWorst(timing)
		if err != nil {
			return total, err
		}
		if reverted == 0 {
			break
		}
		total += reverted
		timing, err = e.retime()
		if err != nil {
			return total, err
		}
	}
	e.shrinkBatch()
	return total, nil
}

// selectReverts enumerates and orders one unwind batch: revert
// candidates worst slack first (stable, so ties keep the problem's
// critical order), truncated to BatchSize.
// (Bigger unwind chunks measure as a wash: they revert moves a re-time
// would have cleared, and the re-commit churn eats the saved re-times.)
func (e *laneEngine) selectReverts(timing *sta.Result) ([]Move, error) {
	moves, err := e.p.RevertCandidates(timing, e.rev[:0])
	e.rev = moves // keep the enumeration's capacity for reuse
	if err != nil {
		return nil, err
	}
	e.revSort.moves = moves
	sort.Stable(&e.revSort)
	e.revSort.moves = nil
	if len(moves) > e.opts.BatchSize {
		moves = moves[:e.opts.BatchSize]
	}
	return moves, nil
}

func (e *laneEngine) revertWorst(timing *sta.Result) (int, error) {
	start := time.Now()
	var moves []Move
	var err error
	pprof.Do(context.Background(), phaseLabels("unwind"), func(context.Context) {
		moves, err = e.selectReverts(timing)
	})
	if err != nil {
		e.res.Phases.UnwindNs += time.Since(start).Nanoseconds()
		return 0, err
	}
	reverted := 0
	for _, m := range moves {
		if aerr := e.p.Apply(m); aerr != nil {
			e.res.Phases.UnwindNs += time.Since(start).Nanoseconds()
			e.res.Reverts += reverted
			return reverted, aerr
		}
		e.vetoed = setID(e.vetoed, m.Inst.ID(), atID(e.vetoed, m.Inst.ID())+1)
		reverted++
	}
	e.res.Phases.UnwindNs += time.Since(start).Nanoseconds()
	e.res.Reverts += reverted
	return reverted, nil
}
