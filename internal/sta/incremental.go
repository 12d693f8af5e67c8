package sta

import (
	"errors"

	"selectivemt/internal/netlist"
)

// Incremental is a persistent timing graph over one design: it runs a full
// analysis once at construction and afterwards re-propagates only the
// dirty fanout cone of each edit (and required times back through the
// dirty fanin cone), instead of re-walking every net the way Analyze does.
// The propagation state lives in a flat CompiledGraph — dense int32 net
// IDs, slice-indexed arrivals/requireds/slews — drained by the same shard
// propagator Analyze uses, so the retime inner loops allocate nothing.
//
// It follows the design through its change journal (netlist.Design
// revisions). Cell swaps and placement moves are re-timed incrementally.
// Insertion batches (connect/disconnect, instance, net and port adds,
// buffer insertion, net-flag flips) patch the compiled graph in place
// (patch.go): new nets and instances get appended IDs, the named
// elements are rebound, levels move over the forward cone, the shards are
// laid again, and only the touched cones are re-timed. Batches that
// remove a net or an instance, and a lost journal (overflow,
// NoteBulkEdit, out-of-band surgery), recompile and re-analyze. Results
// are exact: after Update the Result is equal — field by field, bit by
// bit — to what a fresh Analyze of the current design would return; the
// property tests in incremental_test.go hold both to the map-based
// oracle.
//
// The Result returned by Update/Result is live: it reads the timer's
// current graph, so later updates show through it. Callers that need a
// frozen snapshot must run Analyze. An Incremental is not safe for
// concurrent use.
type Incremental struct {
	d   *netlist.Design
	cfg Config // normalized
	sg  *ShardedGraph
	res *Result
	rev uint64 // design revision res reflects

	// lastSvc records how the most recent Update was serviced, so
	// LastRetimeChanged knows whether the shards' changed lists describe
	// the whole delta (retime), nothing (noop) or are meaningless because
	// everything was recomputed (full rebuild).
	lastSvc serviceKind
	// touched is the retime seed scratch: the net IDs directly named by
	// the last journal batch (their RC was re-extracted even when their
	// timing state ended unchanged). Persisted so LastRetimeChanged can
	// report load changes alongside arrival/required changes.
	touched []int32
	// touchMark de-duplicates touched: touchMark[id] == touchEpoch marks
	// a net already collected in the current batch. It is indexed by
	// graph net ID and grows when a patch appends nets; marks left from
	// before a rebuild renumbered the IDs carry older epochs, so they read
	// as unmarked.
	touchMark  []uint32
	touchEpoch uint32
	// broken marks a graph a failed patch left half rebound: the next
	// Update recompiles.
	broken bool

	stats IncrementalStats
}

// serviceKind classifies how an Update call was satisfied.
type serviceKind int

const (
	svcFull   serviceKind = iota // full rebuild: everything changed
	svcNoop                      // clean journal: nothing changed
	svcRetime                    // incremental retime: changed lists valid
)

// IncrementalStats counts how the timer has serviced its updates.
type IncrementalStats struct {
	// FullBuilds counts compiles: construction, plus every rebuild after
	// a lost journal, a batch that removes a net or an instance, or a
	// batch the patch could not apply.
	FullBuilds        int
	NoopUpdates       int // Update calls with a clean journal
	SwapUpdates       int // incremental updates of swap/move batches
	StructuralUpdates int // insertion batches patched into the graph
	NetsRetimed       int // nets whose arrival was recomputed
}

// NewIncremental compiles the flat timing graph and runs the initial full
// analysis.
func NewIncremental(d *netlist.Design, cfg Config) (*Incremental, error) {
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	inc := &Incremental{d: d, cfg: cfg, res: &Result{Config: cfg, design: d}}
	if err := inc.rebuild(); err != nil {
		return nil, err
	}
	return inc, nil
}

// Result returns the current (live) analysis result.
func (inc *Incremental) Result() *Result { return inc.res }

// Design returns the design the timer follows.
func (inc *Incremental) Design() *netlist.Design { return inc.d }

// Stats returns the update counters.
func (inc *Incremental) Stats() IncrementalStats { return inc.stats }

// rebuild recompiles the graph and re-runs the full analysis.
func (inc *Incremental) rebuild() error {
	sg, err := newTimer(inc.d, inc.cfg)
	if err != nil {
		return err
	}
	sg.runFull()
	inc.setGraph(sg)
	inc.broken = false
	inc.lastSvc = svcFull
	inc.stats.FullBuilds++
	inc.publish()
	return nil
}

// setGraph installs a (re)compiled graph and points the live Result at
// its per-net state.
func (inc *Incremental) setGraph(sg *ShardedGraph) {
	inc.sg = sg
	inc.res.st = &sg.cg.netState
}

// publish stamps the live Result with the current revision and endpoint
// scan.
func (inc *Incremental) publish() {
	inc.rev = inc.d.Revision()
	inc.res.Revision = inc.rev
	inc.sg.cg.mirrorEndpoints(inc.res)
}

// ShardCount reports how many shards the timer propagates on: 1 unless
// Config.Partitions asked for more. Callers that schedule work per shard
// (the assignment lane engine) size their structures off this.
func (inc *Incremental) ShardCount() int { return len(inc.sg.shards) }

// Workers reports the timer's fan-out width: Config.ShardJobs (<= 0
// means GOMAXPROCS) capped at the shard count. Work that fans out per
// shard of this timer (the assignment lane engine) runs at this width,
// so one knob bounds a design's parallelism.
func (inc *Incremental) Workers() int { return inc.sg.workers() }

// ShardOf returns the shard that owns an instance's timing state — the
// owner of its output net, the same assignment buildSharded derived from
// the clustering. Sink-only instances report shard 0.
func (inc *Incremental) ShardOf(inst *netlist.Instance) int {
	if out := inst.OutputNet(); out != nil {
		if id, ok := inc.sg.cg.lookup(out); ok {
			return int(inc.sg.owner[id])
		}
	}
	return 0
}

// BoundaryNet reports whether a net is part of the interface graph — read
// across a partition cut, so concurrent decisions in different shards can
// share its slack. Always false on a one-shard timer.
func (inc *Incremental) BoundaryNet(n *netlist.Net) bool {
	id, ok := inc.sg.cg.lookup(n)
	return ok && inc.sg.bSlot[id] >= 0
}

// LastRetimeChanged reports the nets whose timing or parasitic state the
// most recent Update may have changed, calling fn once per net (a net
// can be reported more than once). It returns false when the last Update
// was serviced by a full rebuild — the caller must then assume every net
// changed. A clean-journal Update reports nothing and returns true.
// Incremental re-scorers (the sensitivity lane engine) use this to
// refresh only the candidates whose slack actually moved.
func (inc *Incremental) LastRetimeChanged(fn func(*netlist.Net)) bool {
	switch inc.lastSvc {
	case svcFull:
		return false
	case svcNoop:
		return true
	}
	nets := inc.sg.cg.nets
	for _, id := range inc.touched {
		fn(nets[id])
	}
	inc.sg.eachChanged(func(id int32) { fn(nets[id]) })
	return true
}

// LastRetimeSpan reports how many net-change records LastRetimeChanged
// would deliver (duplicates included) without iterating them, and
// whether the changed lists describe the delta at all — false means the
// last Update was a full rebuild and every net must be assumed changed.
// Callers weigh this against their design size to choose between
// per-net dirty marking and a flat everything-is-stale epoch bump.
func (inc *Incremental) LastRetimeSpan() (int, bool) {
	switch inc.lastSvc {
	case svcFull:
		return 0, false
	case svcNoop:
		return 0, true
	}
	return len(inc.touched) + inc.sg.changedCount(), true
}

// Update brings the result up to date with the design. A clean journal
// returns immediately; swap/move batches re-time their dirty cones on the
// compiled graph; insertion batches patch the graph first; removals and
// lost history fall back to a full re-analysis. The returned Result is
// inc.Result().
func (inc *Incremental) Update() (*Result, error) {
	delta, ok := inc.d.ChangesSince(inc.rev)
	structural, removal := false, false
	for _, ch := range delta {
		structural = structural || ch.Kind.Structural()
		removal = removal || ch.Kind == netlist.ChangeInstanceRemoved || ch.Kind == netlist.ChangeNetRemoved
	}
	if !ok || inc.broken || removal {
		return inc.rebuildResult() // removals renumber the graph
	}
	if len(delta) == 0 {
		inc.lastSvc = svcNoop
		inc.stats.NoopUpdates++
		return inc.res, nil
	}
	if structural {
		if err := inc.patch(delta); err != nil {
			inc.broken = true // half rebound: the next Update recompiles
			if errors.Is(err, errUnpatchable) {
				return inc.rebuildResult()
			}
			return nil, err // a combinational cycle or a failed clustering
		}
	} else {
		// Swap/move batch: connectivity is intact, but a replaced cell
		// carries new arc pointers — rebind the flattened arcs in place.
		inc.collectTouched(delta)
		cg := inc.sg.cg
		for _, ch := range delta {
			if ch.Kind == netlist.ChangeCellReplaced && ch.Inst != nil {
				if ci, ok := cg.combOf(ch.Inst); ok {
					cg.combArcs[ci] = cg.buildArcs(ch.Inst, cg.combArcs[ci])
				}
			}
		}
		inc.stats.SwapUpdates++
	}
	inc.retime()
	inc.lastSvc = svcRetime
	inc.publish()
	return inc.res, nil
}

// rebuildResult is Update's recompile path.
func (inc *Incremental) rebuildResult() (*Result, error) {
	if err := inc.rebuild(); err != nil {
		return nil, err
	}
	return inc.res, nil
}

// patch applies an insertion batch to the compiled graph and, since the
// net population changed, lays the shards (and, when partitioned, the
// clustering) over it again.
func (inc *Incremental) patch(delta []netlist.Change) error {
	cg := inc.sg.cg
	if err := cg.intern(delta); err != nil {
		return err
	}
	inc.collectTouched(delta)
	if err := cg.patch(delta, inc.touched); err != nil {
		return err
	}
	sg, err := buildSharded(cg, inc.cfg)
	if err != nil {
		return err
	}
	inc.setGraph(sg)
	inc.stats.StructuralUpdates++
	return nil
}

// collectTouched gathers the nets a journal batch invalidated into
// inc.touched: every net named by an entry plus every net currently
// connected to an instance named by an entry (a swapped cell changes its
// own arcs and, through its input pin caps, the RC of every fanin net; a
// moved one changes the RC of everything it touches). Nets that left the
// design are gone from the graph already.
func (inc *Incremental) collectTouched(delta []netlist.Change) {
	cg := inc.sg.cg
	if grow := len(cg.nets) - len(inc.touchMark); grow > 0 {
		inc.touchMark = append(inc.touchMark, make([]uint32, grow)...)
	}
	inc.touchEpoch++
	if inc.touchEpoch == 0 { // wrapped: old marks would read as current
		clear(inc.touchMark)
		inc.touchEpoch = 1
	}
	mark, epoch := inc.touchMark, inc.touchEpoch
	touched := inc.touched[:0]
	note := func(n *netlist.Net) {
		if id, ok := cg.lookup(n); ok && mark[id] != epoch {
			mark[id] = epoch
			touched = append(touched, id)
		}
	}
	for _, ch := range delta {
		if ch.Net != nil {
			note(ch.Net)
		}
		if ch.Inst != nil {
			// Pin-declaration order, not map order, so the retime seed
			// sequence is reproducible run to run.
			for k := range ch.Inst.Cell.Pins {
				if n := ch.Inst.NetAt(k); n != nil {
					note(n)
				}
			}
		}
	}
	inc.touched = touched // kept for LastRetimeChanged (and the buffer reused)
}

// retime re-times the cones of the touched nets: each is re-extracted and
// seeded into its owning shard's queues, so a batch confined to a few
// clusters activates only those shards (plus whatever the interface graph
// ripples into).
func (inc *Incremental) retime() {
	sg := inc.sg
	sg.resetAll()
	for _, id := range inc.touched {
		sg.seedRetime(id)
	}
	inc.stats.NetsRetimed += sg.propagate()
}
