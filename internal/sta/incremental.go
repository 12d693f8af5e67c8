package sta

import (
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
// revisions): cell swaps and placement moves are re-timed incrementally,
// structural edits (connect/disconnect, instance or net add/remove,
// buffer insertion) recompile the flat graph (re-interning IDs and
// levelization) but import the previous timing state and still only
// re-time the touched cones, and a lost journal (overflow, NoteBulkEdit,
// out-of-band surgery) falls back to a full re-analysis. Results are
// exact: after Update the Result is equal — field by field, bit by bit —
// to what a fresh Analyze of the current design would return; the
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
	FullBuilds        int // construction + journal-lost rebuilds
	NoopUpdates       int // Update calls with a clean journal
	SwapUpdates       int // incremental updates of swap/move batches
	StructuralUpdates int // incremental updates that recompiled the graph
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

// ShardOf returns the shard that owns an instance's timing state — the
// owner of its output net, the same assignment buildSharded derived from
// the clustering. Sink-only instances report shard 0.
func (inc *Incremental) ShardOf(inst *netlist.Instance) int {
	if out := inst.OutputNet(); out != nil {
		if id, ok := inc.sg.cg.netID[out]; ok {
			return int(inc.sg.owner[id])
		}
	}
	return 0
}

// BoundaryNet reports whether a net is part of the interface graph — read
// across a partition cut, so concurrent decisions in different shards can
// share its slack. Always false on a one-shard timer.
func (inc *Incremental) BoundaryNet(n *netlist.Net) bool {
	id, ok := inc.sg.cg.netID[n]
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
// compiled graph; structural batches recompile the graph (importing the
// untouched timing state) first; lost history falls back to a full
// re-analysis. The returned Result is inc.Result().
func (inc *Incremental) Update() (*Result, error) {
	delta, ok := inc.d.ChangesSince(inc.rev)
	if !ok {
		if err := inc.rebuild(); err != nil {
			return nil, err
		}
		return inc.res, nil
	}
	if len(delta) == 0 {
		inc.lastSvc = svcNoop
		inc.stats.NoopUpdates++
		return inc.res, nil
	}
	structural := false
	for _, ch := range delta {
		if ch.Kind.Structural() {
			structural = true
			break
		}
	}
	if structural {
		cg, err := compile(inc.d, inc.cfg)
		if err != nil {
			return nil, err // e.g. a combinational cycle was introduced
		}
		cg.importFrom(inc.sg.cg)
		// The net/instance population changed: lay the shards (and, when
		// partitioned, the clustering) over the new graph.
		sg, err := buildSharded(cg, inc.cfg)
		if err != nil {
			return nil, err
		}
		inc.setGraph(sg)
		inc.stats.StructuralUpdates++
	} else {
		// Swap/move batch: connectivity is intact, but a replaced cell
		// carries new arc pointers — rebind the flattened arcs in place.
		cg := inc.sg.cg
		for _, ch := range delta {
			if ch.Kind == netlist.ChangeCellReplaced && ch.Inst != nil {
				if ci, ok := cg.combIdx[ch.Inst]; ok {
					cg.combArcs[ci] = cg.buildArcs(ch.Inst, cg.combArcs[ci])
				}
			}
		}
		inc.stats.SwapUpdates++
	}
	inc.retime(delta)
	inc.lastSvc = svcRetime
	inc.publish()
	return inc.res, nil
}

// retime re-times the cones a journal batch invalidated: every net named
// by an entry plus every net currently connected to an instance named by
// an entry (a swapped cell changes its own arcs and, through its input pin
// caps, the RC of every fanin net; a moved one changes the RC of
// everything it touches). Nets that left the design are gone from the
// graph already; live touched nets are re-extracted and seeded into their
// owning shards' queues, so a batch confined to a few clusters activates
// only those shards (plus whatever the interface graph ripples into).
func (inc *Incremental) retime(delta []netlist.Change) {
	sg := inc.sg
	sg.resetAll()
	seen := make(map[int32]bool, len(delta))
	touched := inc.touched[:0]
	note := func(n *netlist.Net) {
		if id, ok := sg.cg.netID[n]; ok && !seen[id] {
			seen[id] = true
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
			for _, p := range ch.Inst.Cell.Pins {
				if n := ch.Inst.Conns[p.Name]; n != nil {
					note(n)
				}
			}
		}
	}
	inc.touched = touched // keep for LastRetimeChanged (and reuse the buffer)
	for _, id := range touched {
		sg.seedRetime(id)
	}
	inc.stats.NetsRetimed += sg.propagate()
}
