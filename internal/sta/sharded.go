// The propagator. A ShardedGraph drains arrival and required-time waves
// over one CompiledGraph, and it is the only code that does: full
// analysis, the compile cache's refresh and every incremental retime run
// through it. Every net is owned by one shard, each shard drains its own
// per-level dirty buckets, and the only cross-shard state is a small
// interface graph — snapshot arrays of the boundary nets' arrival and
// required budgets, refreshed at round barriers.
//
// By default (Config.Partitions <= 1) there is one shard that owns every
// net: no clustering, an empty boundary, and one round per direction.
// Partitions > 1 only sets the shard count: the design is clustered
// (internal/partition), a net goes to the shard of its driving instance,
// and rounds iterate to a fixed point — a shard that changes a boundary
// net posts the cross-shard consumers to its outbox, the barrier
// distributes outboxes into the owning shards' queues, and propagation
// ends when every queue drains with no new posts.
//
// Bit-exactness at any shard and worker count falls out of the protocol,
// not of scheduling luck. Within a round each shard reads its own nets
// live and every foreign net through the barrier snapshot, so a round's
// outcome is independent of how shard drains interleave; the barrier
// replays outboxes in shard-ID order; and the per-net values are pure
// functions of their fanins on a DAG, so the iteration's unique fixed
// point is the one-shard state. The endpoint scan (WNS/TNS/hold — the one
// order-dependent float accumulation) stays serial in global design
// order. The property tests hold every result to Float64bits equality
// with the map-based oracle in legacy_test.go, at one shard and under
// randomized cuts and worker counts.
//
// Writes never race: a net's arrival/required state is written only by
// its owner; a comb arc's NLDM memo is written only by the output's owner
// during forward rounds and only by the fanin's owner during backward
// rounds, and the two phases are barrier-separated.
package sta

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"selectivemt/internal/netlist"
	"selectivemt/internal/partition"
)

// shard is one partition's private propagation state. Only the owning
// drain (one goroutine per shard per round) touches it.
type shard struct {
	id    int32
	label string // pprof label value, precomputed ("shard-7")

	nets []int32 // owned net IDs, ascending

	// Per-level dirty buckets, sized from the level histogram of the
	// owned nets (the membership marks are shared, see
	// ShardedGraph.arrMark).
	arrB [][]int32
	reqB [][]int32

	// Cross-shard posts gathered during a round, distributed at the
	// barrier: nets to enqueue in other shards' queues.
	outArr []int32
	outReq []int32

	// Nets whose arrival or required time the last propagate changed,
	// and how many arrivals it recomputed.
	arrChanged []int32
	reqChanged []int32
	retimed    int

	// Per-shard Elmore scratch so full extraction can fan out.
	elmoreDelay, elmoreDown []float64
}

// ShardedGraph is the propagating face of one CompiledGraph.
type ShardedGraph struct {
	cg     *CompiledGraph
	shards []shard
	owner  []int32 // per net: owning shard

	// Interface graph: the boundary nets (read across shards) and the
	// snapshot of their timing state taken at each round barrier.
	boundary  []int32
	bSlot     []int32 // per net: boundary slot, -1 when interior
	ifArrMax  []float64
	ifArrMin  []float64
	ifSlewMax []float64
	ifReqMax  []float64
	ifHasArr  []bool
	ifHasReq  []bool

	// Queue membership marks, shared across shards (a net is only ever
	// pushed into its owner's buckets, so mark[id] has a single writer
	// per phase). Epochs are bumped by the coordinator at barriers.
	arrMark  []uint32
	reqMark  []uint32
	arrEpoch uint32
	reqEpoch uint32

	active []int32 // scratch: shards with pending work this round
	rounds int     // rounds of the last propagate, both directions (stats)
}

// newTimer compiles the design and lays the shards over it.
func newTimer(d *netlist.Design, cfg Config) (*ShardedGraph, error) {
	cg, err := compile(d, cfg)
	if err != nil {
		return nil, err
	}
	return buildSharded(cg, cfg)
}

// buildSharded assembles the shard structures over a compiled graph. At
// Partitions <= 1 that is a single shard owning every net; above it the
// design is clustered into about that many shards. The unexported
// cfg.shardAssign hook lets property tests impose arbitrary — including
// adversarially random — cuts.
func buildSharded(cg *CompiledGraph, cfg Config) (*ShardedGraph, error) {
	of, count := cfg.shardAssign, cfg.shardCount
	if of == nil {
		count = 1
		if cfg.Partitions > 1 {
			cl, err := partition.Cluster(cg.d, partition.Options{Count: cfg.Partitions})
			if err != nil {
				return nil, fmt.Errorf("sta: partitioning: %w", err)
			}
			of, count = cl.ShardOf, cl.Count
		}
	}
	count = max(count, 1)
	sg := &ShardedGraph{cg: cg}
	nn := len(cg.nets)

	// Net ownership: the driving instance's cluster; port-driven and
	// undriven nets co-locate with their first instance sink.
	sg.owner = make([]int32, nn)
	if of != nil {
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
			sg.owner[i] = k
		}
	}

	// Every per-shard list is carved from one slab at a capacity read off
	// the (shard, level) histogram: a net enters its owner's bucket at its
	// level at most once per epoch, so the buckets never grow.
	levels := int(cg.maxLevel) + 1
	hist := make([]int32, count*levels)
	for id := 0; id < nn; id++ {
		hist[int(sg.owner[id])*levels+int(cg.level[id])]++
	}
	arrHeads := make([][]int32, count*levels)
	reqHeads := make([][]int32, count*levels)
	slab := make([]int32, 5*nn) // nets, two bucket sets, two changed lists
	netsS, arrS, reqS, arrC, reqC := slab[:nn], slab[nn:2*nn], slab[2*nn:3*nn], slab[3*nn:4*nn], slab[4*nn:]
	sg.shards = make([]shard, count)
	off := 0
	for si := range sg.shards {
		s := &sg.shards[si]
		s.id = int32(si)
		s.label = fmt.Sprintf("shard-%d", si)
		s.arrB = arrHeads[si*levels : (si+1)*levels]
		s.reqB = reqHeads[si*levels : (si+1)*levels]
		start := off
		for l := 0; l < levels; l++ {
			c := int(hist[si*levels+l])
			s.arrB[l] = arrS[off : off : off+c]
			s.reqB[l] = reqS[off : off : off+c]
			off += c
		}
		s.nets = netsS[start:start:off]
		s.arrChanged = arrC[start:start:off]
		s.reqChanged = reqC[start:start:off]
	}
	for id := int32(0); id < int32(nn); id++ {
		s := &sg.shards[sg.owner[id]]
		s.nets = append(s.nets, id)
	}

	// Boundary set, from the swap-stable consumer CSR: an arc crossing
	// shards makes its fanin net readable by the output's owner
	// (forward) and its output net readable by the fanin's owner
	// (backward required budgets).
	sg.bSlot = make([]int32, nn)
	for i := range sg.bSlot {
		sg.bSlot[i] = -1
	}
	mark := func(id int32) {
		if sg.bSlot[id] < 0 {
			sg.bSlot[id] = int32(len(sg.boundary))
			sg.boundary = append(sg.boundary, id)
		}
	}
	for id := int32(0); id < int32(nn); id++ {
		for _, c := range cg.consumers(id) {
			if c.kind != rcComb {
				continue
			}
			out := cg.combOut[c.idx]
			if sg.owner[out] != sg.owner[id] {
				mark(id)
				mark(out)
			}
		}
	}
	nb := len(sg.boundary)
	sg.ifArrMax = make([]float64, nb)
	sg.ifArrMin = make([]float64, nb)
	sg.ifSlewMax = make([]float64, nb)
	sg.ifReqMax = make([]float64, nb)
	sg.ifHasArr = make([]bool, nb)
	sg.ifHasReq = make([]bool, nb)

	sg.arrMark = make([]uint32, nn)
	sg.reqMark = make([]uint32, nn)
	sg.active = make([]int32, 0, count)
	return sg, nil
}

// Shards reports the shard count; Boundary the interface-graph size;
// Rounds the rounds of the last propagate, both directions.
func (sg *ShardedGraph) Shards() int   { return len(sg.shards) }
func (sg *ShardedGraph) Boundary() int { return len(sg.boundary) }
func (sg *ShardedGraph) Rounds() int   { return sg.rounds }

// workers resolves the effective shard fan-out width.
func (sg *ShardedGraph) workers() int {
	w := sg.cg.cfg.ShardJobs
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(sg.shards) {
		w = len(sg.shards)
	}
	return w
}

// bump* advance a queue epoch, clearing the marks on wraparound (when
// they would be ambiguous).
func (sg *ShardedGraph) bumpArr() {
	sg.arrEpoch++
	if sg.arrEpoch == 0 {
		for i := range sg.arrMark {
			sg.arrMark[i] = 0
		}
		sg.arrEpoch = 1
	}
}

func (sg *ShardedGraph) bumpReq() {
	sg.reqEpoch++
	if sg.reqEpoch == 0 {
		for i := range sg.reqMark {
			sg.reqMark[i] = 0
		}
		sg.reqEpoch = 1
	}
}

// resetAll clears every queue, outbox and changed list and starts fresh
// epochs — the top of a retime or repropagate.
func (sg *ShardedGraph) resetAll() {
	sg.bumpArr()
	sg.bumpReq()
	for si := range sg.shards {
		s := &sg.shards[si]
		for l := range s.arrB {
			s.arrB[l] = s.arrB[l][:0]
			s.reqB[l] = s.reqB[l][:0]
		}
		s.outArr = s.outArr[:0]
		s.outReq = s.outReq[:0]
		s.arrChanged = s.arrChanged[:0]
		s.reqChanged = s.reqChanged[:0]
	}
	sg.rounds = 0
}

// pushArr/pushReq enqueue a net into its owner's buckets. During a round
// only the owner pushes its own nets; at barriers only the coordinator
// pushes — so the shared marks never race.
func (sg *ShardedGraph) pushArr(s *shard, id int32) {
	if sg.arrMark[id] == sg.arrEpoch {
		return
	}
	sg.arrMark[id] = sg.arrEpoch
	s.arrB[sg.cg.level[id]] = append(s.arrB[sg.cg.level[id]], id)
}

func (sg *ShardedGraph) pushReq(s *shard, id int32) {
	if sg.reqMark[id] == sg.reqEpoch {
		return
	}
	sg.reqMark[id] = sg.reqEpoch
	s.reqB[sg.cg.level[id]] = append(s.reqB[sg.cg.level[id]], id)
}

// snapshotArr/snapshotReq copy the boundary nets' committed state into
// the interface arrays — the only values a shard may read across the cut
// during the following round.
func (sg *ShardedGraph) snapshotArr() {
	cg := sg.cg
	for i, id := range sg.boundary {
		sg.ifArrMax[i] = cg.arrMax[id]
		sg.ifArrMin[i] = cg.arrMin[id]
		sg.ifSlewMax[i] = cg.slewMax[id]
		sg.ifHasArr[i] = cg.hasArr[id]
	}
}

func (sg *ShardedGraph) snapshotReq() {
	cg := sg.cg
	for i, id := range sg.boundary {
		sg.ifReqMax[i] = cg.reqMax[id]
		sg.ifHasReq[i] = cg.hasReq[id]
	}
}

// collectActive gathers the shards with pending work into sg.active.
func (sg *ShardedGraph) collectActive(arr bool) {
	sg.active = sg.active[:0]
	for si := range sg.shards {
		s := &sg.shards[si]
		b := s.reqB
		if arr {
			b = s.arrB
		}
		for l := range b {
			if len(b[l]) > 0 {
				sg.active = append(sg.active, int32(si))
				break
			}
		}
	}
}

// Shard drain phases (pprof label values for the parallel path).
const (
	phaseArrival = iota
	phaseRequired
	phaseExtract
)

var phaseNames = [...]string{"arrival", "required", "extract"}

// drain runs one phase's work on one shard.
func (sg *ShardedGraph) drain(phase int, s *shard) {
	switch phase {
	case phaseArrival:
		sg.drainArrival(s)
	case phaseRequired:
		sg.drainRequired(s)
	case phaseExtract:
		sg.drainExtract(s)
	}
}

// runActive drains every active shard, serially at one worker (the
// zero-allocation path the AllocsPerRun guards pin — no closures, no
// goroutines) or fanned out across workers — through cfg.ShardRun (the
// flow engine's pool, wired by internal/core) when set, else an internal
// worker group. Parallel tasks carry pprof labels so -cpuprofile output
// attributes time per shard and phase.
func (sg *ShardedGraph) runActive(phase, workers int) {
	n := len(sg.active)
	if workers <= 1 || n <= 1 {
		for _, si := range sg.active {
			sg.drain(phase, &sg.shards[si])
		}
		return
	}
	task := func(i int) {
		s := &sg.shards[sg.active[i]]
		pprof.Do(context.Background(),
			pprof.Labels("sta_phase", phaseNames[phase], "sta_shard", s.label),
			func(context.Context) { sg.drain(phase, s) })
	}
	if run := sg.cg.cfg.ShardRun; run != nil {
		run(n, workers, task)
		return
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				task(i)
			}
		}()
	}
	wg.Wait()
}

// drainExtract re-extracts every net a shard owns, with the shard's own
// Elmore scratch.
func (sg *ShardedGraph) drainExtract(s *shard) {
	for _, id := range s.nets {
		sg.cg.extractWith(id, &s.elmoreDelay, &s.elmoreDown)
	}
}

// combWindow computes a combinational output's arrival window and worst
// slew from its fanin state, ok=false when no fanin is constrained.
// Fanins owned by sid read live state, foreign fanins read the barrier
// snapshot.
func (sg *ShardedGraph) combWindow(ci, sid int32) (amax, amin, smax float64, ok bool) {
	cg := sg.cg
	load := cg.totalCap[cg.combOut[ci]]
	amax = math.Inf(-1)
	amin = math.Inf(1)
	smax = 0.0
	arcs := cg.combArcs[ci]
	for i := range arcs {
		a := &arcs[i]
		var has bool
		var am, an, sl float64
		if sg.owner[a.in] == sid {
			has, am, an, sl = cg.hasArr[a.in], cg.arrMax[a.in], cg.arrMin[a.in], cg.slewMax[a.in]
		} else {
			slot := sg.bSlot[a.in]
			has, am, an, sl = sg.ifHasArr[slot], sg.ifArrMax[slot], sg.ifArrMin[slot], sg.ifSlewMax[slot]
		}
		if !has {
			continue
		}
		wire := cg.wireD(a.in, a.sinkPos)
		dm, sm := a.eval(sl, load)
		amax = math.Max(amax, am+wire+dm)
		amin = math.Min(amin, an+wire+dm)
		smax = math.Max(smax, sm)
	}
	if math.IsInf(amax, -1) {
		return 0, 0, 0, false
	}
	return amax, amin, smax, true
}

// recomputeArrival redoes one net's arrival window from its driver kind
// and reports whether presence or value changed.
func (sg *ShardedGraph) recomputeArrival(id, sid int32) bool {
	cg := sg.cg
	var amax, amin, smax float64
	present := false
	switch cg.drvKind[id] {
	case drvPort:
		amax, amin, smax = cg.cfg.InputDelayNs, cg.cfg.InputDelayNs, cg.cfg.InputSlewNs
		present = true
	case drvSeq:
		si := &cg.seqs[cg.drvIdx[id]]
		arr, slew := cg.seqWindow(si)
		amax, amin, smax = arr, arr, slew
		present = true
	case drvComb:
		amax, amin, smax, present = sg.combWindow(cg.drvIdx[id], sid)
	}
	if present == cg.hasArr[id] && (!present ||
		(cg.arrMax[id] == amax && cg.arrMin[id] == amin && cg.slewMax[id] == smax)) {
		return false
	}
	if present {
		cg.setArr(id, amax, amin, smax)
	} else {
		cg.clearArr(id)
	}
	return true
}

// recomputeRequired redoes one net's required time from its endpoint and
// consumer candidates and reports whether it changed; foreign consumer
// outputs read the required snapshot. Arc memos stay single-writer: only
// arcs with a.in == id are evaluated, and id's owner runs this.
func (sg *ShardedGraph) recomputeRequired(id, sid int32) bool {
	cg := sg.cg
	req := math.Inf(1)
	present := false
	for _, c := range cg.consumers(id) {
		switch c.kind {
		case rcOutPort:
			if r := cg.cfg.outputRequired(); r < req {
				req = r
			}
			present = true
		case rcFlopD:
			if r := cg.cfg.setupRequired(cg.seqs[c.idx].inst); r < req {
				req = r
			}
			present = true
		case rcComb:
			out := cg.combOut[c.idx]
			var has bool
			var outReq float64
			if sg.owner[out] == sid {
				has, outReq = cg.hasReq[out], cg.reqMax[out]
			} else {
				slot := sg.bSlot[out]
				has, outReq = sg.ifHasReq[slot], sg.ifReqMax[slot]
			}
			if !has {
				continue
			}
			load := cg.totalCap[out]
			arcs := cg.combArcs[c.idx]
			for i := range arcs {
				a := &arcs[i]
				if a.in != id {
					continue
				}
				dm, _ := a.eval(cg.slewMax[id], load)
				if r := outReq - dm - cg.wireD(id, a.sinkPos); r < req {
					req = r
				}
				present = true
			}
		}
	}
	if present == cg.hasReq[id] && (!present || cg.reqMax[id] == req) {
		return false
	}
	if present {
		cg.reqMax[id] = req
		cg.hasReq[id] = true
	} else {
		cg.reqMax[id] = 0
		cg.hasReq[id] = false
	}
	return true
}

// drainArrival walks one shard's forward buckets by ascending level; a
// net whose recomputed window is bit-identical stops the wave. Changed
// nets go required-dirty (own queue), their same-shard comb consumers
// re-queue locally, and cross-shard consumers post to the outbox for the
// barrier. A bucket is index-walked because same-epoch pushes can land in
// it while it drains.
func (sg *ShardedGraph) drainArrival(s *shard) {
	cg := sg.cg
	for lvl := 0; lvl < len(s.arrB); lvl++ {
		for bi := 0; bi < len(s.arrB[lvl]); bi++ {
			id := s.arrB[lvl][bi]
			s.retimed++
			if !sg.recomputeArrival(id, s.id) {
				continue
			}
			s.arrChanged = append(s.arrChanged, id)
			sg.pushReq(s, id) // its slew feeds backward delays
			for _, c := range cg.consumers(id) {
				if c.kind != rcComb {
					continue
				}
				out := cg.combOut[c.idx]
				if sg.owner[out] == s.id {
					sg.pushArr(s, out)
				} else {
					s.outArr = append(s.outArr, out)
				}
			}
		}
	}
}

// drainRequired walks one shard's backward buckets by descending level.
func (sg *ShardedGraph) drainRequired(s *shard) {
	cg := sg.cg
	for lvl := len(s.reqB) - 1; lvl >= 0; lvl-- {
		for bi := 0; bi < len(s.reqB[lvl]); bi++ {
			id := s.reqB[lvl][bi]
			if !sg.recomputeRequired(id, s.id) {
				continue
			}
			s.reqChanged = append(s.reqChanged, id)
			if cg.drvKind[id] != drvComb {
				continue
			}
			arcs := cg.combArcs[cg.drvIdx[id]]
			for i := range arcs {
				in := arcs[i].in
				if sg.owner[in] == s.id {
					sg.pushReq(s, in)
				} else {
					s.outReq = append(s.outReq, in)
				}
			}
		}
	}
}

// flowArrival iterates forward rounds to the fixed point.
func (sg *ShardedGraph) flowArrival(workers int) {
	for {
		sg.collectActive(true)
		if len(sg.active) == 0 {
			return
		}
		sg.snapshotArr()
		sg.runActive(phaseArrival, workers)
		sg.rounds++
		// Barrier: consumed buckets reset, epoch advances, outboxes
		// replay into the owning shards in shard-ID order.
		for _, si := range sg.active {
			s := &sg.shards[si]
			for l := range s.arrB {
				s.arrB[l] = s.arrB[l][:0]
			}
		}
		sg.bumpArr()
		for si := range sg.shards {
			s := &sg.shards[si]
			for _, id := range s.outArr {
				sg.pushArr(&sg.shards[sg.owner[id]], id)
			}
			s.outArr = s.outArr[:0]
		}
	}
}

// flowRequired iterates backward rounds to the fixed point.
func (sg *ShardedGraph) flowRequired(workers int) {
	for {
		sg.collectActive(false)
		if len(sg.active) == 0 {
			return
		}
		sg.snapshotReq()
		sg.runActive(phaseRequired, workers)
		sg.rounds++
		for _, si := range sg.active {
			s := &sg.shards[si]
			for l := range s.reqB {
				s.reqB[l] = s.reqB[l][:0]
			}
		}
		sg.bumpReq()
		for si := range sg.shards {
			s := &sg.shards[si]
			for _, id := range s.outReq {
				sg.pushReq(&sg.shards[sg.owner[id]], id)
			}
			s.outReq = s.outReq[:0]
		}
	}
}

// seedRetime re-extracts one touched net and seeds the cones its new RC
// invalidates into the owning shards' queues: the net itself both ways,
// every combinational sink's output forward, and the driver's fanins
// backward (their required times read both its required time and its
// load). Called serially by the coordinator between rounds, so the direct
// cross-shard pushes are safe.
func (sg *ShardedGraph) seedRetime(id int32) {
	cg := sg.cg
	cg.extract(id)
	sg.pushArr(&sg.shards[sg.owner[id]], id)
	sg.pushReq(&sg.shards[sg.owner[id]], id)
	for _, c := range cg.consumers(id) {
		if c.kind == rcComb {
			out := cg.combOut[c.idx]
			sg.pushArr(&sg.shards[sg.owner[out]], out)
		}
	}
	if cg.drvKind[id] == drvComb {
		for _, a := range cg.combArcs[cg.drvIdx[id]] {
			sg.pushReq(&sg.shards[sg.owner[a.in]], a.in)
		}
	}
}

// propagate runs the two fixed points and the serial endpoint scan and
// returns how many arrivals were recomputed — the shared tail of every
// pass.
func (sg *ShardedGraph) propagate() int {
	workers := sg.workers()
	sg.flowArrival(workers)
	sg.flowRequired(workers)
	sg.cg.endpointScan()
	retimed := 0
	for si := range sg.shards {
		retimed += sg.shards[si].retimed
		sg.shards[si].retimed = 0
	}
	return retimed
}

// eachChanged calls fn for every net whose arrival the last propagate
// changed, in shard order, then for every net whose required time it
// changed.
func (sg *ShardedGraph) eachChanged(fn func(id int32)) {
	for si := range sg.shards {
		for _, id := range sg.shards[si].arrChanged {
			fn(id)
		}
	}
	for si := range sg.shards {
		for _, id := range sg.shards[si].reqChanged {
			fn(id)
		}
	}
}

// changedCount is how many records eachChanged would deliver.
func (sg *ShardedGraph) changedCount() int {
	n := 0
	for si := range sg.shards {
		n += len(sg.shards[si].arrChanged) + len(sg.shards[si].reqChanged)
	}
	return n
}

// repropagateAll re-runs propagation over every net — the cache-hit
// refresh path and, on a freshly compiled graph whose state is zeroed,
// the full-analysis pass. It allocates nothing once warm; the zero-alloc
// guards pin it at one worker, at one shard and at k.
func (sg *ShardedGraph) repropagateAll() int {
	sg.resetAll()
	for si := range sg.shards {
		s := &sg.shards[si]
		for _, id := range s.nets {
			sg.pushArr(s, id)
			sg.pushReq(s, id)
		}
	}
	return sg.propagate()
}

// runFull extracts every net (fanning out per shard when the extractor
// supports in-place extraction) and propagates from scratch.
func (sg *ShardedGraph) runFull() {
	cg := sg.cg
	workers := sg.workers()
	if cg.intoEx != nil && workers > 1 {
		sg.collectAll()
		sg.runActive(phaseExtract, workers)
	} else {
		for id := range cg.nets {
			cg.extract(int32(id))
		}
	}
	sg.repropagateAll()
}

// collectAll marks every shard active (extraction touches all nets).
func (sg *ShardedGraph) collectAll() {
	sg.active = sg.active[:0]
	for si := range sg.shards {
		sg.active = append(sg.active, int32(si))
	}
}
