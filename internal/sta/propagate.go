// The propagator. A propagator drains arrival and required-time waves
// over one CompiledGraph, and it is the only code that does: full
// analysis and every incremental retime run through it. Dirty nets wait
// in one set of per-level buckets; the forward drain walks them by
// ascending level and the backward drain by descending level, so a net
// is recomputed only after every net its value reads (its fanins
// forward, its consumers' outputs backward), and at most once per
// direction per pass. A net whose recomputed state is bit-identical
// stops its wave.
//
// The per-net values are pure functions of their fanins on a DAG, so the
// drain order changes no result; the endpoint scan (WNS/TNS/hold — the
// one order-dependent float accumulation) runs serially in design order.
// The property tests hold every result to Float64bits equality with the
// map-based oracle in legacy_test.go.
//
// Config.Partitions never reaches the propagator: the clustering it sets
// is only the lane view an Incremental lays over the graph (lanes.go).
package sta

import "math"

// propagator is the propagating face of one CompiledGraph.
type propagator struct {
	cg *CompiledGraph

	// Per-level dirty buckets, carved at the level histogram's capacity:
	// a net enters its level's bucket at most once per epoch, so the
	// buckets never grow. arrMark[id] == arrEpoch (reqMark, reqEpoch)
	// marks a net already queued in the current pass.
	arrB, reqB         [][]int32
	arrMark, reqMark   []uint32
	arrEpoch, reqEpoch uint32

	// Nets whose arrival or required time the last propagate changed,
	// each at most once.
	arrChanged, reqChanged []int32
}

// newPropagator lays the dirty buckets over a compiled graph.
func newPropagator(cg *CompiledGraph) *propagator {
	nn := len(cg.nets)
	levels := int(cg.maxLevel) + 1
	hist := make([]int, levels)
	for _, l := range cg.level {
		hist[l]++
	}
	heads := make([][]int32, 2*levels)
	slab := make([]int32, 4*nn) // two bucket sets, two changed lists
	p := &propagator{
		cg:         cg,
		arrB:       heads[:levels],
		reqB:       heads[levels:],
		arrMark:    make([]uint32, nn),
		reqMark:    make([]uint32, nn),
		arrChanged: slab[2*nn : 2*nn : 3*nn],
		reqChanged: slab[3*nn : 3*nn : 4*nn],
	}
	off := 0
	for l, c := range hist {
		p.arrB[l] = slab[off : off : off+c]
		p.reqB[l] = slab[nn+off : nn+off : nn+off+c]
		off += c
	}
	return p
}

// bumpEpoch advances a queue epoch, clearing the marks on wraparound
// (when they would be ambiguous).
func bumpEpoch(epoch *uint32, marks []uint32) {
	*epoch++
	if *epoch == 0 {
		clear(marks)
		*epoch = 1
	}
}

// reset empties the buckets and changed lists and starts fresh epochs —
// the top of a retime or repropagate.
func (p *propagator) reset() {
	bumpEpoch(&p.arrEpoch, p.arrMark)
	bumpEpoch(&p.reqEpoch, p.reqMark)
	for l := range p.arrB {
		p.arrB[l] = p.arrB[l][:0]
		p.reqB[l] = p.reqB[l][:0]
	}
	p.arrChanged = p.arrChanged[:0]
	p.reqChanged = p.reqChanged[:0]
}

// pushArr/pushReq enqueue a net into its level's bucket, once per epoch.
func (p *propagator) pushArr(id int32) {
	if p.arrMark[id] == p.arrEpoch {
		return
	}
	p.arrMark[id] = p.arrEpoch
	l := p.cg.level[id]
	p.arrB[l] = append(p.arrB[l], id)
}

func (p *propagator) pushReq(id int32) {
	if p.reqMark[id] == p.reqEpoch {
		return
	}
	p.reqMark[id] = p.reqEpoch
	l := p.cg.level[id]
	p.reqB[l] = append(p.reqB[l], id)
}

// combWindow computes a combinational output's arrival window and worst
// slew from its fanin state, ok=false when no fanin is constrained.
func (p *propagator) combWindow(ci int32) (amax, amin, smax float64, ok bool) {
	cg := p.cg
	load := cg.totalCap[cg.combOut[ci]]
	amax = math.Inf(-1)
	amin = math.Inf(1)
	smax = 0.0
	arcs := cg.combArcs[ci]
	for i := range arcs {
		a := &arcs[i]
		if !cg.hasArr[a.in] {
			continue
		}
		wire := cg.wireD(a.in, a.sinkPos)
		dm, sm := a.eval(cg.slewMax[a.in], load)
		amax = math.Max(amax, cg.arrMax[a.in]+wire+dm)
		amin = math.Min(amin, cg.arrMin[a.in]+wire+dm)
		smax = math.Max(smax, sm)
	}
	if math.IsInf(amax, -1) {
		return 0, 0, 0, false
	}
	return amax, amin, smax, true
}

// recomputeArrival redoes one net's arrival window from its driver kind
// and reports whether presence or value changed.
func (p *propagator) recomputeArrival(id int32) bool {
	cg := p.cg
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
		amax, amin, smax, present = p.combWindow(cg.drvIdx[id])
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
// consumer candidates and reports whether it changed.
func (p *propagator) recomputeRequired(id int32) bool {
	cg := p.cg
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
			if !cg.hasReq[out] {
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
				if r := cg.reqMax[out] - dm - cg.wireD(id, a.sinkPos); r < req {
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

// drainArrival walks the forward buckets by ascending level and returns
// how many arrivals it recomputed. Changed nets go required-dirty and
// queue their comb consumers' outputs. A bucket is index-walked because a
// push can land in it while it drains: a consumer that sinks the net only
// on a pin without a timing arc is not levelled above it.
func (p *propagator) drainArrival() (retimed int) {
	cg := p.cg
	for lvl := range p.arrB {
		for bi := 0; bi < len(p.arrB[lvl]); bi++ {
			id := p.arrB[lvl][bi]
			retimed++
			if !p.recomputeArrival(id) {
				continue
			}
			p.arrChanged = append(p.arrChanged, id)
			p.pushReq(id) // its slew feeds backward delays
			for _, c := range cg.consumers(id) {
				if c.kind == rcComb {
					p.pushArr(cg.combOut[c.idx])
				}
			}
		}
	}
	return retimed
}

// drainRequired walks the backward buckets by descending level. Changed
// nets queue their driver's fanins.
func (p *propagator) drainRequired() {
	cg := p.cg
	for lvl := len(p.reqB) - 1; lvl >= 0; lvl-- {
		for bi := 0; bi < len(p.reqB[lvl]); bi++ {
			id := p.reqB[lvl][bi]
			if !p.recomputeRequired(id) {
				continue
			}
			p.reqChanged = append(p.reqChanged, id)
			if cg.drvKind[id] != drvComb {
				continue
			}
			arcs := cg.combArcs[cg.drvIdx[id]]
			for i := range arcs {
				p.pushReq(arcs[i].in)
			}
		}
	}
}

// seedRetime re-extracts one touched net and queues the cones its new RC
// invalidates: the net itself both ways, every combinational sink's
// output forward, and the driver's fanins backward (their required times
// read both its required time and its load).
func (p *propagator) seedRetime(id int32) {
	cg := p.cg
	cg.extract(id)
	p.pushArr(id)
	p.pushReq(id)
	for _, c := range cg.consumers(id) {
		if c.kind == rcComb {
			p.pushArr(cg.combOut[c.idx])
		}
	}
	if cg.drvKind[id] == drvComb {
		for _, a := range cg.combArcs[cg.drvIdx[id]] {
			p.pushReq(a.in)
		}
	}
}

// propagate runs the forward drain, the backward drain and the serial
// endpoint scan and returns how many arrivals were recomputed — the
// shared tail of every pass.
func (p *propagator) propagate() int {
	retimed := p.drainArrival()
	p.drainRequired()
	p.cg.endpointScan()
	return retimed
}

// eachChanged calls fn for every net whose arrival the last propagate
// changed, then for every net whose required time it changed.
func (p *propagator) eachChanged(fn func(id int32)) {
	for _, id := range p.arrChanged {
		fn(id)
	}
	for _, id := range p.reqChanged {
		fn(id)
	}
}

// changedCount is how many records eachChanged would deliver.
func (p *propagator) changedCount() int {
	return len(p.arrChanged) + len(p.reqChanged)
}

// repropagateAll re-runs propagation over every net — on a freshly
// compiled graph whose state is zeroed, the full-analysis pass. It
// allocates nothing once warm; the zero-alloc guards pin it.
func (p *propagator) repropagateAll() int {
	p.reset()
	for id := range int32(len(p.cg.nets)) {
		p.pushArr(id)
		p.pushReq(id)
	}
	return p.propagate()
}

// runFull extracts every net and propagates from scratch.
func (p *propagator) runFull() {
	for id := range int32(len(p.cg.nets)) {
		p.cg.extract(id)
	}
	p.repropagateAll()
}
