package sta

import (
	"errors"
	"fmt"

	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
)

// Patching a compiled graph. After placement the flow only inserts:
// holders, switches and their VGND nets, MTE, clock and hold buffers,
// each a journal batch of added nets and instances, pin connects and
// disconnects, sink moves and net-flag flips. patch applies such a batch
// to the graph in place, so it ends up as a recompile of the current
// design would build it up to the numbering of its combinational
// instances, which nothing observable depends on:
//
//   - New nets and instances get appended IDs. The design lists them in
//     insertion order, so appended net IDs keep following d.Nets(), new
//     flops keep the endpoint scan in instance order, and new output
//     ports keep it in port order.
//   - Every instance the batch names is rebound (role, output net, arcs,
//     flop D/Q entries), and so is every instance sinking on a net it
//     touches, since a disconnect shifts the sink positions after it.
//   - Every touched net gets its driver kind and consumer list re-derived;
//     the rebuilt list goes to the end of the CSR array.
//   - Levels are recomputed over the forward cone to the exact
//     longest-path values, so the dirty buckets drain in recompile order.
//
// Removals renumber the graph, and a combinational cell that loses its
// output would leave a hole in it; both take the recompile instead.

// errUnpatchable sends a batch the patch cannot apply to the recompile.
var errUnpatchable = errors.New("sta: batch needs a recompile")

// intern appends the nets and flops a batch adds, in journal order — the
// design's insertion order. Combinational instances are interned by
// bindInst once their output is known.
func (cg *CompiledGraph) intern(delta []netlist.Change) error {
	for _, ch := range delta {
		switch ch.Kind {
		case netlist.ChangeNetAdded:
			cg.addNet(ch.Net)
		case netlist.ChangeInstanceAdded:
			if ch.Inst.Cell.IsSequential() {
				cg.seqIdx = setAt(cg.seqIdx, ch.Inst.ID(), int32(len(cg.seqs)))
				cg.seqs = append(cg.seqs, seqInfo{inst: ch.Inst, q: -1, dNet: -1, dSinkPos: -1})
			}
		}
	}
	if len(cg.nets) != cg.d.NumNets() {
		return errUnpatchable // the graph no longer mirrors the design's nets
	}
	return nil
}

// addNet appends one net with empty timing state and no consumers.
func (cg *CompiledGraph) addNet(n *netlist.Net) {
	cg.netID = setAt(cg.netID, n.ID(), int32(len(cg.nets)))
	cg.nets = append(cg.nets, n)
	var t *parasitics.RCTree
	if cg.intoEx != nil {
		t = new(parasitics.RCTree) // ExtractInto grows it on first use
	}
	cg.rc = append(cg.rc, t)
	cg.arrMax = append(cg.arrMax, 0)
	cg.arrMin = append(cg.arrMin, 0)
	cg.slewMax = append(cg.slewMax, 0)
	cg.reqMax = append(cg.reqMax, 0)
	cg.hasArr = append(cg.hasArr, false)
	cg.hasReq = append(cg.hasReq, false)
	cg.drvKind = append(cg.drvKind, drvNone)
	cg.drvIdx = append(cg.drvIdx, -1)
	cg.level = append(cg.level, 0)
	cg.totalCap = append(cg.totalCap, 0)
	cg.sinkD = append(cg.sinkD, nil)
	end := int32(len(cg.reqConsArr))
	cg.reqConsLo = append(cg.reqConsLo, end)
	cg.reqConsHi = append(cg.reqConsHi, end)
}

// patch rebinds the graph to an interned batch: the instances it names,
// then the nets in touched (every net the batch names plus every net of
// an instance it names), the port endpoints and the levels. It returns
// errUnpatchable for a batch only a recompile can apply, and an error
// for a combinational cycle.
func (cg *CompiledGraph) patch(delta []netlist.Change, touched []int32) error {
	for _, ch := range delta {
		if ch.Inst != nil {
			if err := cg.bindInst(ch.Inst); err != nil {
				return err
			}
		}
	}
	var seen []int32
	for _, id := range touched {
		n := cg.nets[id]
		for _, s := range n.Sinks {
			if s.Inst != nil {
				if err := cg.bindInst(s.Inst); err != nil {
					return err
				}
			}
		}
		cg.bindDriver(id)
		cg.reqConsLo[id] = int32(len(cg.reqConsArr))
		seen = cg.appendConsumers(n, seen)
		cg.reqConsHi[id] = int32(len(cg.reqConsArr))
	}
	cg.bindPorts()
	return cg.relevel(touched)
}

// bindInst re-derives one instance's entries from the design: a flop's
// D/Q binding, or a combinational cell's output net and arcs, interning a
// cell that has just gained its output. Instances without an output
// (switches, holders) have no entry.
func (cg *CompiledGraph) bindInst(inst *netlist.Instance) error {
	si, seq := cg.seqOf(inst)
	switch {
	case seq != inst.Cell.IsSequential():
		return errUnpatchable
	case seq:
		cg.seqs[si] = cg.seqEntry(inst)
		return nil
	}
	out := inst.OutputNet()
	ci, ok := cg.combOf(inst)
	switch {
	case !ok && out == nil:
		return nil
	case out == nil:
		return errUnpatchable
	case !ok:
		ci = int32(len(cg.combs))
		cg.combIdx = setAt(cg.combIdx, inst.ID(), ci)
		cg.combs = append(cg.combs, inst)
		cg.combOut = append(cg.combOut, 0)
		cg.combArcs = append(cg.combArcs, nil)
	}
	cg.combOut[ci] = cg.idOf(out)
	cg.combArcs[ci] = cg.buildArcs(inst, cg.combArcs[ci])
	return nil
}

// bindDriver re-derives one net's driver kind from the design, as
// compile assigns it.
func (cg *CompiledGraph) bindDriver(id int32) {
	n := cg.nets[id]
	kind, idx := drvNone, int32(-1)
	switch drv := n.Driver; {
	case drv.Port != nil:
		if drv.Port.Dir == netlist.DirInput && drv.Port.Name != cg.cfg.ClockPort {
			kind = drvPort
		}
	case drv.Inst != nil && drv.Inst.OutputNet() == n:
		if si, ok := cg.seqOf(drv.Inst); ok {
			kind, idx = drvSeq, si
		} else if ci, ok := cg.combOf(drv.Inst); ok {
			kind, idx = drvComb, ci
		}
	}
	cg.drvKind[id], cg.drvIdx[id] = kind, idx
}

// relevel recomputes levels over the forward cone of the seed nets. A net
// is re-queued each time a fanin's level moves, so the values settle at
// the exact longest path a recompile assigns. On a DAG no level exceeds
// the combinational instance count; a higher one is climbing a cycle.
func (cg *CompiledGraph) relevel(seeds []int32) error {
	queue := append([]int32(nil), seeds...)
	limit := int32(len(cg.combs))
	for qi := 0; qi < len(queue); qi++ {
		id := queue[qi]
		lvl := int32(0)
		if cg.drvKind[id] == drvComb {
			lvl = cg.combLevel(cg.drvIdx[id])
		}
		if lvl == cg.level[id] {
			continue
		}
		if lvl > limit {
			return fmt.Errorf("sta: combinational cycle through net %s", cg.nets[id].Name)
		}
		cg.level[id] = lvl
		for _, c := range cg.consumers(id) {
			if c.kind == rcComb {
				queue = append(queue, cg.combOut[c.idx])
			}
		}
	}
	cg.maxLevel = 0
	for _, l := range cg.level {
		cg.maxLevel = max(cg.maxLevel, l)
	}
	return nil
}
