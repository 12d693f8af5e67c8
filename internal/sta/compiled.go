// Flat timing graph data. A CompiledGraph interns a design into dense
// int32 IDs: nets, sequential and combinational instances, their
// flattened NLDM arcs, the required-time consumer CSR and the logic
// levels. It owns the per-net state every analysis reads and writes
// (extracted RC, arrival window, worst slew, required time) in flat
// slices indexed by net ID, the extraction that fills the RC part, and
// the serial endpoint scan. It propagates nothing itself: the propagator
// (propagate.go) is the one code that does. An insertion batch from the
// design's change journal patches the graph in place (patch.go) instead
// of recompiling it.
//
// The arithmetic is exactly the map-based pass's that preceded this
// kernel, in the same evaluation order, so results are bit-identical to
// it. That pass lives on only as the test oracle in legacy_test.go.
package sta

import (
	"math"
	"slices"

	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
)

// driver kinds per net.
const (
	drvNone uint8 = iota // undriven, clock port, or a non-arrival source
	drvPort              // data primary input: seeded with the external arrival
	drvSeq               // flop Q output
	drvComb              // combinational cell output
)

// required-consumer kinds per net (see reqCons).
const (
	rcOutPort uint8 = iota // output-port endpoint
	rcFlopD                // flop D setup endpoint (idx = seq index)
	rcComb                 // combinational consumer (idx = comb index)
)

// combArc is one flattened timing arc of a combinational instance: the
// fanin net it reads, the sink position resolving its wire delay, and the
// NLDM arc evaluated at the instance's output load.
//
// The c* fields memoize the last table evaluation keyed by its inputs.
// Arc delay is a pure function of (input slew, output load), so a hit
// returns bit-identical values while skipping the two NLDM
// interpolations — the dominant cost of a propagate pass. cSlewIn starts
// NaN, which compares unequal to everything, so a fresh arc always
// misses; rebinding an instance (buildArcs) resets it the same way.
type combArc struct {
	in      int32 // fanin net ID
	sinkPos int32 // index into sinkD[in] (-1: no resolved sink, zero wire delay)
	arc     *liberty.Arc

	cSlewIn, cLoad   float64 // inputs of the memoized evaluation
	cDelay, cSlewOut float64 // its results
}

// eval returns the arc's worst delay and output slew for the given input
// slew and load, through the memo.
func (a *combArc) eval(sIn, load float64) (dm, sm float64) {
	if !(a.cSlewIn == sIn && a.cLoad == load) {
		a.cSlewIn, a.cLoad = sIn, load
		a.cDelay = a.arc.WorstDelay(sIn, load)
		a.cSlewOut = a.arc.WorstSlew(sIn, load)
	}
	return a.cDelay, a.cSlewOut
}

// seqInfo is the compiled view of one sequential instance. The c* fields
// memoize the CK→Q table evaluation; keying on the arc pointer makes a
// cell swap (which changes the cell's arcs) an automatic miss, so the
// live Cell.Arc lookup stays swap-safe.
type seqInfo struct {
	inst     *netlist.Instance
	q        int32 // output (Q) net ID, -1 when unconnected
	dNet     int32 // D input net ID, -1 when unconnected
	dSinkPos int32 // sink position of the D pin on dNet (-1: none)

	cArc            *liberty.Arc
	cClkSlew, cLoad float64
	cDelay, cQSlew  float64
}

// reqConsumer is one required-time candidate source on a net: an output
// port, a flop D pin, or a combinational consumer instance (deduplicated,
// in net-sink order — the same candidate set the map-based backward pass
// min-accumulates).
type reqConsumer struct {
	kind uint8
	idx  int32
}

// netState is the per-net timing state a Result reads, indexed by net ID.
// Absent quantities (has* false) keep zeroed values, so reading an absent
// net yields the zero a map lookup would. netID maps a netlist.Net.ID to
// the graph's net ID (-1: none).
type netState struct {
	nets    []*netlist.Net
	netID   []int32
	rc      []*parasitics.RCTree
	arrMax  []float64
	arrMin  []float64
	slewMax []float64
	reqMax  []float64
	hasArr  []bool
	hasReq  []bool
}

// CompiledGraph is the flat timing graph over one design.
type CompiledGraph struct {
	d   *netlist.Design
	cfg Config // normalized

	netState

	outPorts []int32 // nets sunk by output ports, port order

	// seqIdx and combIdx map a netlist.Instance.ID to the instance's index
	// in seqs or combs (-1: none).
	seqs     []seqInfo // sequential instances, instance order
	seqIdx   []int32
	combs    []*netlist.Instance // comb instances with an output, topo order
	combOut  []int32             // their output net IDs
	combArcs [][]combArc         // their flattened arcs (rebuilt on cell swap)
	combIdx  []int32

	drvKind []uint8 // per net
	drvIdx  []int32 // seq/comb index for drvSeq/drvComb, else -1

	// Required-time consumers in CSR form: net id's candidates are
	// reqConsArr[reqConsLo[id]:reqConsHi[id]], net-sink order,
	// comb-deduplicated. One backing array instead of one slice per net;
	// a patch appends a rebuilt list at the end and moves the net's span.
	reqConsLo  []int32
	reqConsHi  []int32
	reqConsArr []reqConsumer

	level    []int32
	maxLevel int32

	// Extraction state beside netState.rc: the slab the rc trees are
	// carved from (IntoExtractor path), per-net total load, and the Elmore
	// delay per sink position, padded to len(Sinks).
	trees    []parasitics.RCTree
	intoEx   parasitics.IntoExtractor
	totalCap []float64
	sinkD    [][]float64

	// Endpoint scan results (mirrored into the Result afterwards).
	wns, tns, worstHold float64
	holdBuf             []*netlist.Instance

	// Elmore scratch for extraction, reused across nets.
	elmoreDelay, elmoreDown []float64
}

// compile interns the design into a flat graph at its current structural
// revision. The per-net timing state starts empty; run a full pass before
// reading results.
func compile(d *netlist.Design, cfg Config) (*CompiledGraph, error) {
	order, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}
	nets := d.Nets()
	nn := len(nets)
	cg := &CompiledGraph{
		d:   d,
		cfg: cfg,
		netState: netState{
			nets:    nets,
			netID:   make([]int32, 0, d.NetSlots()),
			rc:      make([]*parasitics.RCTree, nn),
			arrMax:  make([]float64, nn),
			arrMin:  make([]float64, nn),
			slewMax: make([]float64, nn),
			reqMax:  make([]float64, nn),
			hasArr:  make([]bool, nn),
			hasReq:  make([]bool, nn),
		},
		seqIdx:  make([]int32, 0, d.InstanceSlots()),
		combIdx: make([]int32, 0, d.InstanceSlots()),
		drvKind: make([]uint8, nn),
		drvIdx:  make([]int32, nn),
		level:   make([]int32, nn),

		totalCap: make([]float64, nn),
		sinkD:    make([][]float64, nn),
	}
	for i, n := range nets {
		cg.netID = setAt(cg.netID, n.ID(), int32(i))
		cg.drvIdx[i] = -1
	}

	// With an in-place extractor, carve every net's RC tree and sink-delay
	// buffer out of shared slabs sized for the common star topology
	// (1 + #sinks nodes). Three-index subslices pin each net's capacity, so
	// an extractor that ever needs more nodes reallocates only its own
	// net's slices. This turns ~6 small allocations per net per full
	// analysis into a handful of slab allocations per compile.
	cg.intoEx, _ = cfg.Extractor.(parasitics.IntoExtractor)
	totalSinks := 0
	for _, n := range nets {
		totalSinks += len(n.Sinks)
	}
	if cg.intoEx != nil {
		totalNodes := nn + totalSinks
		parentSlab := make([]int, totalNodes)
		rkSlab := make([]float64, totalNodes)
		capSlab := make([]float64, totalNodes)
		sinkNodeSlab := make([]int, totalSinks)
		sinkDSlab := make([]float64, totalSinks)
		cg.trees = make([]parasitics.RCTree, nn)
		off, soff := 0, 0
		for i, n := range nets {
			nd := 1 + len(n.Sinks)
			t := &cg.trees[i]
			t.Parent = parentSlab[off : off : off+nd]
			t.RkOhm = rkSlab[off : off : off+nd]
			t.CapPF = capSlab[off : off : off+nd]
			t.SinkNode = sinkNodeSlab[soff : soff : soff+len(n.Sinks)]
			cg.rc[i] = t
			cg.sinkD[i] = sinkDSlab[soff : soff : soff+len(n.Sinks)]
			off += nd
			soff += len(n.Sinks)
		}
	}

	// Ports, in declaration order: data inputs seed arrivals, outputs are
	// required-time endpoints.
	for _, p := range d.Ports() {
		if p.Dir == netlist.DirInput && p.Name != cfg.ClockPort {
			cg.drvKind[cg.idOf(p.Net)] = drvPort
		}
	}
	cg.bindPorts()

	// Sequential instances, in instance order.
	for _, inst := range d.Instances() {
		if !inst.Cell.IsSequential() {
			continue
		}
		si := cg.seqEntry(inst)
		if si.q >= 0 {
			cg.drvKind[si.q] = drvSeq
			cg.drvIdx[si.q] = int32(len(cg.seqs))
		}
		cg.seqIdx = setAt(cg.seqIdx, inst.ID(), int32(len(cg.seqs)))
		cg.seqs = append(cg.seqs, si)
	}

	// Combinational instances with an output, in topological order. Arc
	// counts are gathered here so the arcs themselves can be carved from
	// one slab below.
	arcCnt := make([]int32, 0, len(order))
	for _, inst := range order {
		if inst.Cell.IsSequential() {
			continue
		}
		out := inst.OutputNet()
		if out == nil {
			continue
		}
		ci := int32(len(cg.combs))
		oid := cg.idOf(out)
		cg.combIdx = setAt(cg.combIdx, inst.ID(), ci)
		cg.combs = append(cg.combs, inst)
		cg.combOut = append(cg.combOut, oid)
		cg.drvKind[oid] = drvComb
		cg.drvIdx[oid] = ci
		cnt := int32(0)
		for _, arc := range inst.Cell.Arcs {
			if inst.Net(arc.From) != nil {
				cnt++
			}
		}
		arcCnt = append(arcCnt, cnt)
	}
	// Carve each instance's arc list from a single slab with pinned
	// capacity: a later cell swap that grows the list reallocates only
	// that instance's slice.
	totalArcs := int32(0)
	for _, c := range arcCnt {
		totalArcs += c
	}
	arcSlab := make([]combArc, totalArcs)
	cg.combArcs = make([][]combArc, len(cg.combs))
	aoff := int32(0)
	for ci, inst := range cg.combs {
		cg.combArcs[ci] = cg.buildArcs(inst, arcSlab[aoff:aoff:aoff+arcCnt[ci]])
		aoff += arcCnt[ci]
	}
	// Levels in topological order: a net's level is 1 + the worst level
	// over its driver's fanin nets.
	for ci := range cg.combs {
		lvl := cg.combLevel(int32(ci))
		cg.level[cg.combOut[ci]] = lvl
		cg.maxLevel = max(cg.maxLevel, lvl)
	}

	// Required-time consumers per net, in net-sink order, CSR-packed.
	// Each sink contributes at most one candidate, so totalSinks bounds
	// the packed length and the array never reallocates.
	cg.reqConsLo = make([]int32, nn)
	cg.reqConsHi = make([]int32, nn)
	cg.reqConsArr = make([]reqConsumer, 0, totalSinks)
	var seenComb []int32
	for i, n := range nets {
		cg.reqConsLo[i] = int32(len(cg.reqConsArr))
		seenComb = cg.appendConsumers(n, seenComb)
		cg.reqConsHi[i] = int32(len(cg.reqConsArr))
	}
	return cg, nil
}

// bindPorts lists the nets sunk by output ports, in port order.
func (cg *CompiledGraph) bindPorts() {
	cg.outPorts = cg.outPorts[:0]
	for _, p := range cg.d.Ports() {
		if p.Dir != netlist.DirInput {
			cg.outPorts = append(cg.outPorts, cg.idOf(p.Net))
		}
	}
}

// seqEntry binds one sequential instance's Q and D nets.
func (cg *CompiledGraph) seqEntry(inst *netlist.Instance) seqInfo {
	si := seqInfo{inst: inst, q: -1, dNet: -1, dSinkPos: -1}
	if q := inst.OutputNet(); q != nil {
		si.q = cg.idOf(q)
	}
	if dn := inst.Net("D"); dn != nil {
		si.dNet = cg.idOf(dn)
		si.dSinkPos = sinkPos(dn, inst, "D")
	}
	return si
}

// combLevel is a combinational instance's output level: 1 + the worst
// level over its arcs' fanin nets, 0 with no connected arc.
func (cg *CompiledGraph) combLevel(ci int32) int32 {
	lvl := int32(0)
	for i := range cg.combArcs[ci] {
		lvl = max(lvl, cg.level[cg.combArcs[ci][i].in]+1)
	}
	return lvl
}

// appendConsumers appends one net's required-time candidates to the CSR
// array in net-sink order; seen is the reused scratch of the small linear
// dedup of the net's comb consumers.
func (cg *CompiledGraph) appendConsumers(n *netlist.Net, seen []int32) []int32 {
	seen = seen[:0]
	for _, s := range n.Sinks {
		switch {
		case s.Port != nil:
			if s.Port.Dir == netlist.DirOutput {
				cg.reqConsArr = append(cg.reqConsArr, reqConsumer{kind: rcOutPort})
			}
		case s.Inst == nil:
			// detached ref: nothing
		case s.Inst.Cell.IsSequential():
			if s.Pin == "D" {
				si, _ := cg.seqOf(s.Inst)
				cg.reqConsArr = append(cg.reqConsArr, reqConsumer{kind: rcFlopD, idx: si})
			}
		default:
			ci, ok := cg.combOf(s.Inst)
			if !ok || slices.Contains(seen, ci) {
				continue // no output (switch/holder) or already listed
			}
			seen = append(seen, ci)
			cg.reqConsArr = append(cg.reqConsArr, reqConsumer{kind: rcComb, idx: ci})
		}
	}
	return seen
}

// buildArcs flattens one combinational instance's connected timing arcs,
// reusing buf's capacity. Called at compile time and again when a cell
// swap rebinds the instance (the arc pointers and pin set change with the
// cell).
func (cg *CompiledGraph) buildArcs(inst *netlist.Instance, buf []combArc) []combArc {
	buf = buf[:0]
	for _, arc := range inst.Cell.Arcs {
		inNet := inst.Net(arc.From)
		if inNet == nil {
			continue
		}
		buf = append(buf, combArc{
			in:      cg.idOf(inNet),
			sinkPos: sinkPos(inNet, inst, arc.From),
			arc:     arc,
			cSlewIn: math.NaN(), // empty memo
		})
	}
	return buf
}

// lookup returns n's graph net ID; ok is false, and the ID 0, for a net
// the graph does not hold, whatever netlist ID it carries.
func (st *netState) lookup(n *netlist.Net) (id int32, ok bool) {
	if id := at(st.netID, n.ID()); id >= 0 && st.nets[id] == n {
		return id, true
	}
	return 0, false
}

// idOf returns the graph net ID of one of the design's nets.
func (st *netState) idOf(n *netlist.Net) int32 {
	id, _ := st.lookup(n)
	return id
}

// seqOf returns a flop's index in seqs; ok is false when it has none.
func (cg *CompiledGraph) seqOf(inst *netlist.Instance) (int32, bool) {
	if si := at(cg.seqIdx, inst.ID()); si >= 0 && cg.seqs[si].inst == inst {
		return si, true
	}
	return 0, false
}

// combOf returns a combinational instance's index in combs; ok is false
// when it has none.
func (cg *CompiledGraph) combOf(inst *netlist.Instance) (int32, bool) {
	if ci := at(cg.combIdx, inst.ID()); ci >= 0 && cg.combs[ci] == inst {
		return ci, true
	}
	return 0, false
}

// at reads entry k of an ID table, -1 (unset) past its end.
func at(t []int32, k int32) int32 {
	if int(k) < len(t) {
		return t[k]
	}
	return -1
}

// setAt stores v as entry k of an ID table, growing it with unset entries.
func setAt(t []int32, k, v int32) []int32 {
	for int(k) >= len(t) {
		t = append(t, -1)
	}
	t[k] = v
	return t
}

// consumers returns net id's required-time candidate sources (CSR view).
func (cg *CompiledGraph) consumers(id int32) []reqConsumer {
	return cg.reqConsArr[cg.reqConsLo[id]:cg.reqConsHi[id]]
}

// sinkPos returns the first position of (inst, pin) in n.Sinks, or -1.
func sinkPos(n *netlist.Net, inst *netlist.Instance, pin string) int32 {
	for i, s := range n.Sinks {
		if s.Inst == inst && s.Pin == pin {
			return int32(i)
		}
	}
	return -1
}

// extract re-runs parasitic extraction for one net with the graph's own
// Elmore scratch. With an IntoExtractor the net's preallocated tree is
// refilled in place — consistent with the live view an Incremental's
// Result gives — so the steady-state retime loop allocates nothing.
func (cg *CompiledGraph) extract(id int32) {
	n := cg.nets[id]
	var t *parasitics.RCTree
	if cg.intoEx != nil {
		t = cg.intoEx.ExtractInto(n, cg.rc[id])
	} else {
		t = cg.cfg.Extractor.Extract(n)
		cg.rc[id] = t
	}
	cg.totalCap[id] = t.TotalCap()
	// Per-sink wire delays, padded with zeros past SinkNode (a sink that
	// resolved to no RC node has no wire delay).
	nodes := len(t.CapPF)
	if cap(cg.elmoreDelay) < nodes {
		cg.elmoreDelay = make([]float64, nodes)
		cg.elmoreDown = make([]float64, nodes)
	}
	delay := t.ElmoreInto(cg.elmoreDelay[:nodes], cg.elmoreDown[:nodes])
	sd := cg.sinkD[id][:0]
	for i := range n.Sinks {
		if i < len(t.SinkNode) {
			sd = append(sd, delay[t.SinkNode[i]])
		} else {
			sd = append(sd, 0)
		}
	}
	cg.sinkD[id] = sd
}

// wireD returns the wire delay for a resolved sink position (0 when the
// sink did not resolve to an RC node).
func (cg *CompiledGraph) wireD(in, pos int32) float64 {
	if pos < 0 || int(pos) >= len(cg.sinkD[in]) {
		return 0
	}
	return cg.sinkD[in][pos]
}

// seqWindow computes a flop's Q arrival and slew from the clock edge.
func (cg *CompiledGraph) seqWindow(si *seqInfo) (arr, slew float64) {
	arc := si.inst.Cell.Arc("CK", "Q")
	var dq, sq float64
	if arc != nil {
		load := cg.totalCap[si.q]
		if !(si.cArc == arc && si.cClkSlew == cg.cfg.ClockSlewNs && si.cLoad == load) {
			si.cArc, si.cClkSlew, si.cLoad = arc, cg.cfg.ClockSlewNs, load
			si.cDelay = arc.WorstDelay(cg.cfg.ClockSlewNs, load)
			si.cQSlew = arc.WorstSlew(cg.cfg.ClockSlewNs, load)
		}
		dq, sq = si.cDelay, si.cQSlew
	}
	return cg.cfg.clockArrival(si.inst) + dq, sq
}

// setArr writes a present arrival window; clearArr removes one (zeroing
// the state so later reads see zero values).
func (cg *CompiledGraph) setArr(id int32, amax, amin, smax float64) {
	cg.arrMax[id] = amax
	cg.arrMin[id] = amin
	cg.slewMax[id] = smax
	cg.hasArr[id] = true
}

func (cg *CompiledGraph) clearArr(id int32) {
	cg.arrMax[id] = 0
	cg.arrMin[id] = 0
	cg.slewMax[id] = 0
	cg.hasArr[id] = false
}

// endpointScan recomputes WNS/TNS/WorstHold and the hold-violation list in
// the design's deterministic endpoint order (output ports, then flops).
// Scan state lands in cg fields; mirrorEndpoints copies it into a Result.
func (cg *CompiledGraph) endpointScan() {
	cg.wns = math.Inf(1)
	cg.worstHold = math.Inf(1)
	cg.tns = 0
	cg.holdBuf = cg.holdBuf[:0]
	check := func(id int32, req float64) {
		if !cg.hasArr[id] {
			return
		}
		s := req - cg.arrMax[id]
		if s < cg.wns {
			cg.wns = s
		}
		if s < 0 {
			cg.tns += s
		}
	}
	for _, id := range cg.outPorts {
		check(id, cg.cfg.outputRequired())
	}
	for i := range cg.seqs {
		si := &cg.seqs[i]
		if si.dNet < 0 {
			continue
		}
		lat := cg.cfg.clockArrival(si.inst)
		check(si.dNet, cg.cfg.setupRequired(si.inst))
		if cg.hasArr[si.dNet] {
			hs := cg.arrMin[si.dNet] + cg.wireD(si.dNet, si.dSinkPos) - lat - si.inst.Cell.HoldNs
			if hs < cg.worstHold {
				cg.worstHold = hs
			}
			if hs < 0 {
				cg.holdBuf = append(cg.holdBuf, si.inst)
			}
		}
	}
	if math.IsInf(cg.wns, 1) {
		cg.wns = cg.cfg.ClockPeriodNs // no endpoints: trivially met
	}
	if math.IsInf(cg.worstHold, 1) {
		cg.worstHold = 0
	}
}

// mirrorEndpoints copies the endpoint-scan scalars and hold list into a
// Result; the hold list is nil when clean and never aliases holdBuf.
func (cg *CompiledGraph) mirrorEndpoints(r *Result) {
	r.WNS = cg.wns
	r.TNS = cg.tns
	r.WorstHold = cg.worstHold
	r.HoldViolations = nil
	if len(cg.holdBuf) > 0 {
		r.HoldViolations = append([]*netlist.Instance(nil), cg.holdBuf...)
	}
}

// result returns a Result over the current state plus the endpoint scan.
// It shares the graph's per-net slices, so it is private only once the
// caller drops the graph (Analyze does).
func (cg *CompiledGraph) result() *Result {
	st := cg.netState
	r := &Result{Config: cg.cfg, Revision: cg.d.Revision(), design: cg.d, st: &st}
	cg.mirrorEndpoints(r)
	return r
}
