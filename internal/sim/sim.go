// Package sim is a levelized three-valued (0/1/X) logic simulator over the
// netlist. The flow uses it three ways:
//
//   - equivalence checking between transformation stages (the Fig.2 vs
//     Fig.3 circuits must stay logically identical),
//   - switching-activity estimation feeding dynamic power and sleep-switch
//     current sizing,
//   - standby-state derivation: with the circuit asleep, MT-cell outputs
//     either hold at 1 (output holder present) or float to X, which is
//     exactly the input-state information state-dependent leakage needs.
//
// New compiles the design into slice-indexed form. Net ID 0 is a constant
// X that open pins read; IDs 1 to n are the design's nets in d.Nets()
// order, found through a table indexed by netlist.Net.ID, and any net an
// instance pin reaches that d.Nets() does not list comes after them.
// Instances keep their d.Instances() positions. Every
// instance with a connected output is compiled: its output ID and the IDs
// of its data pins (every input but the enable and VGND pins, in pin
// order) as one run in a shared slab; a flop's run is its D pin. Each cell
// gets two tables over its data pins, 3^k entries for k pins (at most
// maxInputs): a truth table filled by its output function's own Eval on
// every 0/1/X combination (clock-flagged pins left out of the environment,
// so they are don't-cares), and a leakage table filled by Cell.LeakageAt
// on the same combinations. A lookup returns exactly what evaluating the
// function or LeakageAt would. A Kahn pass over the runs lists the
// compiled instances in the order netlist.TopoOrder gives them; the gates
// and flops are laid out in that order. Eval, Step and EvalStandby are
// loops over these slices and allocate nothing.
//
// Update follows the design's change journal the way sta.Incremental
// does (follow.go): swaps re-point tables in place, insertion batches are
// patched, and removals or a lost journal recompile. After an Update that
// saw an edit the simulator is in the state New would leave it in.
//
// Activity evaluates the design once per cycle: it drives the inputs,
// evaluates, counts toggles and ones per net ID in []int32, and captures
// the flops without re-evaluating, because the next cycle's evaluation
// overwrites every value a second one would produce. It keeps the counts
// until the logic changes and builds the Activity maps from them.
//
// oracle_test.go keeps a direct map-keyed evaluator of the same semantics
// (one Function.Eval per gate per evaluation); a property test holds the
// compiled form to it bit for bit.
package sim

import (
	"fmt"
	"math/rand"
	"strings"

	"selectivemt/internal/liberty"
	"selectivemt/internal/logic"
	"selectivemt/internal/netlist"
)

// maxInputs bounds the data pins of a tabulated cell: 3^8 = 6561 table
// entries. The generated library's widest cell has 4.
const maxInputs = 8

// Simulator evaluates a design combinationally and steps flops on demand.
type Simulator struct {
	d   *netlist.Design
	rev uint64 // the design revision the compiled form reflects

	// nets, val and drv are indexed by net ID; drv holds the position of
	// the instance whose output the net is, or -1. idOf maps a listed
	// net's netlist.Net.ID to its ID here (0: not listed).
	nets  []*netlist.Net
	idOf  []int32
	nNets int32 // the listed nets, IDs 1 to nNets
	val   []logic.Value
	drv   []int32

	// insts and ents are aligned with d.Instances().
	insts []*netlist.Instance
	ents  []entry
	pins  []int32 // data-pin net IDs, one run per compiled instance

	cells map[*liberty.Cell]*cellInfo
	truth []logic.Value // per-cell truth tables, back to back
	leak  []float64     // per-cell leakage tables, back to back

	// The compiled instances' positions in topological order, and the
	// gates and flops among them in that order.
	order    []int32
	gates    []gate
	ffQ, ffD []int32
	state    []logic.Value // per flop: captured state

	// kept is the last activity estimate's counts, dropped once the
	// logic changes.
	kept activityCounts

	broken bool // a failed patch left the compiled form half rebound
	stats  Stats
}

// entry is one instance's compiled form.
type entry struct {
	cell *cellInfo
	out  int32 // output net ID, or -1: the instance is not compiled
	pins int32 // offset of its data-pin run in Simulator.pins
	gate int32 // index in Simulator.gates, or -1
}

// cellInfo is what the simulator derives from one cell.
type cellInfo struct {
	seq  bool
	data []int // positions of the data pins in the cell's Pins; a flop's is its D pin (-1: none)
	// key spells out every pin with its direction and flags: a swap
	// between cells of equal key leaves every run and edge as it was.
	key string
	// truth and leak are the offsets of the cell's tables, or -1 for a
	// cell without one: no truth table for flops and cells without an
	// output function, neither for cells too wide to tabulate.
	truth, leak int32
	wide        bool // a gate cell with more than maxInputs data pins
}

// activityCounts is an activity estimate as counts per listed net (in
// ID order), with the cycles and seed it was run with.
type activityCounts struct {
	toggles, ones []int32 // nil: no estimate
	counted       int     // cycles counted after the warmup
	cycles        int
	seed          int64
}

// gate is one compiled combinational instance.
type gate struct {
	out   int32 // output net ID
	pins  int32 // offset of its first data-pin ID in Simulator.pins
	k     int32 // number of data pins
	truth int32 // offset of the cell's truth table in Simulator.truth
}

// Stats counts how the simulator has followed its design.
type Stats struct {
	// Compiles counts New plus every recompile: a lost journal, a batch
	// that removes a net or an instance, or a batch the patch could not
	// apply.
	Compiles int
	Patches  int // insertion batches patched in place
	Swaps    int // swap and move batches applied in place
	Noops    int // Update calls with a clean journal
}

// New compiles a simulator; it fails on combinational cycles and on gates
// with more than maxInputs data pins.
func New(d *netlist.Design) (*Simulator, error) {
	nets := d.Nets()
	s := &Simulator{
		d:     d,
		rev:   d.Revision(),
		nets:  make([]*netlist.Net, 1, len(nets)+1),
		idOf:  make([]int32, d.NetSlots()),
		val:   make([]logic.Value, 1, len(nets)+1),
		drv:   make([]int32, 1, len(nets)+1),
		cells: make(map[*liberty.Cell]*cellInfo),
		stats: Stats{Compiles: 1},
	}
	s.val[0], s.drv[0] = logic.VX, -1 // the constant-X slot
	for _, n := range nets {
		s.listNet(n)
	}
	s.nNets = int32(len(s.nets) - 1)
	s.insts = d.Instances()
	s.ents = make([]entry, len(s.insts))
	for pos := range s.ents {
		s.ents[pos] = entry{out: -1, pins: -1, gate: -1}
		if err := s.bind(int32(pos)); err != nil {
			return nil, err
		}
	}
	if err := s.levelize(); err != nil {
		return nil, err
	}
	return s, nil
}

// Design returns the design the simulator follows.
func (s *Simulator) Design() *netlist.Design { return s.d }

// Stats returns the update counters.
func (s *Simulator) Stats() Stats { return s.stats }

// Instances returns the design's instances in d.Instances() order as of
// the last compile or Update. The slice is the simulator's own.
func (s *Simulator) Instances() []*netlist.Instance { return s.insts }

// addNet gives n the next ID, with value X and no driver.
func (s *Simulator) addNet(n *netlist.Net) int32 {
	id := int32(len(s.nets))
	s.nets = append(s.nets, n)
	s.val = append(s.val, logic.VX)
	s.drv = append(s.drv, -1)
	return id
}

// listNet adds one of d.Nets() and indexes it by its netlist ID.
func (s *Simulator) listNet(n *netlist.Net) {
	k := int(n.ID())
	if k >= len(s.idOf) {
		s.idOf = append(s.idOf, make([]int32, k+1-len(s.idOf))...)
	}
	s.idOf[k] = s.addNet(n)
}

// netID returns n's ID, giving a net outside d.Nets() one past the listed
// nets the first time an instance pin reaches it.
func (s *Simulator) netID(n *netlist.Net) int32 {
	if id := s.slot(n); id > 0 {
		return id
	}
	return s.addNet(n)
}

// cellOf returns c's derived form, tabulating c on first sight.
func (s *Simulator) cellOf(c *liberty.Cell) *cellInfo {
	if ci, ok := s.cells[c]; ok {
		return ci
	}
	ci := &cellInfo{seq: c.IsSequential(), truth: -1, leak: -1}
	var key strings.Builder
	var data []*liberty.Pin
	for k, p := range c.Pins {
		fmt.Fprintf(&key, "%s:%d:%t:%t:%t;", p.Name, p.Dir, p.IsClock, p.IsEnable, p.IsVGND)
		if p.Dir == liberty.DirInput && !p.IsEnable && !p.IsVGND {
			data = append(data, p)
			ci.data = append(ci.data, k)
		}
	}
	ci.key = key.String()
	s.cells[c] = ci
	if ci.seq {
		ci.data = []int{c.PinIndex("D")}
		return ci
	}
	fn := (*logic.Expr)(nil)
	if out := c.Output(); out != nil {
		fn = out.Function
	}
	if len(data) > maxInputs {
		ci.wide = fn != nil
		return ci
	}
	if fn != nil {
		ci.truth = int32(len(s.truth))
		s.truth = appendTable(s.truth, data, true, func(env map[string]logic.Value) logic.Value {
			return norm(fn.Eval(env))
		})
	}
	ci.leak = int32(len(s.leak))
	s.leak = appendTable(s.leak, data, false, c.LeakageAt)
	return ci
}

// appendTable appends f's 3^k-entry table over the data pins: entry
// Σ v_i·3^i holds f with pin i at value v_i (0, 1, X). With skipClock the
// clock-flagged pins stay out of f's environment.
func appendTable[T any](table []T, pins []*liberty.Pin, skipClock bool, f func(map[string]logic.Value) T) []T {
	size := 1
	for range pins {
		size *= 3
	}
	env := make(map[string]logic.Value, len(pins))
	for idx := 0; idx < size; idx++ {
		rest := idx
		for _, p := range pins {
			if !skipClock || !p.IsClock {
				env[p.Name] = logic.Value(rest % 3)
			}
			rest /= 3
		}
		table = append(table, f(env))
	}
	return table
}

// bind compiles the instance at pos from its current cell and pins. An
// instance without a connected output is not compiled: it writes no net,
// and its leakage comes from its cell on demand.
func (s *Simulator) bind(pos int32) error {
	inst := s.insts[pos]
	e := &s.ents[pos]
	old, ci := e.cell, s.cellOf(inst.Cell)
	e.cell, e.gate = ci, -1
	out := inst.OutputNet()
	if out == nil {
		e.out = -1
		return nil
	}
	if ci.wide {
		return fmt.Errorf("sim: cell %s has %d data inputs; at most %d are supported",
			inst.Cell.Name, len(ci.data), maxInputs)
	}
	e.out = s.netID(out)
	s.drv[e.out] = pos
	if e.pins < 0 || old == nil || len(old.data) != len(ci.data) {
		e.pins = int32(len(s.pins))
		s.pins = append(s.pins, make([]int32, len(ci.data))...)
	}
	for j, k := range ci.data {
		id := int32(0)
		if k >= 0 {
			if n := inst.NetAt(k); n != nil {
				id = s.netID(n)
			}
		}
		s.pins[e.pins+int32(j)] = id
	}
	return nil
}

// levelize lists the compiled instances in topological order and lays
// the gates and flops out in it. It is netlist.TopoOrder's Kahn pass over
// the simulator's own runs, with the same edges (from the instance
// driving a data pin's net to the pin's instance, flops neither), the
// same ready queue and the same tie order, so the order is TopoOrder's
// with the uncompiled instances left out. Those drive nothing, so leaving
// them out moves no other instance. It fails on a combinational cycle.
func (s *Simulator) levelize() error {
	n := len(s.ents)
	forEachEdge := func(visit func(drv, sink int32)) {
		for si := range s.ents {
			e := &s.ents[si]
			if e.out < 0 || e.cell.seq {
				continue
			}
			for _, id := range s.pins[e.pins : e.pins+int32(len(e.cell.data))] {
				if d := s.drv[id]; d >= 0 && !s.ents[d].cell.seq {
					visit(d, int32(si))
				}
			}
		}
	}
	off := make([]int32, n+1)
	forEachEdge(func(drv, _ int32) { off[drv+1]++ })
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	indeg := make([]int32, n)
	dep := make([]int32, off[n])
	fill := make([]int32, n)
	copy(fill, off[:n])
	forEachEdge(func(drv, sink int32) {
		dep[fill[drv]] = sink
		fill[drv]++
		indeg[sink]++
	})
	order := s.order[:0]
	compiled := 0
	for i := range s.ents {
		if s.ents[i].out >= 0 {
			compiled++
			if indeg[i] == 0 {
				order = append(order, int32(i))
			}
		}
	}
	for qi := 0; qi < len(order); qi++ {
		i := order[qi]
		for _, sk := range dep[off[i]:off[i+1]] {
			indeg[sk]--
			if indeg[sk] == 0 {
				order = append(order, sk)
			}
		}
	}
	s.order = order
	if len(order) != compiled {
		return fmt.Errorf("sim: combinational cycle among %d instances", compiled-len(order))
	}
	s.gates, s.ffQ, s.ffD = s.gates[:0], s.ffQ[:0], s.ffD[:0]
	for _, pos := range order {
		e := &s.ents[pos]
		switch {
		case e.cell.seq:
			s.ffQ = append(s.ffQ, e.out)
			s.ffD = append(s.ffD, s.pins[e.pins])
		case e.cell.truth >= 0:
			e.gate = int32(len(s.gates))
			s.gates = append(s.gates, gate{out: e.out, pins: e.pins, k: int32(len(e.cell.data)), truth: e.cell.truth})
		}
	}
	s.state = make([]logic.Value, len(s.ffQ))
	s.ResetState(logic.VX)
	return nil
}

// slot returns the value slot of a net, or the constant X for a net the
// simulator has never seen. A net of another design can carry a listed
// net's netlist ID, so the table's answer counts only when it holds n.
func (s *Simulator) slot(n *netlist.Net) int32 {
	if k := int(n.ID()); k < len(s.idOf) {
		if id := s.idOf[k]; s.nets[id] == n {
			return id
		}
	}
	for id := 1 + s.nNets; id < int32(len(s.nets)); id++ {
		if s.nets[id] == n {
			return id // a net outside d.Nets()
		}
	}
	return 0
}

// norm maps anything but 0 and 1 to X, so every stored value indexes a
// table.
func norm(v logic.Value) logic.Value {
	if v > logic.VX {
		return logic.VX
	}
	return v
}

// Reset returns every net and flop to X, the state New leaves them in.
func (s *Simulator) Reset() {
	for i := range s.val {
		s.val[i] = logic.VX
	}
	s.ResetState(logic.VX)
}

// ResetState forces every flop's state to v.
func (s *Simulator) ResetState(v logic.Value) {
	v = norm(v)
	for i := range s.state {
		s.state[i] = v
	}
}

// SetInput drives a primary input port.
func (s *Simulator) SetInput(port string, v logic.Value) error {
	p := s.d.PortByName(port)
	if p == nil || p.Dir != netlist.DirInput {
		return fmt.Errorf("sim: no input port %q", port)
	}
	if id := s.slot(p.Net); id > 0 {
		s.val[id] = norm(v)
	}
	return nil
}

// Value returns the current value on a net.
func (s *Simulator) Value(n *netlist.Net) logic.Value { return s.val[s.slot(n)] }

// PortValue returns the value at a port.
func (s *Simulator) PortValue(name string) (logic.Value, error) {
	p := s.d.PortByName(name)
	if p == nil {
		return logic.VX, fmt.Errorf("sim: no port %q", name)
	}
	return s.Value(p.Net), nil
}

// Eval propagates values combinationally: flop outputs present their state,
// then every combinational instance evaluates in topological order.
func (s *Simulator) Eval() {
	s.presentState()
	for i := range s.gates {
		s.evalGate(&s.gates[i])
	}
}

// EvalStandby propagates values with the sleep mode asserted: instances for
// which gated() is true do not evaluate; their outputs hold at 1 when
// holderOn() reports an output holder on the net, and float to X otherwise.
// This realizes the paper's output-holder semantics ("sets the output of
// the improved MT-cell to one when a circuit is on standby").
func (s *Simulator) EvalStandby(gated func(*netlist.Instance) bool, holderOn func(*netlist.Net) bool) {
	if gated == nil {
		s.Eval()
		return
	}
	s.presentState()
	// Gated flops first: flops sit among the sources in the order, so a
	// gate listed before one would otherwise read its state, and the net
	// would carry two values in one evaluation.
	for _, pos := range s.order {
		if e := &s.ents[pos]; e.cell.seq && gated(s.insts[pos]) {
			s.hold(e.out, holderOn)
		}
	}
	for _, pos := range s.order {
		e := &s.ents[pos]
		switch {
		case e.cell.seq:
		case gated(s.insts[pos]):
			s.hold(e.out, holderOn)
		case e.gate >= 0:
			s.evalGate(&s.gates[e.gate])
		}
	}
}

// hold sets a gated instance's output net: 1 under an output holder, X
// otherwise.
func (s *Simulator) hold(out int32, holderOn func(*netlist.Net) bool) {
	if holderOn != nil && holderOn(s.nets[out]) {
		s.val[out] = logic.V1
	} else {
		s.val[out] = logic.VX
	}
}

func (s *Simulator) presentState() {
	for i, q := range s.ffQ {
		s.val[q] = s.state[i]
	}
}

// index is the table index of a data-pin run's current values.
func (s *Simulator) index(pins, k int32) int32 {
	idx := int32(0)
	for i := pins + k - 1; i >= pins; i-- {
		idx = idx*3 + int32(s.val[s.pins[i]])
	}
	return idx
}

func (s *Simulator) evalGate(g *gate) {
	s.val[g.out] = s.truth[g.truth+s.index(g.pins, g.k)]
}

// Leakage returns the powered leakage of the instance at position i of
// Instances in the current net values: a lookup in its cell's leakage
// table, or Cell.LeakageAt on InstanceInputState for an instance the
// simulator does not compile or a cell without a table.
func (s *Simulator) Leakage(i int) float64 {
	e := &s.ents[i]
	if e.out < 0 || e.cell.leak < 0 {
		inst := s.insts[i]
		return inst.Cell.LeakageAt(s.InstanceInputState(inst))
	}
	return s.leak[e.cell.leak+s.index(e.pins, int32(len(e.cell.data)))]
}

// Step captures every flop's D input into its state (a global clock edge)
// and re-propagates.
func (s *Simulator) Step() {
	s.capture()
	s.Eval()
}

func (s *Simulator) capture() {
	for i, d := range s.ffD {
		s.state[i] = s.val[d]
	}
}

// InputNames returns, in port order, the names of the primary inputs that
// take stimulus: every input port but the clock and the sleep enable. Both
// are recognized from the netlist, whatever their names: a port is the
// clock when it or its net is marked as clock or its net reaches a clock
// pin (a flop's CK, a clock buffer's A), and the sleep enable when its net
// is the MTE network or reaches an enable pin.
func InputNames(d *netlist.Design) []string {
	var out []string
	for _, p := range d.Ports() {
		if p.Dir != netlist.DirInput {
			continue
		}
		clock := p.IsClock || p.Net.IsClock || reachesPin(p.Net, func(lp *liberty.Pin) bool { return lp.IsClock })
		enable := p.Net.IsMTE || reachesPin(p.Net, func(lp *liberty.Pin) bool { return lp.IsEnable })
		if !clock && !enable {
			out = append(out, p.Name)
		}
	}
	return out
}

// reachesPin reports whether any instance pin on n satisfies want.
func reachesPin(n *netlist.Net, want func(*liberty.Pin) bool) bool {
	for _, sk := range n.Sinks {
		if sk.Inst == nil {
			continue
		}
		if lp := sk.Inst.Cell.Pin(sk.Pin); lp != nil && want(lp) {
			return true
		}
	}
	return false
}

// OutputNames returns the primary output port names in order.
func OutputNames(d *netlist.Design) []string {
	var out []string
	for _, p := range d.Ports() {
		if p.Dir == netlist.DirOutput {
			out = append(out, p.Name)
		}
	}
	return out
}

// inputSlots resolves input port names to value slots, failing like
// SetInput on the first name that is not an input port.
func (s *Simulator) inputSlots(names []string) ([]int32, error) {
	out := make([]int32, len(names))
	for i, name := range names {
		p := s.d.PortByName(name)
		if p == nil || p.Dir != netlist.DirInput {
			return nil, fmt.Errorf("sim: no input port %q", name)
		}
		out[i] = s.slot(p.Net)
	}
	return out, nil
}

// portSlots resolves port names to value slots; a missing port reads X.
func (s *Simulator) portSlots(names []string) []int32 {
	out := make([]int32, len(names))
	for i, name := range names {
		if p := s.d.PortByName(name); p != nil {
			out[i] = s.slot(p.Net)
		}
	}
	return out
}

// Equivalent drives both designs with the same nCycles random input
// sequences (flops reset to 0) and compares all primary outputs each cycle.
// X on either side is treated as a mismatch unless both are X.
func Equivalent(a, b *netlist.Design, nCycles int, seed int64) (bool, string, error) {
	sa, err := New(a)
	if err != nil {
		return false, "", err
	}
	sb, err := New(b)
	if err != nil {
		return false, "", err
	}
	ins := InputNames(a)
	insB := InputNames(b)
	if len(ins) != len(insB) {
		return false, fmt.Sprintf("input count %d vs %d", len(ins), len(insB)), nil
	}
	outs := OutputNames(a)
	outsB := OutputNames(b)
	if len(outs) != len(outsB) {
		return false, fmt.Sprintf("output count %d vs %d", len(outs), len(outsB)), nil
	}
	if nCycles <= 0 {
		return true, "", nil
	}
	inA, err := sa.inputSlots(ins)
	if err != nil {
		return false, "", err
	}
	inB, err := sb.inputSlots(ins)
	if err != nil {
		return false, "", err
	}
	outA, outB := sa.portSlots(outs), sb.portSlots(outs)
	sa.ResetState(logic.V0)
	sb.ResetState(logic.V0)
	rng := rand.New(rand.NewSource(seed))
	for cyc := 0; cyc < nCycles; cyc++ {
		for i := range inA {
			v := logic.Value(rng.Intn(2))
			sa.val[inA[i]] = v
			sb.val[inB[i]] = v
		}
		sa.Eval()
		sb.Eval()
		for i, out := range outs {
			if va, vb := sa.val[outA[i]], sb.val[outB[i]]; va != vb {
				return false, fmt.Sprintf("cycle %d output %s: %v vs %v", cyc, out, va, vb), nil
			}
		}
		// The next cycle's Eval overwrites everything a re-evaluation
		// here would produce, so the clock edge only captures.
		sa.capture()
		sb.capture()
	}
	return true, "", nil
}

// Activity holds per-net switching statistics from a random simulation.
type Activity struct {
	// Toggle is the per-cycle toggle probability of each net.
	Toggle map[*netlist.Net]float64
	// ProbOne is the probability the net carries a 1.
	ProbOne map[*netlist.Net]float64
	Cycles  int
}

// EstimateActivity compiles d and runs its Activity.
func EstimateActivity(d *netlist.Design, nCycles int, seed int64) (*Activity, error) {
	s, err := New(d)
	if err != nil {
		return nil, err
	}
	return s.Activity(nCycles, seed)
}

// Activity runs nCycles random cycles from a fresh state and gathers
// toggle and level statistics. Flops start at 0; the first warmup cycles
// (one eighth) are excluded from the statistics. A net toggles in a
// counted cycle when it carries 0 in the previous cycle and 1 in this
// one, or the reverse.
//
// The counts are kept: asked again with the same cycles and seed, the
// simulator answers from them, without simulating, as long as no Update
// has seen a logic edit since (anything but moves and swaps that keep
// every truth table).
func (s *Simulator) Activity(nCycles int, seed int64) (*Activity, error) {
	k := &s.kept
	if k.toggles == nil || k.cycles != nCycles || k.seed != seed {
		if err := s.countActivity(nCycles, seed); err != nil {
			return nil, err
		}
	}
	act := &Activity{
		Toggle:  make(map[*netlist.Net]float64, len(k.toggles)),
		ProbOne: make(map[*netlist.Net]float64, len(k.ones)),
		Cycles:  k.counted,
	}
	counted := max(k.counted, 1)
	for i, n := range s.nets[1 : 1+s.nNets] {
		act.Toggle[n] = float64(k.toggles[i]) / float64(counted)
		act.ProbOne[n] = float64(k.ones[i]) / float64(counted)
	}
	return act, nil
}

// countActivity runs Activity's simulation and keeps its counts.
func (s *Simulator) countActivity(nCycles int, seed int64) error {
	s.kept = activityCounts{}
	s.Reset()
	s.ResetState(logic.V0)
	ins, err := s.inputSlots(InputNames(s.d))
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	warmup := nCycles / 8
	cur := s.val[1 : 1+s.nNets]
	toggles := make([]int32, len(cur))
	ones := make([]int32, len(cur))
	// prev starts all X, so nothing toggles in the first cycle: for values
	// in {0, 1, X}, prev^v == 1 exactly when one is 0 and the other 1.
	prev := make([]logic.Value, len(cur))
	for i := range prev {
		prev[i] = logic.VX
	}
	counted := 0
	for cyc := 0; cyc < nCycles; cyc++ {
		for _, in := range ins {
			s.val[in] = logic.Value(rng.Intn(2))
		}
		s.Eval()
		if cyc >= warmup {
			counted++
			for i, v := range cur {
				if v == logic.V1 {
					ones[i]++
				}
				if prev[i]^v == 1 {
					toggles[i]++
				}
			}
		}
		copy(prev, cur)
		// The next cycle's Eval overwrites everything a re-evaluation here
		// would produce, so the clock edge only captures.
		s.capture()
	}
	s.kept = activityCounts{toggles: toggles, ones: ones, counted: counted, cycles: nCycles, seed: seed}
	return nil
}

// InstanceInputState returns the input-pin environment of an instance given
// the simulator's current net values, keyed by pin name — the shape
// Cell.LeakageAt consumes.
func (s *Simulator) InstanceInputState(inst *netlist.Instance) map[string]logic.Value {
	env := make(map[string]logic.Value, 4)
	for k, p := range inst.Cell.Pins {
		if p.Dir != liberty.DirInput || p.IsEnable || p.IsVGND {
			continue
		}
		if n := inst.NetAt(k); n != nil {
			env[p.Name] = s.Value(n)
		} else {
			env[p.Name] = logic.VX
		}
	}
	return env
}
