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
// New compiles the design once into slice-indexed form. Every net gets a
// dense ID in d.Nets() order, and one extra slot holds a constant X that
// open pins read. Flops become (Q, D) ID pairs with their state in a slice.
// Combinational gates become, in TopoOrder, an output ID, a run of input
// IDs in one shared slab and the offset of their cell's truth table. Each
// cell's table has 3^k entries for its k data inputs (at most maxInputs),
// filled by calling the cell's own Function.Eval on every 0/1/X input
// combination, so a table lookup returns exactly what evaluating the
// function would. Eval, Step and EvalStandby are loops over these slices
// and allocate nothing.
//
// EstimateActivity evaluates the design once per cycle: it drives the
// inputs, evaluates, counts toggles and ones per net ID in []int32, and
// captures the flops without re-evaluating, because the next cycle's
// evaluation overwrites every value a second one would produce. It builds
// the Activity maps once, at the end.
//
// oracle_test.go keeps a direct map-keyed evaluator of the same semantics
// (one Function.Eval per gate per evaluation); a property test holds the
// compiled form to it bit for bit.
package sim

import (
	"fmt"
	"math/rand"

	"selectivemt/internal/liberty"
	"selectivemt/internal/logic"
	"selectivemt/internal/netlist"
)

// maxInputs bounds the data inputs of a tabulated cell: 3^8 = 6561 table
// entries. The generated library's widest cell has 4.
const maxInputs = 8

// Simulator evaluates a design combinationally and steps flops on demand.
type Simulator struct {
	d *netlist.Design
	// nets, id and val are indexed by net ID: the design's nets in
	// d.Nets() order, then the constant-X slot (nets[nNets] is nil), then
	// any net an instance pin reaches that d.Nets() does not list.
	nets  []*netlist.Net
	id    map[*netlist.Net]int32
	nNets int32
	val   []logic.Value

	ffQ, ffD []int32       // per flop: Q and D net IDs
	state    []logic.Value // per flop: captured state

	gates  []gate
	pins   []int32       // gate input net IDs, in cell input order
	tables []logic.Value // per-cell truth tables, back to back

	// The TopoOrder walk EvalStandby makes, since its predicates take
	// instances: each entry's output net ID (or -1) and gate index (or -1).
	order  []*netlist.Instance
	outID  []int32
	gateOf []int32
}

// gate is one compiled combinational instance.
type gate struct {
	out   int32 // output net ID
	pins  int32 // offset of the first input ID in Simulator.pins
	k     int32 // number of data inputs
	table int32 // offset of the cell's table in Simulator.tables
}

// New compiles a simulator; it fails on combinational cycles and on cells
// with more than maxInputs data inputs.
func New(d *netlist.Design) (*Simulator, error) {
	order, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}
	nets := d.Nets()
	s := &Simulator{
		d:      d,
		nets:   make([]*netlist.Net, 0, len(nets)),
		id:     make(map[*netlist.Net]int32, len(nets)),
		order:  order,
		outID:  make([]int32, len(order)),
		gateOf: make([]int32, len(order)),
	}
	for _, n := range nets {
		if _, dup := s.id[n]; !dup {
			s.id[n] = int32(len(s.nets))
			s.nets = append(s.nets, n)
		}
	}
	s.nNets = int32(len(s.nets))
	constX := s.nNets
	s.nets = append(s.nets, nil) // the constant-X slot
	tableAt := make(map[*liberty.Cell]int32)
	for i, inst := range order {
		s.outID[i], s.gateOf[i] = -1, -1
		out := inst.OutputNet()
		if out != nil {
			s.outID[i] = s.netID(out)
		}
		c := inst.Cell
		if c.IsSequential() {
			if out != nil {
				dID := constX
				if n := inst.Conns["D"]; n != nil {
					dID = s.netID(n)
				}
				s.ffQ = append(s.ffQ, s.outID[i])
				s.ffD = append(s.ffD, dID)
			}
			continue
		}
		if out == nil || c.Output().Function == nil {
			continue // switches, holders
		}
		ins := c.Inputs()
		if len(ins) > maxInputs {
			return nil, fmt.Errorf("sim: cell %s has %d data inputs; at most %d are supported",
				c.Name, len(ins), maxInputs)
		}
		tab, ok := tableAt[c]
		if !ok {
			tab = int32(len(s.tables))
			tableAt[c] = tab
			s.tables = appendTable(s.tables, c.Output().Function, ins)
		}
		g := gate{out: s.outID[i], pins: int32(len(s.pins)), k: int32(len(ins)), table: tab}
		for _, p := range ins {
			pid := constX
			if n := inst.Conns[p.Name]; n != nil {
				pid = s.netID(n)
			}
			s.pins = append(s.pins, pid)
		}
		s.gateOf[i] = int32(len(s.gates))
		s.gates = append(s.gates, g)
	}
	s.val = make([]logic.Value, len(s.nets))
	for i := range s.val {
		s.val[i] = logic.VX
	}
	s.state = make([]logic.Value, len(s.ffQ))
	for i := range s.state {
		s.state[i] = logic.VX
	}
	return s, nil
}

// netID returns n's ID, giving a net outside d.Nets() a slot past the
// constant X the first time an instance pin reaches it.
func (s *Simulator) netID(n *netlist.Net) int32 {
	if id, ok := s.id[n]; ok {
		return id
	}
	id := int32(len(s.nets))
	s.id[n] = id
	s.nets = append(s.nets, n)
	return id
}

// appendTable appends fn's 3^k-entry truth table over the data inputs ins:
// entry Σ v_i·3^i holds fn evaluated with input i at value v_i (0, 1, X).
func appendTable(tables []logic.Value, fn *logic.Expr, ins []*liberty.Pin) []logic.Value {
	size := 1
	for range ins {
		size *= 3
	}
	env := make(map[string]logic.Value, len(ins))
	for idx := 0; idx < size; idx++ {
		rest := idx
		for _, p := range ins {
			env[p.Name] = logic.Value(rest % 3)
			rest /= 3
		}
		tables = append(tables, norm(fn.Eval(env)))
	}
	return tables
}

// slot returns the value slot of a net, or the constant X for a net the
// simulator has never seen.
func (s *Simulator) slot(n *netlist.Net) int32 {
	if id, ok := s.id[n]; ok {
		return id
	}
	return s.nNets
}

// norm maps anything but 0 and 1 to X, so every stored value indexes a
// truth table.
func norm(v logic.Value) logic.Value {
	if v > logic.VX {
		return logic.VX
	}
	return v
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
	s.val[s.slot(p.Net)] = norm(v)
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
	s.presentState()
	for i, inst := range s.order {
		if gated != nil && gated(inst) {
			if out := s.outID[i]; out >= 0 {
				if holderOn != nil && holderOn(s.nets[out]) {
					s.val[out] = logic.V1
				} else {
					s.val[out] = logic.VX
				}
			}
			continue
		}
		if g := s.gateOf[i]; g >= 0 {
			s.evalGate(&s.gates[g])
		}
	}
}

func (s *Simulator) presentState() {
	for i, q := range s.ffQ {
		s.val[q] = s.state[i]
	}
}

func (s *Simulator) evalGate(g *gate) {
	idx := int32(0)
	for i := g.pins + g.k - 1; i >= g.pins; i-- {
		idx = idx*3 + int32(s.val[s.pins[i]])
	}
	s.val[g.out] = s.tables[g.table+idx]
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
		out[i] = s.nNets
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

// EstimateActivity runs nCycles random cycles and gathers toggle and
// level statistics. Flops start at 0; the first warmup cycles (one eighth)
// are excluded from the statistics. A net toggles in a counted cycle when
// it carries 0 in the previous cycle and 1 in this one, or the reverse.
func EstimateActivity(d *netlist.Design, nCycles int, seed int64) (*Activity, error) {
	s, err := New(d)
	if err != nil {
		return nil, err
	}
	s.ResetState(logic.V0)
	ins, err := s.inputSlots(InputNames(d))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	warmup := nCycles / 8
	cur := s.val[:s.nNets]
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
	act := &Activity{
		Toggle:  make(map[*netlist.Net]float64, len(cur)),
		ProbOne: make(map[*netlist.Net]float64, len(cur)),
		Cycles:  counted,
	}
	if counted == 0 {
		counted = 1
	}
	for i, n := range s.nets[:s.nNets] {
		act.Toggle[n] = float64(toggles[i]) / float64(counted)
		act.ProbOne[n] = float64(ones[i]) / float64(counted)
	}
	return act, nil
}

// InstanceInputState returns the input-pin environment of an instance given
// the simulator's current net values, keyed by pin name — the shape
// Cell.LeakageAt consumes.
func (s *Simulator) InstanceInputState(inst *netlist.Instance) map[string]logic.Value {
	env := make(map[string]logic.Value, 4)
	for _, p := range inst.Cell.Pins {
		if p.Dir != liberty.DirInput || p.IsEnable || p.IsVGND {
			continue
		}
		if n := inst.Conns[p.Name]; n != nil {
			env[p.Name] = s.Value(n)
		} else {
			env[p.Name] = logic.VX
		}
	}
	return env
}
