// Package liberty models the standard-cell library: cells with NLDM timing
// tables, state-dependent leakage, pin capacitances and the MT-cell variants
// the Selective-MT methodology needs. It can generate a characterized
// library from a tech.Process, write it in a Liberty-subset text format and
// parse that format back.
//
// Cell naming follows <BASE>_X<drive>_<flavor>:
//
//	flavor L  — low-Vth cell
//	flavor H  — high-Vth cell
//	flavor M  — conventional MT-cell (embedded switch + embedded holder)
//	flavor MN — improved MT-cell *without* VGND port (assignment-stage view)
//	flavor MV — improved MT-cell *with* VGND port (physical view)
//
// plus the special cells SLEEPSW_X<n> (shared sleep switches), HOLDER_X1
// (separated output holder) and CKBUF_X<n> (clock buffers).
package liberty

import (
	"fmt"
	"sort"

	"selectivemt/internal/logic"
	"selectivemt/internal/tech"
)

// Flavor identifies the Vth/MT variant of a cell.
type Flavor string

// Cell flavor codes; see the package comment.
const (
	FlavorLVT      Flavor = "L"
	FlavorHVT      Flavor = "H"
	FlavorMTConv   Flavor = "M"
	FlavorMTNoVGND Flavor = "MN"
	FlavorMTVGND   Flavor = "MV"
	FlavorSpecial  Flavor = "S" // switches, holders, clock buffers
)

// Kind classifies what a cell is.
type Kind int

// Cell kinds.
const (
	KindComb Kind = iota
	KindFF
	KindSwitch
	KindHolder
	KindClockBuf
	KindTie
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindComb:
		return "comb"
	case KindFF:
		return "ff"
	case KindSwitch:
		return "switch"
	case KindHolder:
		return "holder"
	case KindClockBuf:
		return "ckbuf"
	case KindTie:
		return "tie"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Dir is a pin direction.
type Dir int

// Pin directions.
const (
	DirInput Dir = iota
	DirOutput
)

// Pin describes one cell pin.
type Pin struct {
	Name     string
	Dir      Dir
	CapPF    float64     // input capacitance (inputs; holders also load their net)
	Function *logic.Expr // output pins: logic function of input pins
	IsClock  bool        // clock input of a flop or clock buffer
	IsEnable bool        // MTE sleep-enable input
	IsVGND   bool        // virtual-ground supply port (improved MT-cells)
}

// Table is a 2-D NLDM lookup table indexed by input slew (ns) and output
// load (pF).
type Table struct {
	Slew []float64   // index_1, ns, ascending
	Load []float64   // index_2, pF, ascending
	Val  [][]float64 // [len(Slew)][len(Load)]
}

// Lookup bilinearly interpolates the table at (slew, load), clamping to the
// table edges (the standard NLDM convention for out-of-range queries is
// extrapolation; clamping is safer and monotone).
func (t *Table) Lookup(slew, load float64) float64 {
	i0, i1, fi := bracket(t.Slew, slew)
	j0, j1, fj := bracket(t.Load, load)
	v00 := t.Val[i0][j0]
	v01 := t.Val[i0][j1]
	v10 := t.Val[i1][j0]
	v11 := t.Val[i1][j1]
	return v00*(1-fi)*(1-fj) + v10*fi*(1-fj) + v01*(1-fi)*fj + v11*fi*fj
}

func bracket(axis []float64, x float64) (lo, hi int, frac float64) {
	n := len(axis)
	if n == 1 {
		return 0, 0, 0
	}
	if x <= axis[0] {
		return 0, 0, 0
	}
	if x >= axis[n-1] {
		return n - 1, n - 1, 0
	}
	idx := sort.SearchFloat64s(axis, x)
	if idx >= n {
		// Unreachable for the sorted finite axes the builder and parser
		// guarantee; a NaN query would otherwise index past the axis.
		return n - 1, n - 1, 0
	}
	lo, hi = idx-1, idx
	frac = (x - axis[lo]) / (axis[hi] - axis[lo])
	return lo, hi, frac
}

// Arc is a combinational or clock-to-output timing arc with rise/fall delay
// and output-slew tables.
type Arc struct {
	From, To  string
	DelayRise *Table
	DelayFall *Table
	SlewRise  *Table
	SlewFall  *Table
}

// WorstDelay returns the larger of the rise/fall delays at the operating
// point.
func (a *Arc) WorstDelay(slew, load float64) float64 {
	r := a.DelayRise.Lookup(slew, load)
	f := a.DelayFall.Lookup(slew, load)
	if r > f {
		return r
	}
	return f
}

// WorstSlew returns the larger of the rise/fall output slews.
func (a *Arc) WorstSlew(slew, load float64) float64 {
	r := a.SlewRise.Lookup(slew, load)
	f := a.SlewFall.Lookup(slew, load)
	if r > f {
		return r
	}
	return f
}

// LeakageState is a state-dependent leakage entry: PowerMW applies when the
// When condition holds on the cell's input pins.
type LeakageState struct {
	When    *logic.Expr
	PowerMW float64
}

// Cell is one library cell.
type Cell struct {
	Name    string
	Base    string // function family, e.g. "NAND2"
	Drive   int    // 1, 2, 4, ...
	Flavor  Flavor
	Kind    Kind
	Vth     tech.VthClass
	AreaUm2 float64

	Pins []*Pin
	Arcs []*Arc

	// Leakage when the cell is powered (MTE active or no MTE).
	LeakageMW     float64        // state-averaged
	LeakageStates []LeakageState // state-dependent detail

	// Leakage when the sleep switch is off. Zero for MV cells (their
	// standby leakage is billed to the shared switch instance); the
	// embedded-switch+holder leakage for conventional M cells.
	StandbyLeakMW float64

	// Flop attributes.
	SetupNs, HoldNs float64
	ClkToQNs        float64 // nominal, the arcs carry the tables

	// Switch attributes.
	SwitchWidthUm float64 // sleep-switch device width (KindSwitch and flavor M)

	// Characterization hooks used by sizing and VGND analysis.
	InputCapPF    float64 // total input cap across data pins
	PeakCurrentMA float64 // worst-case discharge current of the cell
}

// Pin returns the named pin, or nil.
func (c *Cell) Pin(name string) *Pin {
	for _, p := range c.Pins {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// PinIndex returns the position of the named pin in Pins, or -1.
func (c *Cell) PinIndex(name string) int {
	for k, p := range c.Pins {
		if p.Name == name {
			return k
		}
	}
	return -1
}

// Output returns the first output pin, or nil (switch cells have none).
func (c *Cell) Output() *Pin {
	for _, p := range c.Pins {
		if p.Dir == DirOutput {
			return p
		}
	}
	return nil
}

// Inputs returns the data input pins (excluding clock, MTE and VGND).
func (c *Cell) Inputs() []*Pin {
	var out []*Pin
	for _, p := range c.Pins {
		if p.Dir == DirInput && !p.IsClock && !p.IsEnable && !p.IsVGND {
			out = append(out, p)
		}
	}
	return out
}

// IsSequential reports whether the cell is a flop.
func (c *Cell) IsSequential() bool { return c.Kind == KindFF }

// IsMT reports whether the cell is any MT variant (gated by a sleep switch).
func (c *Cell) IsMT() bool {
	return c.Flavor == FlavorMTConv || c.Flavor == FlavorMTNoVGND || c.Flavor == FlavorMTVGND
}

// Arc returns the arc from the given input pin to the given output pin.
func (c *Cell) Arc(from, to string) *Arc {
	for _, a := range c.Arcs {
		if a.From == from && a.To == to {
			return a
		}
	}
	return nil
}

// LeakageAt returns the powered leakage in the given input state, falling
// back to the state-averaged value when no state matches.
func (c *Cell) LeakageAt(env map[string]logic.Value) float64 {
	for _, ls := range c.LeakageStates {
		if ls.When.Eval(env) == logic.V1 {
			return ls.PowerMW
		}
	}
	return c.LeakageMW
}

// Library is a set of cells plus the process they were characterized for.
type Library struct {
	Name    string
	Proc    *tech.Process
	Cells   map[string]*Cell
	ordered []string

	// BounceLimitV is the VGND bounce the MT timing tables were derated
	// for; the VGND analysis must keep actual bounce under this.
	BounceLimitV float64
}

// NewLibrary creates an empty library for the process.
func NewLibrary(name string, proc *tech.Process) *Library {
	return &Library{Name: name, Proc: proc, Cells: make(map[string]*Cell)}
}

// Add inserts a cell; duplicate names are an error.
func (l *Library) Add(c *Cell) error {
	if _, dup := l.Cells[c.Name]; dup {
		return fmt.Errorf("liberty: duplicate cell %q", c.Name)
	}
	l.Cells[c.Name] = c
	l.ordered = append(l.ordered, c.Name)
	return nil
}

// Cell returns the named cell, or nil.
func (l *Library) Cell(name string) *Cell { return l.Cells[name] }

// CellNames returns cell names in insertion order.
func (l *Library) CellNames() []string {
	out := make([]string, len(l.ordered))
	copy(out, l.ordered)
	return out
}

// Variant returns the cell with the same base function and drive as c but
// the requested flavor, or nil when the library has none (e.g. flops have
// no MT variants).
func (l *Library) Variant(c *Cell, f Flavor) *Cell {
	if c.Flavor == f {
		return c
	}
	name := fmt.Sprintf("%s_X%d_%s", c.Base, c.Drive, f)
	return l.Cells[name]
}

// Drives returns the available drive strengths for a base function and
// flavor, ascending.
func (l *Library) Drives(base string, f Flavor) []int {
	var out []int
	for _, name := range l.ordered {
		c := l.Cells[name]
		if c.Base == base && c.Flavor == f {
			out = append(out, c.Drive)
		}
	}
	sort.Ints(out)
	return out
}

// SwitchCells returns the sleep-switch cells ascending by width.
func (l *Library) SwitchCells() []*Cell {
	var out []*Cell
	for _, name := range l.ordered {
		if c := l.Cells[name]; c.Kind == KindSwitch {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SwitchWidthUm < out[j].SwitchWidthUm })
	return out
}

// SmallestSwitchFor returns the smallest sleep switch whose width is at
// least widthUm, or the largest available if none suffices (the caller is
// expected to split the cluster in that case).
func (l *Library) SmallestSwitchFor(widthUm float64) *Cell {
	sw := l.SwitchCells()
	if len(sw) == 0 {
		return nil
	}
	for _, c := range sw {
		if c.SwitchWidthUm >= widthUm {
			return c
		}
	}
	return sw[len(sw)-1]
}

// Holder returns the output-holder cell.
func (l *Library) Holder() *Cell {
	for _, name := range l.ordered {
		if c := l.Cells[name]; c.Kind == KindHolder {
			return c
		}
	}
	return nil
}
