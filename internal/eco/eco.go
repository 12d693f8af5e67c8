// Package eco performs the final engineering-change-order pass of the
// Fig. 4 flow: fixing hold violations introduced by clock-tree skew by
// padding short paths with delay buffers in front of violating flop D
// pins, then re-verifying.
package eco

import (
	"fmt"

	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/place"
	"selectivemt/internal/sta"
)

// Options controls hold fixing.
type Options struct {
	BufName   string // delay buffer cell
	MaxPasses int
	PlaceOpts place.Options
}

// DefaultOptions returns the ECO options the flow uses.
func DefaultOptions(placeOpts place.Options) Options {
	return Options{BufName: "BUF_X1_H", MaxPasses: 8, PlaceOpts: placeOpts}
}

// Insertion records one padding batch: Count buffers inserted in front of
// the named flop's D pin. The Result's Insertions list them in application
// order, so replaying them — same flops, same counts, same order — on a
// structurally identical design reproduces the ECO's netlist surgery
// exactly (the multi-corner sign-off uses this to mirror a binding-corner
// hold fix into every other corner view).
type Insertion struct {
	Flop  string
	Count int
}

// Result reports the ECO outcome.
type Result struct {
	BuffersInserted int
	Passes          int
	Timing          *sta.Result
	Insertions      []Insertion
}

// FixHoldWith inserts delay buffers at violating flop D inputs until hold
// is clean or MaxPasses is exhausted. Buffers are placed next to the flop
// so the added wire does not disturb setup estimates elsewhere. It runs
// on the caller's timing graph, which follows the padding at retime cost
// and stays with the caller for later queries: the flow measures on it,
// and a multi-corner session keeps each corner's persistent timer.
func FixHoldWith(inc *sta.Incremental, opts Options) (*Result, error) {
	d := inc.Design()
	if opts.MaxPasses <= 0 {
		opts.MaxPasses = 8
	}
	buf := d.Lib.Cell(opts.BufName)
	if buf == nil {
		return nil, fmt.Errorf("eco: library lacks %q", opts.BufName)
	}
	res := &Result{}
	for pass := 0; pass < opts.MaxPasses; pass++ {
		res.Passes = pass + 1
		timing, err := inc.Update()
		if err != nil {
			return nil, err
		}
		res.Timing = timing
		if len(timing.HoldViolations) == 0 {
			return res, nil
		}
		for _, ff := range timing.HoldViolations {
			dNet := ff.Net("D")
			if dNet == nil {
				continue
			}
			// Size the padding chain from the deficit: each buffer adds
			// roughly its nominal delay at the flop's input load.
			deficit := -holdSlackAt(timing, ff)
			per := bufferDelay(buf, ff)
			n := 1
			if per > 0 && deficit > 0 {
				n = int(deficit/per) + 1
			}
			if n > 24 {
				n = 24
			}
			if err := insertPadding(d, ff, buf, n, opts); err != nil {
				return nil, err
			}
			res.BuffersInserted += n
			res.Insertions = append(res.Insertions, Insertion{Flop: ff.Name, Count: n})
		}
	}
	timing, err := inc.Update()
	if err != nil {
		return nil, err
	}
	res.Timing = timing
	return res, nil
}

// insertPadding inserts n delay buffers in front of ff's D pin — the
// single netlist-surgery primitive both the hold-fix loop and Replay go
// through, so a recorded fix and its replay cannot diverge.
func insertPadding(d *netlist.Design, ff *netlist.Instance, buf *liberty.Cell, n int, opts Options) error {
	for i := 0; i < n; i++ {
		dNet := ff.Net("D")
		if dNet == nil {
			return fmt.Errorf("eco: flop %s has no D net", ff.Name)
		}
		b, err := d.InsertBuffer(dNet, buf, []netlist.PinRef{{Inst: ff, Pin: "D"}})
		if err != nil {
			return fmt.Errorf("eco: buffering %s.D: %w", ff.Name, err)
		}
		place.PlaceNear(d, b, ff.Pos, opts.PlaceOpts)
		b.Fixed = true
	}
	return nil
}

// Replay reapplies a recorded insertion sequence to a structurally
// identical design (same flop names, same name counter): the replayed
// buffers come out identical name for name and net for net, which is
// how the multi-corner sign-off mirrors a binding-corner hold fix into
// every other corner view.
func Replay(d *netlist.Design, log []Insertion, opts Options) error {
	if len(log) == 0 {
		return nil
	}
	buf := d.Lib.Cell(opts.BufName)
	if buf == nil {
		return fmt.Errorf("eco: library %s lacks %q", d.Lib.Name, opts.BufName)
	}
	for _, rec := range log {
		ff := d.Instance(rec.Flop)
		if ff == nil {
			return fmt.Errorf("eco: replay: flop %s missing", rec.Flop)
		}
		if err := insertPadding(d, ff, buf, rec.Count, opts); err != nil {
			return err
		}
	}
	return nil
}

// holdSlackAt recomputes one flop's hold slack from the analysis.
func holdSlackAt(timing *sta.Result, ff *netlist.Instance) float64 {
	dNet := ff.Net("D")
	if dNet == nil {
		return 0
	}
	_, am, ok := timing.Arrival(dNet)
	if !ok {
		return 0
	}
	lat := 0.0
	if timing.Config.ClockArrival != nil {
		lat = timing.Config.ClockArrival(ff)
	}
	return am - lat - ff.Cell.HoldNs
}

// bufferDelay estimates one padding buffer's contribution at the flop's
// input load.
func bufferDelay(buf *liberty.Cell, ff *netlist.Instance) float64 {
	arc := buf.Arcs[0]
	load := 0.002
	if p := ff.Cell.Pin("D"); p != nil {
		load = p.CapPF + buf.InputCapPF
	}
	return arc.WorstDelay(0.05, load)
}
