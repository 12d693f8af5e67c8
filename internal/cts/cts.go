// Package cts synthesizes the clock tree: recursive geometric bisection of
// the flop clock pins into clusters, a buffer per cluster, repeated up to a
// single root driven by the clock port. The Selective-MT flow runs it in
// the "routing including CTS" stage of Fig. 4; its per-flop insertion
// delays feed the hold-fixing ECO.
package cts

import (
	"fmt"
	"math"
	"sort"

	"selectivemt/internal/geom"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/place"
	"selectivemt/internal/tech"
)

// Options controls clock tree synthesis.
type Options struct {
	MaxFanout int    // sinks per clock buffer
	BufName   string // clock buffer cell, e.g. "CKBUF_X4_H"
	Proc      *tech.Process
	PlaceOpts place.Options
}

// DefaultOptions returns sensible CTS options for the process.
func DefaultOptions(proc *tech.Process) Options {
	return Options{
		MaxFanout: 16,
		BufName:   "CKBUF_X4_H",
		Proc:      proc,
		PlaceOpts: place.DefaultOptions(proc.RowHeightUm, proc.SitePitchUm),
	}
}

// Result describes the synthesized tree.
type Result struct {
	Buffers   []*netlist.Instance
	Levels    int
	Sinks     int
	Insertion map[*netlist.Instance]float64 // clock arrival per flop, ns
	MaxSkewNs float64
	MinInsNs  float64
	MaxInsNs  float64
}

// Arrival returns the per-flop clock arrival function for sta.Config.
func (r *Result) Arrival(inst *netlist.Instance) float64 { return r.Insertion[inst] }

// Synthesize builds the clock tree in place on the design. The clock
// port's net must exist; its current flop sinks are re-attached behind the
// new buffer levels.
func Synthesize(d *netlist.Design, clockPort string, opts Options) (*Result, error) {
	port := d.PortByName(clockPort)
	if port == nil || port.Dir != netlist.DirInput {
		return nil, fmt.Errorf("cts: no clock input port %q", clockPort)
	}
	if opts.MaxFanout < 2 {
		return nil, fmt.Errorf("cts: max fanout %d too small", opts.MaxFanout)
	}
	buf := d.Lib.Cell(opts.BufName)
	if buf == nil {
		return nil, fmt.Errorf("cts: no clock buffer cell %q", opts.BufName)
	}
	rootNet := port.Net
	rootNet.IsClock = true

	// Collect flop clock sinks.
	type sink struct {
		ref netlist.PinRef
		pos geom.Point
	}
	var sinks []sink
	for _, s := range rootNet.Sinks {
		if s.Inst == nil {
			continue
		}
		pos := s.Inst.Pos
		sinks = append(sinks, sink{s, pos})
	}
	res := &Result{Insertion: make(map[*netlist.Instance]float64), Sinks: len(sinks)}
	if len(sinks) == 0 {
		return res, nil
	}

	// Bottom-up: cluster current endpoints into groups of ≤MaxFanout,
	// insert one buffer per group, recurse over the buffer inputs.
	type endpoint struct {
		ref netlist.PinRef
		pos geom.Point
	}
	cur := make([]endpoint, len(sinks))
	for i, s := range sinks {
		cur[i] = endpoint(s)
	}
	levels := 0
	for len(cur) > opts.MaxFanout {
		groups := cluster(len(cur), opts.MaxFanout, func(i int) geom.Point { return cur[i].pos })
		var next []endpoint
		for _, g := range groups {
			pts := make([]geom.Point, len(g))
			refs := make([]netlist.PinRef, len(g))
			for i, idx := range g {
				pts[i] = cur[idx].pos
				refs[i] = cur[idx].ref
			}
			center := geom.Centroid(pts)
			b, err := d.NewInstanceAuto("ckbuf", buf)
			if err != nil {
				return nil, err
			}
			place.PlaceNear(d, b, center, opts.PlaceOpts)
			outNet := d.NewNetAuto("clktree")
			outNet.IsClock = true
			if err := d.Connect(b, "Z", outNet); err != nil {
				return nil, err
			}
			for _, ref := range refs {
				if ref.Inst != nil {
					if ref.Inst.Net(ref.Pin) != nil {
						if err := d.Disconnect(ref.Inst, ref.Pin); err != nil {
							return nil, err
						}
					}
					if err := d.Connect(ref.Inst, ref.Pin, outNet); err != nil {
						return nil, err
					}
				}
			}
			res.Buffers = append(res.Buffers, b)
			next = append(next, endpoint{netlist.PinRef{Inst: b, Pin: "A"}, b.Pos})
		}
		// Detach remaining old endpoints from the root (only first level
		// has them attached); reattach the new buffer inputs to the root
		// temporarily — the next iteration may re-cluster them.
		cur = next
		levels++
	}
	// Attach the final layer directly to the clock root net.
	for _, ep := range cur {
		if ep.ref.Inst == nil {
			continue
		}
		if ep.ref.Inst.Net(ep.ref.Pin) == nil {
			if err := d.Connect(ep.ref.Inst, ep.ref.Pin, rootNet); err != nil {
				return nil, err
			}
		}
	}
	res.Levels = levels

	// Compute insertion delays by walking from the root.
	ex := &parasitics.SteinerExtractor{Proc: opts.Proc}
	res.MinInsNs, res.MaxInsNs = math.Inf(1), math.Inf(-1)
	var walk func(n *netlist.Net, arr, slew float64)
	walk = func(n *netlist.Net, arr, slew float64) {
		rc := ex.Extract(n)
		delays := rc.SinkDelays()
		for i, s := range n.Sinks {
			var wire float64
			if i < len(delays) {
				wire = delays[i]
			}
			at := arr + wire
			if s.Inst == nil {
				continue
			}
			if s.Inst.Cell.Kind == liberty.KindClockBuf {
				arc := s.Inst.Cell.Arc("A", "Z")
				out := s.Inst.OutputNet()
				if arc == nil || out == nil {
					continue
				}
				load := ex.Extract(out).TotalCap()
				walk(out, at+arc.WorstDelay(slew, load), arc.WorstSlew(slew, load))
			} else if s.Inst.Cell.IsSequential() && s.Pin == "CK" {
				res.Insertion[s.Inst] = at
				res.MinInsNs = math.Min(res.MinInsNs, at)
				res.MaxInsNs = math.Max(res.MaxInsNs, at)
			}
		}
	}
	walk(rootNet, 0, 0.04)
	if math.IsInf(res.MinInsNs, 1) {
		res.MinInsNs, res.MaxInsNs = 0, 0
	}
	res.MaxSkewNs = res.MaxInsNs - res.MinInsNs
	return res, nil
}

// cluster splits indices 0..n-1 into geometric groups of at most maxSize
// by recursive bisection along the wider axis.
func cluster(n, maxSize int, pos func(int) geom.Point) [][]int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	var out [][]int
	var split func(idx []int)
	split = func(idx []int) {
		if len(idx) <= maxSize {
			out = append(out, idx)
			return
		}
		pts := make([]geom.Point, len(idx))
		for i, id := range idx {
			pts[i] = pos(id)
		}
		bb := geom.BoundingBox(pts)
		byX := bb.W() >= bb.H()
		sort.SliceStable(idx, func(i, j int) bool {
			if byX {
				return pos(idx[i]).X < pos(idx[j]).X
			}
			return pos(idx[i]).Y < pos(idx[j]).Y
		})
		mid := len(idx) / 2
		left := append([]int(nil), idx[:mid]...)
		right := append([]int(nil), idx[mid:]...)
		split(left)
		split(right)
	}
	split(all)
	return out
}
