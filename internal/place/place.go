// Package place computes cell locations: a connectivity-driven global
// placement (iterated weighted-centroid moves with bin-based spreading)
// followed by row legalization. The Selective-MT clustering step consumes
// these locations, so what matters is realistic *locality* — connected
// cells end up near one another — rather than sign-off quality.
package place

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"selectivemt/internal/geom"
	"selectivemt/internal/netlist"
)

// Options controls placement.
type Options struct {
	RowHeightUm float64 // standard-cell row height
	SitePitchUm float64 // legalization grid in x
	TargetUtil  float64 // core utilization (0..1]
	Iterations  int     // global-placement sweeps
	Seed        int64
}

// DefaultOptions returns reasonable placement options for the process row
// geometry.
func DefaultOptions(rowHeight, sitePitch float64) Options {
	return Options{
		RowHeightUm: rowHeight,
		SitePitchUm: sitePitch,
		TargetUtil:  0.70,
		Iterations:  24,
		Seed:        1,
	}
}

// Result reports what the placer did.
type Result struct {
	Core     geom.Rect
	Rows     int
	HPWL     float64 // total half-perimeter wirelength, µm
	Overflow float64 // residual bin overflow after spreading (0 is ideal)
}

// Place assigns positions to every instance of the design and records the
// core region on the design. Ports are pinned around the core boundary.
func Place(d *netlist.Design, opts Options) (*Result, error) {
	if opts.RowHeightUm <= 0 || opts.SitePitchUm <= 0 {
		return nil, fmt.Errorf("place: row geometry must be positive")
	}
	if opts.TargetUtil <= 0 || opts.TargetUtil > 1 {
		return nil, fmt.Errorf("place: utilization %v outside (0,1]", opts.TargetUtil)
	}
	if opts.Iterations <= 0 {
		opts.Iterations = 24
	}
	insts := d.Instances()
	if len(insts) == 0 {
		return nil, fmt.Errorf("place: empty design")
	}

	totalArea := d.TotalArea()
	coreArea := totalArea / opts.TargetUtil
	side := math.Sqrt(coreArea)
	rows := int(math.Ceil(side / opts.RowHeightUm))
	if rows < 1 {
		rows = 1
	}
	height := float64(rows) * opts.RowHeightUm
	width := math.Ceil(coreArea/height/opts.SitePitchUm) * opts.SitePitchUm
	// Site rounding inflates legalized widths beyond raw area; make sure
	// the rows can hold every cell with slack.
	var legalWidth float64
	for _, inst := range insts {
		legalWidth += cellWidth(inst, opts)
	}
	minWidth := math.Ceil(legalWidth/float64(rows)/opts.TargetUtil/opts.SitePitchUm) * opts.SitePitchUm
	if width < minWidth {
		width = minWidth
	}
	core := geom.RectOf(0, 0, width, height)
	d.Core = core

	pinPorts(d, core)

	rng := rand.New(rand.NewSource(opts.Seed))
	// Initial scatter.
	for _, inst := range insts {
		if inst.Fixed && inst.Placed {
			continue
		}
		inst.Pos = geom.Pt(rng.Float64()*width, rng.Float64()*height)
		inst.Placed = true
	}

	ov := globalIterations(d, insts, core, opts, rng)
	legalize(d, insts, core, opts)
	// Global placement moved (nearly) every instance: one bulk-edit mark
	// beats journaling thousands of individual moves.
	d.NoteBulkEdit()
	return &Result{Core: core, Rows: rows, HPWL: HPWL(d), Overflow: ov}, nil
}

// pinPorts distributes ports evenly around the core boundary: inputs on
// the left/top edges, outputs on the right/bottom, preserving order.
func pinPorts(d *netlist.Design, core geom.Rect) {
	var ins, outs []*netlist.Port
	for _, p := range d.Ports() {
		if p.Dir == netlist.DirInput {
			ins = append(ins, p)
		} else {
			outs = append(outs, p)
		}
	}
	for i, p := range ins {
		f := (float64(i) + 0.5) / float64(len(ins))
		p.Pos = geom.Pt(core.Lo.X, core.Lo.Y+f*core.H())
		p.Placed = true
	}
	for i, p := range outs {
		f := (float64(i) + 0.5) / float64(len(outs))
		p.Pos = geom.Pt(core.Hi.X, core.Lo.Y+f*core.H())
		p.Placed = true
	}
}

// endpointPos returns the location of a net endpoint.
func endpointPos(r netlist.PinRef) (geom.Point, bool) {
	if r.Inst != nil {
		return r.Inst.Pos, r.Inst.Placed
	}
	if r.Port != nil {
		return r.Port.Pos, r.Port.Placed
	}
	return geom.Point{}, false
}

// netCenter returns the centroid of a net's endpoints. It sums in place,
// driver first, and scales like geom.Centroid, so the result is
// bit-identical to the centroid of the collected points.
func netCenter(n *netlist.Net) (geom.Point, bool) {
	var c geom.Point
	cnt := 0
	add := func(r netlist.PinRef) {
		if p, ok := endpointPos(r); ok {
			c.X += p.X
			c.Y += p.Y
			cnt++
		}
	}
	add(n.Driver)
	for _, s := range n.Sinks {
		add(s)
	}
	if cnt == 0 {
		return geom.Point{}, false
	}
	return c.Scale(1 / float64(cnt)), true
}

func globalIterations(d *netlist.Design, insts []*netlist.Instance, core geom.Rect,
	opts Options, rng *rand.Rand) float64 {
	overflow := 0.0
	for it := 0; it < opts.Iterations; it++ {
		// Attraction: move every cell to the centroid of its nets' centers.
		for _, inst := range insts {
			if inst.Fixed {
				continue
			}
			var acc geom.Point
			var w float64
			// Walk pins in cell declaration order, not map order: the
			// centroid sum is float accumulation, so iteration order leaks
			// into positions and — compounded over sweeps — made placement
			// (and every timing number derived from it) nondeterministic.
			for k := range inst.Cell.Pins {
				net := inst.NetAt(k)
				if net == nil || net.Degree() > 64 {
					continue // clock/MTE megafanout nets don't drag placement
				}
				if c, ok := netCenter(net); ok {
					acc = acc.Add(c)
					w++
				}
			}
			if w > 0 {
				target := acc.Scale(1 / w)
				// Blend to damp oscillation.
				inst.Pos = core.Clamp(geom.Pt(
					0.5*inst.Pos.X+0.5*target.X,
					0.5*inst.Pos.Y+0.5*target.Y,
				))
			}
		}
		// Spreading: push cells out of overfull bins.
		overflow = spread(insts, core, opts, rng)
	}
	return overflow
}

// spread performs one bin-based spreading pass and returns the remaining
// overflow fraction.
func spread(insts []*netlist.Instance, core geom.Rect, opts Options, rng *rand.Rand) float64 {
	nb := int(math.Ceil(math.Sqrt(float64(len(insts)) / 16)))
	if nb < 2 {
		nb = 2
	}
	bw, bh := core.W()/float64(nb), core.H()/float64(nb)
	cap := make([]float64, nb*nb)
	used := make([]float64, nb*nb)
	members := make([][]*netlist.Instance, nb*nb)
	binOf := func(p geom.Point) int {
		ix := int((p.X - core.Lo.X) / bw)
		iy := int((p.Y - core.Lo.Y) / bh)
		if ix < 0 {
			ix = 0
		}
		if iy < 0 {
			iy = 0
		}
		if ix >= nb {
			ix = nb - 1
		}
		if iy >= nb {
			iy = nb - 1
		}
		return iy*nb + ix
	}
	binCap := bw * bh * opts.TargetUtil * 1.15 // slack above target
	for i := range cap {
		cap[i] = binCap
	}
	for _, inst := range insts {
		b := binOf(inst.Pos)
		used[b] += inst.Cell.AreaUm2
		members[b] = append(members[b], inst)
	}
	totalOver := 0.0
	for b := 0; b < nb*nb; b++ {
		over := used[b] - cap[b]
		if over <= 0 {
			continue
		}
		totalOver += over
		// Move the cells farthest from the bin center to a random
		// neighboring bin until under capacity.
		bx, by := b%nb, b/nb
		c := geom.Pt(core.Lo.X+(float64(bx)+0.5)*bw, core.Lo.Y+(float64(by)+0.5)*bh)
		ms := members[b]
		sort.Slice(ms, func(i, j int) bool {
			return ms[i].Pos.Manhattan(c) > ms[j].Pos.Manhattan(c)
		})
		for _, inst := range ms {
			if used[b] <= cap[b] {
				break
			}
			if inst.Fixed {
				continue
			}
			dx := (rng.Float64() - 0.5) * 2 * bw
			dy := (rng.Float64() - 0.5) * 2 * bh
			// Push outward from the bin center.
			dir := inst.Pos.Sub(c)
			if dir.X == 0 && dir.Y == 0 {
				dir = geom.Pt(dx, dy)
			}
			n := math.Hypot(dir.X, dir.Y)
			if n == 0 {
				n = 1
			}
			step := geom.Pt(dir.X/n*bw+dx*0.3, dir.Y/n*bh+dy*0.3)
			inst.Pos = core.Clamp(inst.Pos.Add(step))
			used[b] -= inst.Cell.AreaUm2
		}
	}
	totalCap := binCap * float64(nb*nb)
	return totalOver / totalCap
}

// legalize snaps cells to rows and sites with a greedy Tetris sweep.
func legalize(d *netlist.Design, insts []*netlist.Instance, core geom.Rect, opts Options) {
	rows := int(core.H() / opts.RowHeightUm)
	if rows < 1 {
		rows = 1
	}
	cursor := make([]float64, rows) // next free x per row
	for i := range cursor {
		cursor[i] = core.Lo.X
	}
	order := make([]*netlist.Instance, len(insts))
	copy(order, insts)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Pos.X < order[j].Pos.X })
	for _, inst := range order {
		if inst.Fixed {
			continue
		}
		w := cellWidth(inst, opts)
		bestRow, bestCost := -1, math.Inf(1)
		for r := 0; r < rows; r++ {
			y := core.Lo.Y + (float64(r)+0.5)*opts.RowHeightUm
			x := math.Max(cursor[r], inst.Pos.X)
			if x+w > core.Hi.X {
				x = core.Hi.X - w
				if x < cursor[r] {
					continue // row full
				}
			}
			cost := math.Abs(y-inst.Pos.Y) + math.Abs(x-inst.Pos.X)
			if cost < bestCost {
				bestCost, bestRow = cost, r
			}
		}
		if bestRow < 0 {
			// All rows nominally full; take the emptiest (the core sizing
			// above guarantees total capacity, this only redistributes).
			bestRow = 0
			for r := 1; r < rows; r++ {
				if cursor[r] < cursor[bestRow] {
					bestRow = r
				}
			}
		}
		r := bestRow
		y := core.Lo.Y + (float64(r)+0.5)*opts.RowHeightUm
		x := math.Max(cursor[r], inst.Pos.X)
		if x+w > core.Hi.X {
			x = math.Max(cursor[r], core.Hi.X-w)
		}
		x = math.Round(x/opts.SitePitchUm) * opts.SitePitchUm
		if x < cursor[r] {
			x = math.Ceil(cursor[r]/opts.SitePitchUm) * opts.SitePitchUm
		}
		if x+w > core.Hi.X+opts.SitePitchUm {
			x = core.Hi.X - w // clamp: never escape the core
		}
		inst.Pos = geom.Pt(x+w/2, y)
		cursor[r] = x + w
		inst.Placed = true
	}
}

func cellWidth(inst *netlist.Instance, opts Options) float64 {
	w := inst.Cell.AreaUm2 / opts.RowHeightUm
	sites := math.Max(1, math.Ceil(w/opts.SitePitchUm))
	return sites * opts.SitePitchUm
}

// HPWL returns the total half-perimeter wirelength over all nets in µm.
func HPWL(d *netlist.Design) float64 {
	var total float64
	for _, n := range d.Nets() {
		total += NetHPWL(n)
	}
	return total
}

// NetHPWL returns one net's half-perimeter wirelength.
func NetHPWL(n *netlist.Net) float64 {
	bb := geom.EmptyRect()
	cnt := 0
	if p, ok := endpointPos(n.Driver); ok {
		bb = bb.Union(geom.Rect{Lo: p, Hi: p})
		cnt++
	}
	for _, s := range n.Sinks {
		if p, ok := endpointPos(s); ok {
			bb = bb.Union(geom.Rect{Lo: p, Hi: p})
			cnt++
		}
	}
	if cnt < 2 {
		return 0
	}
	return bb.HalfPerimeter()
}

// EndpointPositions returns the located endpoints of a net (driver first
// when placed), for the router.
func EndpointPositions(n *netlist.Net) []geom.Point {
	var pts []geom.Point
	if p, ok := endpointPos(n.Driver); ok {
		pts = append(pts, p)
	}
	for _, s := range n.Sinks {
		if p, ok := endpointPos(s); ok {
			pts = append(pts, p)
		}
	}
	return pts
}

// PlaceNear places a new instance (switch, buffer, holder) at the target
// point, snapped to the nearest row and site; existing cells are not moved
// (ECO-style insertion relies on the residual whitespace the target
// utilization leaves).
func PlaceNear(d *netlist.Design, inst *netlist.Instance, target geom.Point, opts Options) {
	core := d.Core
	if core.Empty() || core.Area() == 0 {
		inst.Pos = target
		inst.Placed = true
		d.NotePlacement(inst)
		return
	}
	t := core.Clamp(target)
	row := math.Round((t.Y - core.Lo.Y - opts.RowHeightUm/2) / opts.RowHeightUm)
	y := core.Lo.Y + row*opts.RowHeightUm + opts.RowHeightUm/2
	x := math.Round(t.X/opts.SitePitchUm) * opts.SitePitchUm
	inst.Pos = core.Clamp(geom.Pt(x, y))
	inst.Placed = true
	d.NotePlacement(inst)
}
