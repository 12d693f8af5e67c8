package mcmm_test

import (
	"fmt"
	"testing"

	"selectivemt/internal/gen"
	"selectivemt/internal/liberty"
	"selectivemt/internal/mcmm"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/place"
	"selectivemt/internal/sta"
	"selectivemt/internal/synth"
	"selectivemt/internal/tech"
)

// TestAtCornerTypicalBitIdentical pins the contract every corner cache
// key relies on: shifting to the typical corner is the identity on every
// process parameter.
func TestAtCornerTypicalBitIdentical(t *testing.T) {
	p := tech.Default130()
	q := p.AtCorner(tech.CornerTyp)
	if *q != *p {
		t.Fatalf("AtCorner(CornerTyp) changed the process:\nbase %+v\ntyp  %+v", *p, *q)
	}
	if q == p {
		t.Fatal("AtCorner must return an independent copy")
	}
}

// TestCornerArcsMonotonic checks every timing arc of every cell over a
// grid of operating points: the slow corner is never faster than typical
// and typical never faster than the fast corners.
func TestCornerArcsMonotonic(t *testing.T) {
	proc := tech.Default130()
	lib, err := liberty.Generate(proc, liberty.DefaultBuildOptions(proc))
	if err != nil {
		t.Fatal(err)
	}
	set := mcmm.NewSet(proc, lib)
	slow, err := set.At(tech.CornerSlow)
	if err != nil {
		t.Fatal(err)
	}
	fastHot, err := set.At(tech.CornerFastHot)
	if err != nil {
		t.Fatal(err)
	}
	fastCold, err := set.At(tech.CornerFastCold)
	if err != nil {
		t.Fatal(err)
	}
	points := []struct{ slew, load float64 }{
		{0.002, 0.001}, {0.05, 0.01}, {0.2, 0.05}, {0.5, 0.1},
	}
	checked := 0
	for _, name := range lib.CellNames() {
		typCell := lib.Cells[name]
		for i := range typCell.Arcs {
			for _, pt := range points {
				dTyp := typCell.Arcs[i].WorstDelay(pt.slew, pt.load)
				dSlow := slow.Lib.Cells[name].Arcs[i].WorstDelay(pt.slew, pt.load)
				dHot := fastHot.Lib.Cells[name].Arcs[i].WorstDelay(pt.slew, pt.load)
				dCold := fastCold.Lib.Cells[name].Arcs[i].WorstDelay(pt.slew, pt.load)
				if !(dSlow > dTyp) {
					t.Fatalf("%s arc %d @%v: slow %v not above typ %v", name, i, pt, dSlow, dTyp)
				}
				if !(dHot < dTyp) || !(dCold < dTyp) {
					t.Fatalf("%s arc %d @%v: fast %v/%v not below typ %v", name, i, pt, dHot, dCold, dTyp)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no arcs compared")
	}
}

// TestCornerLeakageMonotonic checks the leakage sign-off axis cell by
// cell: fast-hot out-leaks typical everywhere, and the cold fast corner
// leaks less than the hot one.
func TestCornerLeakageMonotonic(t *testing.T) {
	proc := tech.Default130()
	lib, err := liberty.Generate(proc, liberty.DefaultBuildOptions(proc))
	if err != nil {
		t.Fatal(err)
	}
	set := mcmm.NewSet(proc, lib)
	fastHot, err := set.At(tech.CornerFastHot)
	if err != nil {
		t.Fatal(err)
	}
	fastCold, err := set.At(tech.CornerFastCold)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range lib.CellNames() {
		typTotal := lib.Cells[name].LeakageMW + lib.Cells[name].StandbyLeakMW
		hotTotal := fastHot.Lib.Cells[name].LeakageMW + fastHot.Lib.Cells[name].StandbyLeakMW
		coldTotal := fastCold.Lib.Cells[name].LeakageMW + fastCold.Lib.Cells[name].StandbyLeakMW
		if !(hotTotal > typTotal) {
			t.Errorf("%s: fast-hot leakage %v not above typ %v", name, hotTotal, typTotal)
		}
		if !(coldTotal < hotTotal) {
			t.Errorf("%s: fast-cold leakage %v not below fast-hot %v", name, coldTotal, hotTotal)
		}
	}
}

// randomModule builds a deterministic random pipeline: registered random
// logic clouds between input and output flops.
func randomModule(seed int64, gates int) *gen.Module {
	m := gen.NewModule(fmt.Sprintf("rand_%d", seed))
	in := m.InputBus("in", 8)
	regs := m.DFFBus(in)
	cloud := m.RandomLogic(regs, gates, seed)
	m.OutputBus("out", m.DFFBus(cloud))
	return m
}

// TestCornerPathSlackMonotonic runs full STA on randomized generated
// circuits at every corner and checks per-net arrival and endpoint slack
// monotonicity: slow arrivals are never earlier than typical, fast never
// later, so slack orders slow ≤ typ ≤ fast at every endpoint.
func TestCornerPathSlackMonotonic(t *testing.T) {
	proc := tech.Default130()
	lib, err := liberty.Generate(proc, liberty.DefaultBuildOptions(proc))
	if err != nil {
		t.Fatal(err)
	}
	set := mcmm.NewSet(proc, lib)
	for _, seed := range []int64{1, 7, 20050307} {
		d, err := synth.Map(randomModule(seed, 180), lib, synth.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := place.Place(d, place.DefaultOptions(proc.RowHeightUm, proc.SitePitchUm)); err != nil {
			t.Fatal(err)
		}
		mk := func(ch *mcmm.Characterization) sta.Config {
			return sta.Config{
				ClockPeriodNs: 2.0,
				ClockPort:     "clk",
				InputSlewNs:   0.03,
				InputDelayNs:  0.1 * ch.DataDerate(proc),
				Extractor:     &parasitics.EstimateExtractor{Proc: ch.Proc},
			}
		}
		sess, err := mcmm.NewSession(d, set, nil, mk)
		if err != nil {
			t.Fatal(err)
		}
		results := make(map[tech.Corner]*sta.Result)
		for _, c := range sess.Corners() {
			r, err := sess.TimingAt(c)
			if err != nil {
				t.Fatal(err)
			}
			results[c] = r
		}
		typ := results[tech.CornerTyp]
		arrivalByName := func(r *sta.Result) map[string]float64 {
			out := make(map[string]float64)
			for _, n := range r.Design().Nets() {
				if a, _, ok := r.Arrival(n); ok {
					out[n.Name] = a
				}
			}
			return out
		}
		typArr := arrivalByName(typ)
		slowArr := arrivalByName(results[tech.CornerSlow])
		hotArr := arrivalByName(results[tech.CornerFastHot])
		coldArr := arrivalByName(results[tech.CornerFastCold])
		for name, at := range typArr {
			if at == 0 {
				continue // port-seeded arrivals derate with the input delay
			}
			if slowArr[name] <= at {
				t.Fatalf("seed %d net %s: slow arrival %v not after typ %v", seed, name, slowArr[name], at)
			}
			if hotArr[name] >= at || coldArr[name] >= at {
				t.Fatalf("seed %d net %s: fast arrival %v/%v not before typ %v",
					seed, name, hotArr[name], coldArr[name], at)
			}
		}
		if !(results[tech.CornerSlow].WNS < typ.WNS) {
			t.Errorf("seed %d: slow WNS %v not below typ %v", seed, results[tech.CornerSlow].WNS, typ.WNS)
		}
		if !(results[tech.CornerFastHot].WNS > typ.WNS) {
			t.Errorf("seed %d: fast-hot WNS %v not above typ %v", seed, results[tech.CornerFastHot].WNS, typ.WNS)
		}
		if !(results[tech.CornerFastCold].WNS > typ.WNS) {
			t.Errorf("seed %d: fast-cold WNS %v not above typ %v", seed, results[tech.CornerFastCold].WNS, typ.WNS)
		}
	}
}
