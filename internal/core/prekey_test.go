package core

import (
	"math"
	"testing"

	"selectivemt/internal/engine"
	"selectivemt/internal/gen"
	"selectivemt/internal/geom"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/place"
	"selectivemt/internal/sta"
	"selectivemt/internal/synth"
	"selectivemt/internal/tech"
)

// cachedConfig is a Config whose min-period probes go through a fresh
// analysis cache, returned alongside it for the hit/miss counts.
func cachedConfig() (*Config, *engine.AnalysisCache) {
	cache := engine.NewAnalysisCache()
	return &Config{Cache: cache}, cache
}

// TestAnalyzePreSkipsClockArrival: a clock-arrival function is not part
// of the pre-route key, so a skewed-clock probe after an ideal-clock
// probe of the same design must be computed, not served the ideal-clock
// entry. (The pre-route STA entry is gone; the min-period probe is the
// key's remaining user, so the property is checked there.)
func TestAnalyzePreSkipsClockArrival(t *testing.T) {
	proc := tech.Default130()
	l, err := liberty.Generate(proc, liberty.DefaultBuildOptions(proc))
	if err != nil {
		t.Fatal(err)
	}
	d, err := synth.Map(gen.SmallTest().Module, l, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := place.Place(d, place.DefaultOptions(proc.RowHeightUm, proc.SitePitchUm)); err != nil {
		t.Fatal(err)
	}
	cfg := sta.Config{
		ClockPeriodNs: 3,
		ClockPort:     "clk",
		InputSlewNs:   0.03,
		Extractor:     &parasitics.EstimateExtractor{Proc: proc},
	}
	skewed := cfg
	skewed.ClockArrival = func(*netlist.Instance) float64 { return 0.5 }
	c, cache := cachedConfig()
	ideal, err := c.minPeriod(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.minPeriod(d, skewed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sta.MinPeriod(d, skewed)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("skewed-clock min period %v, sta.MinPeriod gives %v", got, want)
	}
	if got == ideal {
		t.Fatalf("the skew left the minimum period at %v; the test needs a skew that shows", got)
	}
	if hits, _ := cache.Stats(); hits != 0 {
		t.Errorf("skewed-clock calls hit the cache %d times", hits)
	}
}

// TestAnalyzePreSeesSubNanometreMoves: the pre-route key hashes
// placement as exact bits, so moving the worst path's cells by 0.3 nm
// makes a new design to the cache. The cached min-period probe must be
// recomputed and agree with a fresh one, not replay the period from
// before the move.
func TestAnalyzePreSeesSubNanometreMoves(t *testing.T) {
	proc := tech.Default130()
	l, err := liberty.Generate(proc, liberty.DefaultBuildOptions(proc))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		spec gen.CircuitSpec
	}{{"small", gen.SmallTest()}, {"a", gen.CircuitA()}} {
		t.Run(c.name, func(t *testing.T) {
			d, err := synth.Map(c.spec.Module, l, synth.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := place.Place(d, place.DefaultOptions(proc.RowHeightUm, proc.SitePitchUm)); err != nil {
				t.Fatal(err)
			}
			cfg := sta.Config{
				ClockPeriodNs: 2,
				ClockPort:     "clk",
				Extractor:     &parasitics.EstimateExtractor{Proc: proc},
			}
			c, _ := cachedConfig()
			before, err := c.minPeriod(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			timing, err := sta.Analyze(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			paths := timing.WorstPaths(1)
			if len(paths) == 0 {
				t.Fatal("no worst path")
			}
			moved := 0
			for _, st := range paths[0].Steps {
				if st.Inst == nil {
					continue
				}
				st.Inst.Pos.X += 3e-4
				d.NotePlacement(st.Inst)
				moved++
			}
			got, err := c.minPeriod(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := sta.MinPeriod(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(fresh) == math.Float64bits(before) {
				t.Fatalf("moving %d worst-path cells by 0.3 nm left the minimum period at %v; the test needs a move that shows", moved, before)
			}
			if math.Float64bits(got) != math.Float64bits(fresh) {
				t.Errorf("after moving %d worst-path cells by 0.3 nm the cache returned a minimum period of %v, a fresh probe %v",
					moved, got, fresh)
			}
		})
	}
}

// tinyDesign builds a small placed combinational design: a NAND feeding
// an inverter between two inputs and one output.
func tinyDesign(t *testing.T, lib *liberty.Library) *netlist.Design {
	t.Helper()
	d := netlist.New("tiny", lib)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"a", "b"} {
		_, err := d.AddPort(p, netlist.DirInput)
		must(err)
	}
	_, err := d.AddPort("y", netlist.DirOutput)
	must(err)
	nd, err := d.AddInstance("u1", lib.Cell("NAND2_X1_L"))
	must(err)
	inv, err := d.AddInstance("u2", lib.Cell("INV_X1_L"))
	must(err)
	mid, err := d.AddNet("mid")
	must(err)
	must(d.Connect(nd, "A", d.NetByName("a")))
	must(d.Connect(nd, "B", d.NetByName("b")))
	must(d.Connect(nd, "ZN", mid))
	must(d.Connect(inv, "A", mid))
	must(d.Connect(inv, "ZN", d.NetByName("y")))
	nd.Pos, nd.Placed = geom.Pt(0, 0), true
	inv.Pos, inv.Placed = geom.Pt(4, 0), true
	return d
}

func TestCacheKeyDistinguishesDesigns(t *testing.T) {
	proc := tech.Default130()
	lib, err := liberty.Generate(proc, liberty.DefaultBuildOptions(proc))
	if err != nil {
		t.Fatal(err)
	}
	d1 := tinyDesign(t, lib)
	d2 := tinyDesign(t, lib)
	if d1.Fingerprint() != d2.Fingerprint() {
		t.Fatal("identical construction should fingerprint equal")
	}
	// Mutate d2: swap the inverter to HVT.
	if err := d2.ReplaceCell(d2.Instance("u2"), lib.Cell("INV_X1_H")); err != nil {
		t.Fatal(err)
	}
	if d1.Fingerprint() == d2.Fingerprint() {
		t.Fatal("mutated design should fingerprint differently")
	}
	cfg := sta.Config{ClockPeriodNs: 1, Extractor: &parasitics.EstimateExtractor{Proc: proc}}
	c, cache := cachedConfig()
	p1, err := c.minPeriod(d1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.minPeriod(d2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := cache.Stats(); h != 0 || m != 2 {
		t.Errorf("different designs must not share entries: %d hits / %d misses", h, m)
	}
	if cache.Len() != 2 {
		t.Errorf("len = %d, want 2", cache.Len())
	}
	if p1 == p2 {
		t.Errorf("an HVT swap left the minimum period at %v; the designs are not distinguished", p1)
	}
	// A clone of d1 fingerprints equal and hits its entry.
	if _, err := c.minPeriod(d1.Clone(), cfg); err != nil {
		t.Fatal(err)
	}
	if h, _ := cache.Stats(); h != 1 {
		t.Errorf("a clone should hit the cache: %d hits", h)
	}
}
