package engine

import (
	"math"
	"testing"

	"selectivemt/internal/gen"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/place"
	"selectivemt/internal/sta"
	"selectivemt/internal/synth"
	"selectivemt/internal/tech"
)

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
	cache := NewAnalysisCache()
	ideal, err := cache.MinPeriod(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cache.MinPeriod(d, skewed)
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
			cache := NewAnalysisCache()
			before, err := cache.MinPeriod(d, cfg)
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
			got, err := cache.MinPeriod(d, cfg)
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
