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

// TestCacheSummariesMatchIncremental pins the byte-identity contract
// between the three timing paths the system now has: the cached
// pre-route summary (full Analyze through the cache), a direct full
// Analyze, and the incremental timer — including after the design
// mutates through a swap batch. If the incremental engine ever drifted
// from the oracle, cached summaries keyed by the same fingerprint would
// alias inconsistent numbers; this test fails first.
func TestCacheSummariesMatchIncremental(t *testing.T) {
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
	cache := NewAnalysisCache()
	inc, err := sta.NewIncremental(d, cfg)
	if err != nil {
		t.Fatal(err)
	}

	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	checkAll := func(step string) {
		t.Helper()
		cached, err := cache.AnalyzePre(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		full, err := sta.Analyze(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		incRes, err := inc.Update()
		if err != nil {
			t.Fatal(err)
		}
		if !same(cached.WNSNs, full.WNS) || !same(cached.TNSNs, full.TNS) ||
			!same(cached.WorstHoldNs, full.WorstHold) {
			t.Fatalf("%s: cached summary %+v != full analyze %v/%v/%v",
				step, cached, full.WNS, full.TNS, full.WorstHold)
		}
		if !same(incRes.WNS, full.WNS) || !same(incRes.TNS, full.TNS) ||
			!same(incRes.WorstHold, full.WorstHold) {
			t.Fatalf("%s: incremental %v/%v/%v != full analyze %v/%v/%v",
				step, incRes.WNS, incRes.TNS, incRes.WorstHold, full.WNS, full.TNS, full.WorstHold)
		}
	}

	checkAll("initial")
	// Swap a batch of cells toward HVT and re-check: the design has a new
	// fingerprint, so the cache computes a fresh summary that must agree
	// with the incrementally updated graph.
	swapped := 0
	for _, inst := range d.Instances() {
		if inst.Cell.Kind != liberty.KindComb {
			continue
		}
		if v := l.Variant(inst.Cell, liberty.FlavorHVT); v != nil && v != inst.Cell {
			if err := d.ReplaceCell(inst, v); err != nil {
				t.Fatal(err)
			}
			if swapped++; swapped == 12 {
				break
			}
		}
	}
	if swapped == 0 {
		t.Fatal("no swappable cells")
	}
	checkAll("after swaps")
	if hits, misses := cache.Stats(); misses != 2 {
		t.Errorf("cache misses = %d (hits %d), want 2 (one per distinct fingerprint)", misses, hits)
	}
}

// TestAnalyzePreSkipsClockArrival: a clock-arrival function is not part
// of the pre-route key, so a skewed-clock call after an ideal-clock call
// on the same design must be computed, not served the ideal-clock entry.
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
	if _, err := cache.AnalyzePre(d, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.MinPeriod(d, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := cache.AnalyzePre(d, skewed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sta.Analyze(d, skewed)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.WNSNs, want.WNS) || !same(got.TNSNs, want.TNS) || !same(got.WorstHoldNs, want.WorstHold) {
		t.Fatalf("skewed-clock summary %+v, sta.Analyze gives %v/%v/%v",
			got, want.WNS, want.TNS, want.WorstHold)
	}
	gotP, err := cache.MinPeriod(d, skewed)
	if err != nil {
		t.Fatal(err)
	}
	wantP, err := sta.MinPeriod(d, skewed)
	if err != nil {
		t.Fatal(err)
	}
	if !same(gotP, wantP) {
		t.Fatalf("skewed-clock min period %v, sta.MinPeriod gives %v", gotP, wantP)
	}
	if hits, _ := cache.Stats(); hits != 0 {
		t.Errorf("skewed-clock calls hit the cache %d times", hits)
	}
}
