package engine

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"selectivemt/internal/geom"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/parasitics"
	"selectivemt/internal/sta"
	"selectivemt/internal/tech"
)

func TestCacheMemoizes(t *testing.T) {
	c := NewAnalysisCache()
	var calls int
	for i := 0; i < 3; i++ {
		v, err := c.do("k", func() (any, error) { calls++; return 42, nil })
		if err != nil || v.(int) != 42 {
			t.Fatalf("do = %v, %v", v, err)
		}
	}
	if calls != 1 {
		t.Errorf("compute ran %d times", calls)
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("stats = %d/%d, want 2/1", hits, misses)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
	c.Reset()
	if c.Len() != 0 {
		t.Error("reset kept entries")
	}
}

func TestCacheCachesErrors(t *testing.T) {
	c := NewAnalysisCache()
	boom := errors.New("boom")
	var calls int
	for i := 0; i < 2; i++ {
		if _, err := c.do("k", func() (any, error) { calls++; return nil, boom }); !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 1 {
		t.Errorf("deterministic failure recomputed %d times", calls)
	}
}

func TestCacheComputePanicBecomesError(t *testing.T) {
	c := NewAnalysisCache()
	for i := 0; i < 2; i++ {
		_, err := c.do("k", func() (any, error) { panic("kaboom") })
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("attempt %d: panic not converted to error: %v", i, err)
		}
	}
	// The entry must be complete (ready closed): a second do above would
	// otherwise have blocked forever instead of returning the cached error.
	if h, m := c.Stats(); h != 1 || m != 1 {
		t.Errorf("stats = %d/%d, want 1/1", h, m)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewAnalysisCache()
	var computing atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.do("k", func() (any, error) {
				computing.Add(1)
				return "v", nil
			})
			if err != nil || v.(string) != "v" {
				t.Errorf("do = %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := computing.Load(); n != 1 {
		t.Errorf("compute ran %d times under concurrency", n)
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
	c := NewAnalysisCache()
	s1, err := c.AnalyzePre(d1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.AnalyzePre(d2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := c.Stats(); h != 0 || m != 2 {
		t.Errorf("different designs must not share entries: %d hits / %d misses", h, m)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
	if s1 == s2 {
		t.Errorf("an HVT swap left the summary unchanged (%+v); the designs are not distinguished", s1)
	}
	// A clone of d1 fingerprints equal and hits its entry.
	if _, err := c.AnalyzePre(d1.Clone(), cfg); err != nil {
		t.Fatal(err)
	}
	if h, _ := c.Stats(); h != 1 {
		t.Errorf("a clone should hit the cache: %d hits", h)
	}
}
