// Package selectivemt reproduces "Area-efficient Selective Multi-Threshold
// CMOS Design Methodology for Standby Leakage Power Reduction" (Kitahara,
// Kawabe, Minami, Seta, Furusawa — DATE 2005) as a self-contained Go
// library: an analytically characterized multi-Vth cell library, the full
// RTL-to-layout flow of the paper's Fig. 4, the conventional and improved
// Selective-MT techniques, the Dual-Vth baseline, and the benchmark
// circuits and harnesses that regenerate the paper's Table 1.
//
// Quick start:
//
//	env, err := selectivemt.NewEnvironment()
//	cmp, err := env.Compare(selectivemt.CircuitA())
//	fmt.Println(cmp.Format())
//
// Compare runs the techniques one after another; CompareBase runs them
// concurrently on a prepared base, and RunBatch runs many JobSpecs.
//
// The heavy lifting lives in internal packages (sta, place, cts, vgnd,
// core, ...); this facade exposes the workflow a downstream user needs.
package selectivemt

import (
	"context"
	"fmt"
	"io"
	"sync"

	"selectivemt/internal/core"
	"selectivemt/internal/engine"
	"selectivemt/internal/gen"
	"selectivemt/internal/liberty"
	"selectivemt/internal/mcmm"
	"selectivemt/internal/netlist"
	"selectivemt/internal/report"
	"selectivemt/internal/tech"
	"selectivemt/internal/verilog"
)

// Re-exported workflow types. The aliases keep one set of concrete types
// across the facade and the internal engines.
type (
	// Environment bundles a process and its characterized library, plus
	// a shared analysis cache that every config minted by NewConfig
	// reuses (see CacheStats).
	Environment struct {
		Proc *tech.Process
		Lib  *liberty.Library

		cache       *engine.AnalysisCache
		corners     *mcmm.Set
		cornersOnce sync.Once
	}
	// Config is the flow configuration (clock, rules, engine options).
	Config = core.Config
	// TechniqueResult is one technique's outcome on one circuit.
	TechniqueResult = core.TechniqueResult
	// CircuitSpec is a generated benchmark circuit plus its flow knobs.
	CircuitSpec = gen.CircuitSpec
	// Design is a flat gate-level netlist.
	Design = netlist.Design
)

// NewEnvironment characterizes the default 130nm-class process/library.
func NewEnvironment() (*Environment, error) {
	proc := tech.Default130()
	lib, err := liberty.Generate(proc, liberty.DefaultBuildOptions(proc))
	if err != nil {
		return nil, err
	}
	return &Environment{
		Proc:    proc,
		Lib:     lib,
		cache:   engine.NewAnalysisCache(),
		corners: mcmm.NewSet(proc, lib),
	}, nil
}

// NewConfig returns the default flow configuration for this environment,
// wired to the environment's shared analysis cache and corner
// characterization set. Set Config.Cache to nil to opt a run out of
// caching.
func (e *Environment) NewConfig() *Config {
	cfg := core.DefaultConfig(e.Proc, e.Lib)
	cfg.Cache = e.cache
	cfg.CornerSet = e.cornerSet()
	return cfg
}

// cornerSet returns the environment's shared per-corner characterization
// set, creating it (once, concurrency-safe) for hand-built environments
// that skipped NewEnvironment.
func (e *Environment) cornerSet() *mcmm.Set {
	e.cornersOnce.Do(func() {
		if e.corners == nil {
			e.corners = mcmm.NewSet(e.Proc, e.Lib)
		}
	})
	return e.corners
}

// CacheStats reports the shared analysis cache's lifetime hits, misses
// and current entry count (zeros for a hand-built Environment).
func (e *Environment) CacheStats() (hits, misses uint64, entries int) {
	if e.cache == nil {
		return 0, 0, 0
	}
	hits, misses = e.cache.Stats()
	return hits, misses, e.cache.Len()
}

// ResetCache drops every cached analysis (useful between unrelated
// workloads when memory matters).
func (e *Environment) ResetCache() {
	if e.cache != nil {
		e.cache.Reset()
	}
}

// CircuitA returns the datapath-heavy evaluation circuit (tight clock).
func CircuitA() CircuitSpec { return gen.CircuitA() }

// CircuitB returns the control-heavy evaluation circuit (relaxed clock).
func CircuitB() CircuitSpec { return gen.CircuitB() }

// SmallTest returns a compact circuit for experimentation.
func SmallTest() CircuitSpec { return gen.SmallTest() }

// CircuitLarge returns the ~100k-instance hierarchical benchmark tier:
// a deterministic chain of registered datapath/control/random tiles, the
// scale target for the flat timing kernel's benchmarks.
func CircuitLarge() CircuitSpec { return gen.Large(100_000, 20050307) }

// CircuitHuge returns the ~1M-instance benchmark tier: eight parallel
// Large-style tile lanes XOR-folded at the output — the scale target for
// the partition-parallel sharded timing kernel.
func CircuitHuge() CircuitSpec { return gen.Huge(1_000_000, 20050307) }

// Comparison is the paper's three-technique comparison on one circuit.
type Comparison struct {
	Circuit  string
	Dual     *TechniqueResult
	Conv     *TechniqueResult
	Improved *TechniqueResult
}

// Compare runs all three techniques on the circuit with default options.
func (e *Environment) Compare(spec CircuitSpec) (*Comparison, error) {
	cfg := e.NewConfig()
	cfg.ClockSlack = spec.ClockSlack
	return e.CompareWithConfig(spec, cfg)
}

// CompareWithConfig runs all three techniques with an explicit config,
// one after another: PrepareBase, then CompareBase on one worker.
func (e *Environment) CompareWithConfig(spec CircuitSpec, cfg *Config) (*Comparison, error) {
	base, err := core.PrepareBase(spec.Module, cfg)
	if err != nil {
		return nil, fmt.Errorf("selectivemt: prepare %s: %w", spec.Module.Name, err)
	}
	return e.CompareBase(base, cfg, 1)
}

// AreaPct returns a technique's area normalized to Dual-Vth = 100%.
func (c *Comparison) AreaPct(r *TechniqueResult) float64 {
	return 100 * r.AreaUm2 / c.Dual.AreaUm2
}

// LeakagePct returns a technique's standby leakage normalized to
// Dual-Vth = 100%.
func (c *Comparison) LeakagePct(r *TechniqueResult) float64 {
	return 100 * r.StandbyLeakMW / c.Dual.StandbyLeakMW
}

// Format renders the comparison in the paper's Table-1 layout.
func (c *Comparison) Format() string {
	t := report.New(fmt.Sprintf("Circuit %s", c.Circuit),
		"Metric", "Dual-Vth", "Con.-SMT", "Imp.-SMT")
	t.AddPct("Area", 100, c.AreaPct(c.Conv), c.AreaPct(c.Improved))
	t.AddPct("Leakage", 100, c.LeakagePct(c.Conv), c.LeakagePct(c.Improved))
	return t.String()
}

// FormatTable1 renders a set of comparisons as one table.
func FormatTable1(comps []*Comparison) string {
	t := report.New("Table 1: Comparison of three techniques",
		"Circuit", "Metric", "Dual-Vth", "Con.-SMT", "Imp.-SMT")
	for _, c := range comps {
		t.Add(c.Circuit, "Area", "100.00%",
			fmt.Sprintf("%.2f%%", c.AreaPct(c.Conv)),
			fmt.Sprintf("%.2f%%", c.AreaPct(c.Improved)))
		t.Add(c.Circuit, "Leakage", "100.00%",
			fmt.Sprintf("%.2f%%", c.LeakagePct(c.Conv)),
			fmt.Sprintf("%.2f%%", c.LeakagePct(c.Improved)))
	}
	return t.String()
}

// WriteLibrary writes the environment's library in Liberty format.
func (e *Environment) WriteLibrary(w io.Writer) error {
	return liberty.WriteLiberty(w, e.Lib)
}

// LoadVerilog parses a structural Verilog netlist against the library.
func (e *Environment) LoadVerilog(r io.Reader) (*Design, error) {
	return verilog.Parse(r, e.Lib)
}

// WriteVerilog writes a design as structural Verilog.
func WriteVerilog(w io.Writer, d *Design) error { return verilog.Write(w, d) }

// Synthesize maps and places a circuit, returning the all-LVT base design
// the techniques start from. The config's clock period is derived if unset.
func (e *Environment) Synthesize(spec CircuitSpec, cfg *Config) (*Design, error) {
	return core.PrepareBase(spec.Module, cfg)
}

// RunDualVth runs the baseline technique on a clone of base.
func RunDualVth(base *Design, cfg *Config) (*TechniqueResult, error) {
	return core.RunRegistered(context.Background(), "Dual-Vth", base, cfg, nil)
}

// RunConventionalSMT runs the conventional Selective-MT technique: MT
// cells with embedded switches and holders on critical paths, HVT
// elsewhere, MTE wired to every MT cell.
func RunConventionalSMT(base *Design, cfg *Config) (*TechniqueResult, error) {
	return core.RunRegistered(context.Background(), "Conventional-SMT", base, cfg, nil)
}

// RunImprovedSMT runs the paper's improved Selective-MT flow end to end
// (Fig. 4): MT assignment with VGND-less cells, conversion to VGND
// cells, holder insertion, switch-structure construction, MTE buffering,
// CTS, post-route re-optimization and hold ECO.
func RunImprovedSMT(base *Design, cfg *Config) (*TechniqueResult, error) {
	return core.RunRegistered(context.Background(), "Improved-SMT", base, cfg, nil)
}
