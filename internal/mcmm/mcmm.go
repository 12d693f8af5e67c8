// Package mcmm is the multi-corner (multi-mode) sign-off subsystem: it
// derates the process, the Liberty library and the wire parasitics to
// each PVT corner, maintains per-corner views of a finished design with
// one persistent incremental timing graph each, and fans per-corner
// analysis out on engine.Map with per-(fingerprint, corner) cache keys.
//
// The sign-off discipline it implements is the standard one: setup is
// checked where it is worst (the slow corner), hold and standby leakage
// where they are worst (the fast corners), and the hold ECO targets the
// binding fast corner instead of typical. Optimization itself stays at
// the typical corner — a Session always works on its own clone, so the
// Table-1 netlists and numbers are untouched by sign-off.
package mcmm

import (
	"fmt"
	"strings"
	"sync"

	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/tech"
)

// Corners returns the canonical corner list in analysis order.
func Corners() []tech.Corner { return tech.Corners() }

// ParseCorners parses a CLI corner list: "all", or a comma-separated
// subset of typ, slow, fast-hot, fast-cold. Duplicates are rejected; an
// empty string parses to nil (multi-corner analysis off).
func ParseCorners(s string) ([]tech.Corner, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	if s == "all" {
		return Corners(), nil
	}
	var out []tech.Corner
	seen := make(map[tech.Corner]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		c, err := tech.ParseCorner(part)
		if err != nil {
			return nil, err
		}
		if seen[c] {
			return nil, fmt.Errorf("mcmm: corner %s listed twice", c)
		}
		seen[c] = true
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// Characterization is one corner's process and library pair. At the
// typical corner it aliases the base pair, so typical-corner analyses are
// bit-identical to the single-corner flow (same cell pointers, same cache
// keys).
type Characterization struct {
	Corner tech.Corner
	Proc   *tech.Process
	Lib    *liberty.Library
}

// ClockDerate returns the factor the corner scales a typical clock-tree
// insertion delay by. The clock network is built from high-Vth buffers
// driving long inter-buffer routes, so its delay tracks an even mix of
// the corner's high-Vth drive resistance and its wire resistance. The
// wire term is what keeps the clock from speeding up as much as the
// (gate-dominated, low-Vth) data paths at the fast corners — which is
// exactly why hold sign-off binds there.
func (ch *Characterization) ClockDerate(base *tech.Process) float64 {
	drive := ch.Proc.DriveResistance(1, tech.VthHigh) / base.DriveResistance(1, tech.VthHigh)
	wire := ch.Proc.WireResPerUm / base.WireResPerUm
	return 0.5*drive + 0.5*wire
}

// DataDerate returns the factor the corner scales a typical data-path
// delay by (the low-Vth drive-resistance ratio). External input/output
// delays model upstream and downstream registered logic in the same
// silicon, so sign-off derates them with the data path — otherwise an
// input-fed flop's hold check would wrongly relax at the fast corners.
func (ch *Characterization) DataDerate(base *tech.Process) float64 {
	return ch.Proc.DriveResistance(1, tech.VthLow) / base.DriveResistance(1, tech.VthLow)
}

// Set lazily characterizes the library at every corner of one base
// process/library pair and caches the results. Safe for concurrent use;
// an Environment shares one Set across all its flows so each corner
// library is generated at most once.
type Set struct {
	base    *tech.Process
	baseLib *liberty.Library

	mu    sync.Mutex
	chars map[tech.Corner]*Characterization
	errs  map[tech.Corner]error
}

// NewSet creates a characterization set over the base pair. Nothing is
// generated until At is called.
func NewSet(proc *tech.Process, lib *liberty.Library) *Set {
	return &Set{
		base:    proc,
		baseLib: lib,
		chars:   make(map[tech.Corner]*Characterization),
		errs:    make(map[tech.Corner]error),
	}
}

// Base returns the base (typical) process.
func (s *Set) Base() *tech.Process { return s.base }

// At returns the corner's characterization, generating and caching the
// derated library on first use. The typical corner returns the base pair
// itself.
func (s *Set) At(c tech.Corner) (*Characterization, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ch, ok := s.chars[c]; ok {
		return ch, nil
	}
	if err, ok := s.errs[c]; ok {
		return nil, err
	}
	var ch *Characterization
	if c == tech.CornerTyp {
		ch = &Characterization{Corner: c, Proc: s.base, Lib: s.baseLib}
	} else {
		proc := s.base.AtCorner(c)
		lib, err := liberty.Generate(proc, liberty.DefaultBuildOptions(proc))
		if err != nil {
			err = fmt.Errorf("mcmm: characterizing %s corner: %w", c, err)
			s.errs[c] = err
			return nil, err
		}
		ch = &Characterization{Corner: c, Proc: proc, Lib: lib}
	}
	s.chars[c] = ch
	return ch, nil
}

// Rebind binds every instance of d to the same-named cell of lib and
// makes lib the design's library, in place. It is how a corner view is
// derated: the netlist topology, names and placement stay put while every
// arc, capacitance and leakage figure comes from the corner library. The
// change journal is reset (NoteBulkEdit), so any attached incremental
// timer falls back to a full rebuild on its next update.
func Rebind(d *netlist.Design, lib *liberty.Library) error {
	for _, inst := range d.Instances() {
		c := lib.Cell(inst.Cell.Name)
		if c == nil {
			return fmt.Errorf("mcmm: library %s lacks cell %s (instance %s)",
				lib.Name, inst.Cell.Name, inst.Name)
		}
		inst.Cell = c
	}
	d.Lib = lib
	d.NoteBulkEdit()
	return nil
}
