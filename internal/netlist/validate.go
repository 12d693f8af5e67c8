package netlist

import (
	"fmt"
	"sort"

	"selectivemt/internal/liberty"
)

// ValidateOptions controls which consistency rules Validate enforces.
type ValidateOptions struct {
	// AllowUnconnected lists pin names that may legally float (e.g. "MTE"
	// and "VGND" before the switch-insertion stage).
	AllowUnconnected map[string]bool
	// AllowUndrivenNets permits nets without a driver (pre-CTS clock nets).
	AllowUndrivenNets bool
}

// Validate checks the structural invariants of the design:
//
//   - every connected pin refers back to a net that lists it,
//   - every net endpoint refers to a live instance/port and its pins,
//   - each net has at most one driver (exactly one unless allowed),
//   - every cell input is connected unless explicitly allowed to float.
//
// It returns the first violation found.
func (d *Design) Validate(opts ValidateOptions) error {
	var pins []string
	for _, inst := range d.Instances() {
		// Walk the connections in sorted pin order so the same violation
		// is reported first on every run; the map may hold pins the cell
		// lacks, so the cell's own pin list would not cover it.
		pins = pins[:0]
		for pin := range inst.Conns { // rangemap:ok sorted before use
			pins = append(pins, pin)
		}
		sort.Strings(pins)
		for _, pin := range pins {
			net := inst.Conns[pin]
			if d.nets[net.Name] != net {
				return fmt.Errorf("netlist: %s.%s connects to stale net %q", inst.Name, pin, net.Name)
			}
			cp := inst.Cell.Pin(pin)
			if cp == nil {
				return fmt.Errorf("netlist: %s connected on nonexistent pin %q of %s",
					inst.Name, pin, inst.Cell.Name)
			}
			if cp.Dir == liberty.DirOutput {
				if net.Driver.Inst != inst || net.Driver.Pin != pin {
					return fmt.Errorf("netlist: %s.%s claims to drive %s but the net disagrees",
						inst.Name, pin, net.Name)
				}
			} else if !sinkListed(net, inst, pin) {
				return fmt.Errorf("netlist: %s.%s not listed as sink of %s", inst.Name, pin, net.Name)
			}
		}
		// Required pins.
		for _, p := range inst.Cell.Pins {
			if p.Dir != liberty.DirInput {
				continue
			}
			if inst.Conns[p.Name] == nil && !opts.AllowUnconnected[p.Name] {
				return fmt.Errorf("netlist: %s.%s (%s) is unconnected", inst.Name, p.Name, inst.Cell.Name)
			}
		}
	}
	for _, net := range d.Nets() {
		if net.Driver.Inst != nil {
			inst := net.Driver.Inst
			if d.insts[inst.Name] != inst {
				return fmt.Errorf("netlist: net %s driven by removed instance %q", net.Name, inst.Name)
			}
			if inst.Conns[net.Driver.Pin] != net {
				return fmt.Errorf("netlist: net %s driver %s does not connect back", net.Name, net.Driver)
			}
		}
		if !net.HasDriver() && len(net.Sinks) > 0 && !opts.AllowUndrivenNets {
			return fmt.Errorf("netlist: net %s has %d sinks but no driver", net.Name, len(net.Sinks))
		}
		seen := make(map[string]bool, len(net.Sinks))
		for _, s := range net.Sinks {
			key := s.String()
			if seen[key] {
				return fmt.Errorf("netlist: net %s lists sink %s twice", net.Name, key)
			}
			seen[key] = true
			if s.Inst != nil {
				if d.insts[s.Inst.Name] != s.Inst {
					return fmt.Errorf("netlist: net %s sinks removed instance %q", net.Name, s.Inst.Name)
				}
				if s.Inst.Conns[s.Pin] != net {
					return fmt.Errorf("netlist: net %s sink %s does not connect back", net.Name, s)
				}
			}
		}
	}
	return nil
}

func sinkListed(net *Net, inst *Instance, pin string) bool {
	for _, s := range net.Sinks {
		if s.Inst == inst && s.Pin == pin {
			return true
		}
	}
	return false
}

// PreMTValidate is the Validate configuration for netlists before switch
// insertion (MTE/VGND pins may float).
func PreMTValidate() ValidateOptions {
	return ValidateOptions{AllowUnconnected: map[string]bool{"MTE": true, "VGND": true}}
}

// StrictValidate is the Validate configuration for finished netlists.
func StrictValidate() ValidateOptions { return ValidateOptions{} }
