package netlist

import (
	"fmt"
	"slices"

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
// It returns the first violation found, walking instances, nets and pins
// in their stored order.
func (d *Design) Validate(opts ValidateOptions) error {
	// inputs counts, per net ID, the instance input pins connected to the
	// net. Each of them must be listed as a sink, and every listed sink
	// must connect back, so a net with more input-pin sinks than that
	// lists one twice.
	inputs := make([]int32, len(d.nets))
	for _, inst := range d.insts {
		if inst == nil {
			continue
		}
		for k, cp := range inst.Cell.Pins {
			net := inst.conns[k]
			switch {
			case net == nil:
				if cp.Dir == liberty.DirInput && !opts.AllowUnconnected[cp.Name] {
					return fmt.Errorf("netlist: %s.%s (%s) is unconnected", inst.Name, cp.Name, inst.Cell.Name)
				}
			case !d.hasNet(net):
				return fmt.Errorf("netlist: %s.%s connects to stale net %q", inst.Name, cp.Name, net.Name)
			case cp.Dir == liberty.DirOutput:
				if net.Driver.Inst != inst || net.Driver.Pin != cp.Name {
					return fmt.Errorf("netlist: %s.%s claims to drive %s but the net disagrees",
						inst.Name, cp.Name, net.Name)
				}
			case !sinkListed(net, inst, cp.Name):
				return fmt.Errorf("netlist: %s.%s not listed as sink of %s", inst.Name, cp.Name, net.Name)
			default:
				inputs[net.id]++
			}
		}
	}
	for _, net := range d.nets {
		if net == nil {
			continue
		}
		if inst := net.Driver.Inst; inst != nil {
			if !d.hasInstance(inst) {
				return fmt.Errorf("netlist: net %s driven by removed instance %q", net.Name, inst.Name)
			}
			if inst.Net(net.Driver.Pin) != net {
				return fmt.Errorf("netlist: net %s driver %s does not connect back", net.Name, net.Driver)
			}
		}
		if !net.HasDriver() && len(net.Sinks) > 0 && !opts.AllowUndrivenNets {
			return fmt.Errorf("netlist: net %s has %d sinks but no driver", net.Name, len(net.Sinks))
		}
		listed := int32(0)
		for i, s := range net.Sinks {
			if s.Inst == nil {
				if slices.Contains(net.Sinks[:i], s) {
					return fmt.Errorf("netlist: net %s lists sink %s twice", net.Name, s)
				}
				continue
			}
			if !d.hasInstance(s.Inst) {
				return fmt.Errorf("netlist: net %s sinks removed instance %q", net.Name, s.Inst.Name)
			}
			k := s.Inst.Cell.PinIndex(s.Pin)
			if k < 0 || s.Inst.conns[k] != net {
				return fmt.Errorf("netlist: net %s sink %s does not connect back", net.Name, s)
			}
			if s.Inst.Cell.Pins[k].Dir == liberty.DirInput {
				listed++
			}
		}
		if listed != inputs[net.id] {
			for i, s := range net.Sinks {
				if s.Inst != nil && slices.Contains(net.Sinks[:i], s) {
					return fmt.Errorf("netlist: net %s lists sink %s twice", net.Name, s)
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
