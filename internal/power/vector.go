package power

import (
	"math/rand"

	"selectivemt/internal/logic"
	"selectivemt/internal/netlist"
	"selectivemt/internal/sim"
)

// OptimizeStandbyVector searches for the primary-input vector that
// minimizes standby leakage — the classic companion to MTCMOS: subthreshold
// leakage is state-dependent (stack effect), so the vector the design
// parks in matters for the cells that stay powered (HVT logic, flops).
//
// The search is greedy bit-flipping with random restarts: evaluate the
// current vector, try flipping each input, keep improvements, restart from
// random vectors. Deterministic for a given seed. The vector covers the
// inputs sim.InputNames stimulates (the clock and the sleep enable stay at
// 0), and every candidate is evaluated on one compiled simulator. It
// returns the best vector and its leakage.
func OptimizeStandbyVector(d *netlist.Design, opts StandbyOptions,
	restarts int, seed int64) (map[string]logic.Value, float64, error) {
	inputs := sim.InputNames(d)
	s, err := sim.New(d)
	if err != nil {
		return nil, 0, err
	}
	vec := make(map[string]logic.Value, len(inputs))
	eval := func(cur []logic.Value) (float64, error) {
		for i, in := range inputs {
			vec[in] = cur[i]
		}
		o := opts
		o.Inputs = vec
		rep, err := StandbyWith(s, o)
		if err != nil {
			return 0, err
		}
		return rep.StandbyLeakMW, nil
	}

	best := make([]logic.Value, len(inputs)) // all V0
	bestLeak, err := eval(best)
	if err != nil {
		return nil, 0, err
	}
	if restarts < 1 {
		restarts = 1
	}
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < restarts; r++ {
		cur := make([]logic.Value, len(inputs))
		if r == 0 {
			copy(cur, best)
		} else {
			for i := range cur {
				cur[i] = logic.FromBool(rng.Intn(2) == 1)
			}
		}
		curLeak, err := eval(cur)
		if err != nil {
			return nil, 0, err
		}
		improved := true
		for improved {
			improved = false
			for i := range cur {
				cur[i] = cur[i].Not()
				leak, err := eval(cur)
				if err != nil {
					return nil, 0, err
				}
				if leak < curLeak {
					curLeak = leak
					improved = true
				} else {
					cur[i] = cur[i].Not() // revert
				}
			}
		}
		if curLeak < bestLeak {
			bestLeak = curLeak
			best = cur
		}
	}
	out := make(map[string]logic.Value, len(inputs))
	for i, in := range inputs {
		out[in] = best[i]
	}
	return out, bestLeak, nil
}
