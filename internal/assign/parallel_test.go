package assign_test

// The determinism contract for the sensitivity lane engine: at any
// shard count, it yields byte-identical netlists and bit-identical
// metrics at every worker count — parallelism only changes scheduling,
// never results.

import (
	"bytes"
	"math"
	"testing"

	"selectivemt/internal/assign"
	"selectivemt/internal/netlist"
	"selectivemt/internal/power"
	"selectivemt/internal/verilog"
)

func netlistBytes(t *testing.T, d *netlist.Design) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := verilog.Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLaneDeterminismAcrossWorkers runs the sensitivity strategy over
// randomized circuits and partition counts (one shard, and adversarial
// cuts: prime shard counts leave unbalanced lanes and plenty of
// boundary nets) at
// assign-jobs 1, 2 and 4, and demands the outcome of every wider run be
// indistinguishable from the single-worker one: same netlist bytes,
// Float64bits-equal WNS/TNS/leakage, identical pass/commit/revert
// counters. It also pins the violation-free property — at a relaxed
// clock the lane engine ends timing-clean.
func TestLaneDeterminismAcrossWorkers(t *testing.T) {
	cases := []struct {
		seed       int64
		slack      float64
		partitions int
	}{
		{3, 1.07, 1},
		{3, 1.07, 2},
		{3, 1.07, 5},
		{19, 1.3, 3},
		{19, 1.3, 7},
	}
	for _, tc := range cases {
		base, cfg := prepRandom(t, tc.seed, 160, tc.slack)
		cfg.Partitions = tc.partitions

		type outcome struct {
			bytes   []byte
			res     *assign.Result
			leakMW  float64
			wns     uint64
			tns     uint64
			leakBit uint64
		}
		run := func(jobs int) outcome {
			d := base.Clone()
			opts := assign.DefaultOptions()
			opts.Workers = jobs
			res := runHVT(t, d, cfg, "sensitivity", opts)
			leak := power.ActiveLeakage(d)
			return outcome{
				bytes:   netlistBytes(t, d),
				res:     res,
				leakMW:  leak,
				wns:     math.Float64bits(res.Timing.WNS),
				tns:     math.Float64bits(res.Timing.TNS),
				leakBit: math.Float64bits(leak),
			}
		}

		ref := run(1)
		if ref.res.Timing.WNS < 0 {
			t.Errorf("seed %d parts %d: lane engine ended violating at a relaxed clock (WNS %v)",
				tc.seed, tc.partitions, ref.res.Timing.WNS)
		}
		if ref.res.Moved == 0 {
			t.Errorf("seed %d parts %d: lane engine swapped nothing", tc.seed, tc.partitions)
		}
		for _, jobs := range []int{2, 4} {
			got := run(jobs)
			if !bytes.Equal(ref.bytes, got.bytes) {
				t.Errorf("seed %d parts %d: netlist at jobs=%d differs from jobs=1",
					tc.seed, tc.partitions, jobs)
			}
			if got.wns != ref.wns || got.tns != ref.tns {
				t.Errorf("seed %d parts %d jobs %d: WNS/TNS bits differ (%v/%v vs %v/%v)",
					tc.seed, tc.partitions, jobs,
					got.res.Timing.WNS, got.res.Timing.TNS,
					ref.res.Timing.WNS, ref.res.Timing.TNS)
			}
			if got.leakBit != ref.leakBit {
				t.Errorf("seed %d parts %d jobs %d: leakage bits differ (%v vs %v)",
					tc.seed, tc.partitions, jobs, got.leakMW, ref.leakMW)
			}
			if got.res.Passes != ref.res.Passes ||
				got.res.Commits != ref.res.Commits ||
				got.res.Reverts != ref.res.Reverts ||
				got.res.Moved != ref.res.Moved ||
				got.res.Kept != ref.res.Kept {
				t.Errorf("seed %d parts %d jobs %d: counters differ: %+v vs %+v",
					tc.seed, tc.partitions, jobs, got.res, ref.res)
			}
		}
	}
}
