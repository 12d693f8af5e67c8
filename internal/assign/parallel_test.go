package assign_test

// The determinism contract for the sensitivity lane engine: at any
// shard count, it yields byte-identical netlists and bit-identical
// metrics at every worker count — parallelism only changes scheduling,
// never results.

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"selectivemt/internal/assign"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/power"
	"selectivemt/internal/sta"
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
// boundary nets) at timer widths (ShardJobs, which the lanes fan out at
// too) of 1, 2 and 4, and demands the outcome of every wider run be
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
			jcfg := cfg
			jcfg.ShardJobs = jobs
			res := runHVT(t, d, jcfg, "sensitivity", assign.DefaultOptions())
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

// rescorePanics is the Dual-Vth flavor problem with a rigged Rescore.
type rescorePanics struct{ *assign.FlavorProblem }

func (rescorePanics) Rescore(*assign.Move, *sta.Result) { panic("rigged rescore") }

// TestLanePanicPropagates: a panic inside a parallel lane task (here a
// stale entry's Rescore during proposal) must reach the caller of Run
// with the original value in its message, not be swallowed into a result
// committed from half-scored lanes.
func TestLanePanicPropagates(t *testing.T) {
	d, cfg := prepRandom(t, 3, 160, 1.07)
	cfg.Partitions, cfg.ShardJobs = 5, 2
	inc, err := sta.NewIncremental(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if inc.ShardCount() < 2 || inc.Workers() != 2 {
		t.Fatalf("want parallel lanes: %d shards at %d workers", inc.ShardCount(), inc.Workers())
	}
	s, err := assign.Parse("sensitivity")
	if err != nil {
		t.Fatal(err)
	}
	opts := assign.DefaultOptions()
	p := rescorePanics{assign.NewFlavorProblem(d, liberty.FlavorHVT, liberty.FlavorLVT, opts)}

	var res *assign.Result
	recovered := func() (r any) {
		defer func() { r = recover() }()
		res, _ = assign.Run(s, inc, p, opts)
		return nil
	}()
	if recovered == nil {
		t.Fatalf("Run returned (result %v) instead of panicking", res != nil)
	}
	msg := fmt.Sprint(recovered)
	if !strings.Contains(msg, "assign: lane fan-out") || !strings.Contains(msg, "rigged rescore") {
		t.Errorf("panic %q does not carry the lane task's original value", msg)
	}
	if res != nil {
		t.Error("Run handed out a result alongside the panic")
	}
}
