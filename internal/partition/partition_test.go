package partition

import (
	"testing"

	"selectivemt/internal/gen"
	"selectivemt/internal/liberty"
	"selectivemt/internal/netlist"
	"selectivemt/internal/synth"
	"selectivemt/internal/tech"
)

var sharedLib *liberty.Library

func lib(t *testing.T) *liberty.Library {
	t.Helper()
	if sharedLib == nil {
		p := tech.Default130()
		l, err := liberty.Generate(p, liberty.DefaultBuildOptions(p))
		if err != nil {
			t.Fatal(err)
		}
		sharedLib = l
	}
	return sharedLib
}

func synthSmall(t *testing.T) *netlist.Design {
	t.Helper()
	d, err := synth.Map(gen.SmallTest().Module, lib(t), synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestClusterCoversEveryInstance: the assignment must be total, sizes
// must account for every instance, and IDs must be dense.
func TestClusterCoversEveryInstance(t *testing.T) {
	d := synthSmall(t)
	c, err := Cluster(d, Options{TargetSize: 24})
	if err != nil {
		t.Fatal(err)
	}
	insts := d.Instances()
	if len(c.Of) != len(insts) {
		t.Fatalf("assigned %d of %d instances", len(c.Of), len(insts))
	}
	if c.Count < 2 {
		t.Fatalf("target 24 on %d instances yielded %d clusters, want several", len(insts), c.Count)
	}
	total := 0
	for k, sz := range c.Sizes {
		if sz == 0 {
			t.Errorf("cluster %d is empty (IDs must be dense)", k)
		}
		total += sz
	}
	if total != len(insts) {
		t.Fatalf("sizes sum to %d, want %d", total, len(insts))
	}
	for inst, k := range c.Of {
		if k < 0 || int(k) >= c.Count {
			t.Fatalf("instance %s assigned out-of-range cluster %d", inst.Name, k)
		}
	}
}

// TestClusterDeterministic: two sweeps of the same design must agree
// cluster-for-cluster — the sensitivity lanes' reproducibility rests on it.
func TestClusterDeterministic(t *testing.T) {
	d := synthSmall(t)
	a, err := Cluster(d, Options{TargetSize: 24})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(d, Options{TargetSize: 24})
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != b.Count || a.CutNets != b.CutNets {
		t.Fatalf("shape differs across runs: %d/%d clusters, %d/%d cuts",
			a.Count, b.Count, a.CutNets, b.CutNets)
	}
	for inst, k := range a.Of {
		if b.Of[inst] != k {
			t.Fatalf("instance %s assigned to %d then %d", inst.Name, k, b.Of[inst])
		}
	}
}

// TestClusterCountOverride: Count requests a cluster count instead of a
// size; the sweep must land in its neighborhood (cohesion overfill and
// cone boundaries make it approximate, not exact).
func TestClusterCountOverride(t *testing.T) {
	d := synthSmall(t)
	c, err := Cluster(d, Options{Count: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c.Count < 2 || c.Count > 8 {
		t.Fatalf("requested about 4 clusters, got %d", c.Count)
	}
}

// TestClusterSingle: a target beyond the design size yields one cluster
// and no cut nets — the degenerate case the timer lays as one lane.
func TestClusterSingle(t *testing.T) {
	d := synthSmall(t)
	c, err := Cluster(d, Options{TargetSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if c.Count != 1 {
		t.Fatalf("oversized target yielded %d clusters, want 1", c.Count)
	}
	if c.CutNets != 0 {
		t.Fatalf("single cluster reports %d cut nets, want 0", c.CutNets)
	}
}

// TestClusterCohesionBoundsCuts: on the registered-tile SmallTest cone,
// fanin cohesion must keep the cut-net fraction well below a random
// scatter's (which would cut nearly every multi-cluster net).
func TestClusterCohesionBoundsCuts(t *testing.T) {
	d := synthSmall(t)
	c, err := Cluster(d, Options{TargetSize: 24})
	if err != nil {
		t.Fatal(err)
	}
	nets := len(d.Nets())
	if c.CutNets*2 > nets {
		t.Fatalf("%d of %d nets cut — cohesion is not clustering cones", c.CutNets, nets)
	}
}
