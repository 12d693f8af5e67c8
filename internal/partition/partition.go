// Package partition clusters a netlist into shards for partition-parallel
// timing. The pass is a deterministic single sweep over the design's
// topological order: each instance joins the cluster that already holds
// the most of its fanin drivers (fanin cohesion), falling back to the
// most recently opened cluster while it has room. Because the sweep
// follows levelization, clusters grow as contiguous cones and the
// registered tile boundaries of hierarchical designs become natural cuts,
// keeping the cross-cluster net count — and therefore the interface graph
// the sharded timer iterates — small.
//
// The same cluster structure is the prerequisite for cluster-based
// sleep-transistor sizing (one switch per cluster): a Clustering is a
// reusable netlist decomposition, not a timing-only artifact.
package partition

import (
	"fmt"

	"selectivemt/internal/netlist"
)

// Options tunes the clustering pass.
type Options struct {
	// TargetSize is the instance count a cluster grows to before the
	// sweep opens a new one (default DefaultTargetSize). Cohesion may
	// overfill a cluster by up to 25% to avoid cutting a cone.
	TargetSize int
	// Count, when positive, overrides TargetSize so the sweep yields
	// about this many clusters (instances / Count each).
	Count int
}

// DefaultTargetSize is the default cluster size: big enough that the
// per-shard queue machinery amortizes, small enough that a typical design
// yields useful parallelism.
const DefaultTargetSize = 4096

// Clustering is a complete instance-to-cluster assignment. Cluster IDs
// are dense (0..Count-1) in first-use order, so they are deterministic
// for a given design and options.
type Clustering struct {
	Count int
	// Of maps every instance to its cluster.
	Of map[*netlist.Instance]int32
	// Sizes holds the instance count per cluster.
	Sizes []int
	// CutNets counts nets whose driver and at least one sink instance
	// land in different clusters — the boundary set a sharded timer
	// must iterate.
	CutNets int
}

// ShardOf returns an instance's cluster, falling back to cluster 0 for
// instances the clustering never saw (the same fallback the sharded
// timer applies to unassignable nets). Consumers that schedule work per
// shard — the sharded timing kernel and the assignment lane engine —
// use this as the one instance→shard lookup.
func (c *Clustering) ShardOf(inst *netlist.Instance) int32 {
	if k, ok := c.Of[inst]; ok && k >= 0 && k < int32(c.Count) {
		return k
	}
	return 0
}

// Cluster partitions the design's instances. The sweep is deterministic:
// topological instance order, pin-declaration fanin order, lowest-ID tie
// break.
func Cluster(d *netlist.Design, opts Options) (*Clustering, error) {
	order, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}
	target := opts.TargetSize
	if opts.Count > 0 {
		target = (len(order) + opts.Count - 1) / opts.Count
	}
	if target <= 0 {
		target = DefaultTargetSize
	}
	if target < 1 {
		return nil, fmt.Errorf("partition: target cluster size %d must be positive", target)
	}
	// Cohesion may overfill by 25% so one cone is not cut purely by the
	// size cap; the fallback cluster respects the plain target.
	softCap := target + target/4

	c := &Clustering{Of: make(map[*netlist.Instance]int32, len(order))}
	// cohesion[k] is a scratch counter valid when stamp[k] == round.
	var cohesion, stamp []int32
	round := int32(0)
	open := int32(-1) // most recently opened cluster

	newCluster := func() int32 {
		id := int32(c.Count)
		c.Count++
		c.Sizes = append(c.Sizes, 0)
		cohesion = append(cohesion, 0)
		stamp = append(stamp, 0)
		return id
	}

	for _, inst := range order {
		round++
		best := int32(-1)
		bestN := int32(0)
		// Count fanin drivers per already-assigned cluster, in
		// pin-declaration order (determinism; the counts themselves are
		// order-independent, the tie-break below is not).
		for k := range inst.Cell.Pins {
			n := inst.NetAt(k)
			if n == nil {
				continue
			}
			drv := n.Driver.Inst
			if drv == nil || drv == inst {
				continue
			}
			k, ok := c.Of[drv]
			if !ok {
				continue
			}
			if stamp[k] != round {
				stamp[k] = round
				cohesion[k] = 0
			}
			cohesion[k]++
			if c.Sizes[k] >= softCap {
				continue // full: may not attract
			}
			if cohesion[k] > bestN || (cohesion[k] == bestN && k < best) {
				best, bestN = k, cohesion[k]
			}
		}
		if best < 0 {
			// No attracting fanin: fill the open cluster, or start one.
			if open < 0 || c.Sizes[open] >= target {
				open = newCluster()
			}
			best = open
		}
		c.Of[inst] = best
		c.Sizes[best]++
	}

	// Count cut nets over the final assignment.
	for _, n := range d.Nets() {
		drv := n.Driver.Inst
		if drv == nil {
			continue
		}
		dk := c.Of[drv]
		for _, s := range n.Sinks {
			if s.Inst != nil && s.Inst != drv && c.Of[s.Inst] != dk {
				c.CutNets++
				break
			}
		}
	}
	return c, nil
}
