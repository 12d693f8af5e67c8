package sta

import (
	"fmt"

	"selectivemt/internal/netlist"
	"selectivemt/internal/partition"
)

// laneView is the clustering an Incremental reports through ShardCount,
// ShardOf and BoundaryNet: the layout of the sensitivity strategy's
// commit lanes. Propagation never reads it. A nil view is one lane that
// owns the whole design.
type laneView struct {
	count int
	// owner is each net's cluster: its driving instance's, or for a
	// port-driven or undriven net its first instance sink's.
	owner []int32
	// boundary marks the nets a cut combinational arc reads or drives:
	// concurrent decisions in different lanes share their slack.
	boundary []bool
}

// buildLanes clusters the design behind a compiled graph when
// Config.Partitions asks for more than one lane (or the shardAssign test
// hook imposes a cut) and derives each net's owner and boundary flag. It
// returns nil for a one-lane layout.
func buildLanes(cg *CompiledGraph, cfg Config) (*laneView, error) {
	of, count := cfg.shardAssign, cfg.shardCount
	if of == nil {
		if cfg.Partitions <= 1 {
			return nil, nil
		}
		cl, err := partition.Cluster(cg.d, partition.Options{Count: cfg.Partitions})
		if err != nil {
			return nil, fmt.Errorf("sta: partitioning: %w", err)
		}
		of, count = cl.ShardOf, cl.Count
	}
	if count <= 1 {
		return nil, nil
	}
	lv := &laneView{count: count, owner: make([]int32, len(cg.nets)), boundary: make([]bool, len(cg.nets))}
	for id, n := range cg.nets {
		var inst *netlist.Instance
		switch cg.drvKind[id] {
		case drvSeq:
			inst = cg.seqs[cg.drvIdx[id]].inst
		case drvComb:
			inst = cg.combs[cg.drvIdx[id]]
		default:
			for _, s := range n.Sinks {
				if s.Inst != nil {
					inst = s.Inst
					break
				}
			}
		}
		if inst != nil {
			if k := of(inst); k > 0 && int(k) < count {
				lv.owner[id] = k // out-of-range clusters stay 0
			}
		}
	}
	for id := range int32(len(cg.nets)) {
		for _, c := range cg.consumers(id) {
			if c.kind != rcComb {
				continue
			}
			if out := cg.combOut[c.idx]; lv.owner[out] != lv.owner[id] {
				lv.boundary[id], lv.boundary[out] = true, true
			}
		}
	}
	return lv, nil
}
