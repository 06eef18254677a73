// Package partition assigns parameter keys to nodes. Classic parameter
// servers use a static partitioning to place parameters; Lapse uses the same
// mechanism to assign each key's *home* node (the node that tracks the key's
// current owner, Section 3.5 of the paper).
package partition

import (
	"fmt"

	"lapse/internal/kv"
)

// Range partitions the key space [0, NumKeys) into Nodes contiguous ranges of
// (almost) equal cardinality, as PS-Lite does by default.
type Range struct {
	nodes   int
	numKeys kv.Key
}

// NewRange returns a range partitioner for numKeys keys over nodes nodes.
func NewRange(numKeys kv.Key, nodes int) Range {
	if nodes <= 0 {
		panic(fmt.Sprintf("partition: invalid node count %d", nodes))
	}
	return Range{nodes: nodes, numKeys: numKeys}
}

// NodeOf returns the node responsible for k (its server in a classic PS, its
// home node in Lapse).
func (r Range) NodeOf(k kv.Key) int {
	if k >= r.numKeys {
		panic(fmt.Sprintf("partition: key %d out of range (%d keys)", k, r.numKeys))
	}
	// Distribute the remainder over the first numKeys%nodes nodes so range
	// sizes differ by at most one.
	per := uint64(r.numKeys) / uint64(r.nodes)
	rem := uint64(r.numKeys) % uint64(r.nodes)
	cut := (per + 1) * rem // first key of the non-padded region
	if uint64(k) < cut {
		return int(uint64(k) / (per + 1))
	}
	return int(rem + (uint64(k)-cut)/per)
}

// RangeOf returns the key interval [lo, hi) assigned to node.
func (r Range) RangeOf(node int) (lo, hi kv.Key) {
	per := uint64(r.numKeys) / uint64(r.nodes)
	rem := uint64(r.numKeys) % uint64(r.nodes)
	n := uint64(node)
	if n < rem {
		lo = kv.Key(n * (per + 1))
		hi = lo + kv.Key(per+1)
		return lo, hi
	}
	lo = kv.Key(rem*(per+1) + (n-rem)*per)
	return lo, lo + kv.Key(per)
}
