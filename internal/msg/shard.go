package msg

import (
	"fmt"

	"lapse/internal/kv"
)

// Server-shard demux. A node's server runtime can be split into S independent
// shards, each owning a static slice of the key space and running its own
// message loop. The shard of a key is global — identical on every node and
// every process — so a message whose keys all belong to one shard can be
// delivered straight into that shard's inbox by transport.Host ("demux on
// decode"): no shard tag travels on the wire, the receiver derives the shard
// from the decoded message. Partitioning a FIFO link stream by a function of
// the message preserves relative order within each class, so delivery stays
// FIFO per (link, shard) — the ordering the per-key consistency arguments
// need, because a key maps to exactly one shard.
//
// One key, one stream: every message that names a key travels on that key's
// shard (Op, OpResp, Localize, RelocInstruct, RelocTransfer, Manage,
// ReplicaSync, ReplicaRefresh), so on each link all traffic
// about a key — its operations, its relocation, its promotion and demotion,
// its lease coherence and its replica sync — is delivered in send order, to
// the one goroutine that owns the key. These kinds must be shard-pure: every
// key in one message belongs to the same shard. Senders guarantee this by
// batching per (destination, shard); the simulated network additionally
// asserts it. The rest route as follows:
//
//   - SspClock, Barrier, Block: shard 0. They name no key; the clock and
//     barrier handlers keep node-level state and rely on per-link FIFO
//     between successive messages, so they are pinned to one shard.
//   - SspSync: by first key. Fetch requests and their replies carry the same
//     key list, so both ends derive the same shard and the reply finds the
//     pending slot registered under it; eager pushes are clock-tagged and
//     tolerate reordering.

// ShardOfKey returns the server shard that owns key k on every node, for a
// runtime with the given shard count: the interleaved static slice k ≡ s
// (mod shards). Interleaving (rather than contiguous slices) spreads any
// node's range-partitioned home keys across all of its shards.
func ShardOfKey(k kv.Key, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(uint64(k) % uint64(shards))
}

// ShardOf returns the inbox shard a decoded message is delivered to (the
// demux-on-decode rule set above): its first key's, or 0 when it names none.
func ShardOf(m any, shards int) int {
	if shards <= 1 {
		return 0
	}
	return shardOfKeys(keysOf(m), shards)
}

// keysOf returns the keys m names: nil for SspClock, Barrier and Block.
func keysOf(m any) []kv.Key {
	switch t := m.(type) {
	case *Op:
		return t.Keys
	case *OpResp:
		return t.Keys
	case *Localize:
		return t.Keys
	case *RelocInstruct:
		return t.Keys
	case *RelocTransfer:
		return t.Keys
	case *SspSync:
		return t.Keys
	case *Manage:
		return t.Keys
	case *ReplicaSync:
		return t.Keys
	case *ReplicaRefresh:
		return t.Keys
	}
	return nil
}

func shardOfKeys(keys []kv.Key, shards int) int {
	if len(keys) == 0 {
		return 0
	}
	return ShardOfKey(keys[0], shards)
}

// CheckShardPure verifies that a key-addressed protocol message is
// shard-pure: all its keys map to ShardOf(m). SspSync is exempt — its fetch
// and reply only need to agree on the first key — and a message naming no
// key is trivially pure. The simulated network calls it on every send, so a
// batching bug that mixes shards fails loudly in tests instead of corrupting
// per-shard state.
func CheckShardPure(m any, shards int) error {
	if _, stale := m.(*SspSync); stale || shards <= 1 {
		return nil
	}
	keys := keysOf(m)
	want := shardOfKeys(keys, shards)
	for _, k := range keys {
		if ShardOfKey(k, shards) != want {
			return fmt.Errorf("msg: %T mixes shards %d and %d (keys %v, %d shards)",
				m, want, ShardOfKey(k, shards), keys, shards)
		}
	}
	return nil
}
