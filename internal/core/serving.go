package core

import (
	"sync"
	"time"

	"lapse/internal/kv"
	"lapse/internal/msg"
)

// Serving tier: lease-based client-side read caching with update-in-place
// coherence (see DESIGN.md "Serving tier"). This file is the owner's side;
// a holder keeps its leased copies in the node's table of copies
// (internal/replication), beside its replicas, and applies the owner's
// messages there.
//
// A read-mostly serving workload pulls the same hot keys over and over from
// every node. The relocation protocol cannot make such keys local everywhere
// at once, and replication pays a continuous sync cycle even for keys that
// are almost never written. The serving tier adds a third, read-only path:
// when a MultiGet misses every local fast path, the remote pull asks the
// key's owner for a *lease* (Op.Lease); the owner answers with the value and
// a TTL (OpResp.LeaseTTL), records the holder, and the origin installs the
// value as a leased copy. Until the lease runs out MultiGets of the key are
// shared-memory reads with zero pending-table registration.
//
// Coherence is update-on-write. A push that applies at the owner of a leased
// key leaves the lease standing: the owner sends every live holder — the
// writer's node included — one key-addressed ReplicaRefresh carrying a
// latched snapshot of the post-write value and, in Ack, the lease time that
// is left, ahead of the push ack on the same (link, shard) FIFO. The holder
// overwrites its live copy in place; it never creates a copy from such a
// message and never keeps one longer than the message says, so a holder that
// stops reading stops costing messages when its lease runs out. The value is
// read and the messages are sent under the owner's registry lock (transport
// Sends queue and never block), so the refreshes of concurrent writers —
// shard goroutines and the owner's own workers — leave in value order and the
// last one to land holds every write before it. The value-less form of the
// message (drop) remains where the value leaves the owner's store, in
// takeOut: a relocation's transfer-out and a promotion into replication alike
// send it to the holders directly, ahead of the RelocTransfer or
// ManageReplicate that follows on the same (link, shard) stream — a holder
// drops its leased copy before the replica that supersedes it is installed.
// A refresh whose Vals do not match the keys' layout lengths is treated as a
// drop: the wire is outside input.
//
// Correctness:
//
//   - Read-your-writes. A push that leaves the shared-memory fast path marks
//     its key "own push in flight" in the node's table of copies (a per-key
//     count, so it balances under pipelining and across co-located workers):
//     while the count is above zero MultiGets of the key miss and travel
//     behind the push. The mark is taken off where the push completes — the
//     ack (OnOpResp) or a local relocation-queue drain; a push re-routed out
//     of a drained queue stays marked until its ack. The owner's refresh lands
//     before the ack, and the ack says so (OpResp.LeaseTTL nonzero), so the
//     writer's next read is a hit that contains its write. An ack that does
//     not vouch for the writer's copy — the lease had run out at the owner,
//     the key was answered by a new owner, a replica or a queue drain — makes
//     the writer discard its leased copy (a replica took the write itself and
//     stays). So a node never reads a value older than its own acknowledged
//     write from a lease, whatever path the push took.
//   - Staleness bound. A served read lags another node's write by at most one
//     message latency while the refresh travels, and by at most the lease TTL
//     plus one latency when a refresh is lost or is never sent. The one case
//     of the latter that is deliberately tolerated: a shard goroutine serving
//     a leased pull reads the pre-write value, a concurrent write by the
//     owner's own worker refreshes the holders registered so far, and the
//     grant — registered and sent afterwards — installs the older value. That
//     one holder keeps it until the next write or until its lease runs out.
//     Remote writers cannot race a grant: both run on the key's shard
//     goroutine.
//   - Stale owners. A copy remembers which node granted it and takes
//     refreshes from that node only: a refresh from a previous owner, delayed
//     past the grant of the next one, must not put an older value back.
type ServingConfig struct {
	// TTL is the lease duration granted to caching clients. Longer TTLs mean
	// fewer expiry misses, a longer time an idle holder keeps receiving
	// refreshes, and a larger worst-case staleness window for reads of keys
	// whose refresh was lost. 0 = DefaultLeaseTTL; capped at what the wire's
	// microsecond field can carry (~71 minutes).
	TTL time.Duration
}

// DefaultLeaseTTL is the lease duration used when ServingConfig.TTL is zero.
const DefaultLeaseTTL = 100 * time.Millisecond

// maxLeaseTTL is the largest TTL the wire's uint32 microsecond field can
// carry.
const maxLeaseTTL = time.Duration(1<<32-1) * time.Microsecond

// ttlMicros returns the configured lease TTL in wire form (microseconds).
func (c *ServingConfig) ttlMicros() uint32 {
	ttl := c.TTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	if ttl > maxLeaseTTL {
		ttl = maxLeaseTTL
	}
	return uint32(ttl / time.Microsecond)
}

// leaseHold records the outstanding leases of one key at its owner: a bitmask
// of holder nodes and the conservative deadline after which every one of them
// has expired on its own.
type leaseHold struct {
	mask   uint64
	expiry int64 // UnixNano; latest grant's client-side deadline
}

// leaseReg is the owner-side lease registry of one node: which nodes hold
// live leases on which of its keys. Grants happen on shard goroutines
// (handleOp), coherence messages leave from shard goroutines (remote writes,
// relocations) and worker threads (a local write at the owner), so the
// registry is mutex-guarded; the per-key leased flag array lets the worker
// write fast path skip it entirely when no lease is outstanding. The lock is
// held across the sends of one key's coherence messages: that is what orders
// concurrent writers' refreshes by value, and what lets every message be
// built in the one struct and value scratch below (Send encodes
// synchronously and never blocks).
type leaseReg struct {
	ttlMicros uint32
	mu        sync.Mutex
	holders   map[kv.Key]*leaseHold
	out       msg.ReplicaRefresh
	key       [1]kv.Key
	vals      []float32
}

func newLeaseReg(cfg *ServingConfig) *leaseReg {
	return &leaseReg{ttlMicros: cfg.ttlMicros(), holders: make(map[kv.Key]*leaseHold)}
}

// grantLeases records origin as a lease holder of every key in keys and
// returns the TTL (µs) to stamp on the response. Origins beyond the bitmask
// width get no lease (0). A record whose leases have all run out starts over
// with origin as its only holder, so a node that stopped reading a key is
// forgotten within one TTL even while others keep leasing it.
func (nd *node) grantLeases(keys []kv.Key, origin int) uint32 {
	if origin < 0 || origin >= 64 {
		return 0
	}
	reg := nd.leases
	now := time.Now().UnixNano()
	expiry := now + int64(reg.ttlMicros)*1000
	reg.mu.Lock()
	for _, k := range keys {
		h, ok := reg.holders[k]
		if !ok {
			h = &leaseHold{}
			reg.holders[k] = h
		} else if h.expiry < now {
			h.mask = 0
		}
		h.mask |= 1 << uint(origin)
		if expiry > h.expiry {
			h.expiry = expiry
		}
		nd.leased[k].Store(1)
	}
	reg.mu.Unlock()
	nd.srv.Shard(0).Stats().LeaseGrants.Add(int64(len(keys)))
	return reg.ttlMicros
}

// refreshLeases runs after a push was applied to k at this node, its owner:
// every live holder is sent the post-write value and the lease time left
// (ReplicaRefresh, refresh form). The message is key-addressed, so on each
// holder's (link, shard) stream it follows the grant it may be chasing and
// precedes the ack of the push that caused it. The holder set includes the
// writer's node: its entry is what the writer reads next. The leases stay in
// force and are not extended. Returns the lease time (µs) left on writer's
// copy if writer was among the holders refreshed, 0 otherwise — the caller's
// ack passes it on (OpResp.LeaseTTL). Safe from shard goroutines and worker
// threads.
func (nd *node) refreshLeases(k kv.Key, writer int) uint32 {
	reg := nd.leases
	reg.mu.Lock()
	defer reg.mu.Unlock()
	h, ok := reg.holders[k]
	if !ok {
		return 0 // dropped since the caller saw the flag
	}
	left := (h.expiry - time.Now().UnixNano()) / 1000
	if left <= 0 {
		delete(reg.holders, k)
		nd.leased[k].Store(0)
		return 0
	}
	// The value is read under the registry lock, after the caller's write:
	// whichever writer sends later read later, so refreshes leave in value
	// order.
	reg.vals = kv.Grow(reg.vals[:0], nd.sys.layout.Len(k))
	if !nd.store.Read(k, reg.vals) {
		return 0 // a transfer-out took the key; its drop covers the holders
	}
	reg.sendHolders(nd, k, uint32(left), reg.vals, h.mask)
	if uint(writer) < 64 && h.mask&(1<<uint(writer)) != 0 {
		return uint32(left)
	}
	return 0
}

// isLeased reports whether a lease on k may be outstanding. It is the
// lock-free check in front of every registry access on a write path: pushes
// to keys nobody leases, and every push with the serving tier off, stay clear
// of the registry lock. Small enough to inline into the worker fast path.
func (nd *node) isLeased(k kv.Key) bool {
	return nd.leased != nil && nd.leased[k].Load() != 0
}

// dropLeases withdraws every outstanding lease on k because its value is
// leaving this node: the registry entry and the fast-path flag are cleared
// and each live holder is sent a value-less ReplicaRefresh (drop form).
func (nd *node) dropLeases(k kv.Key) {
	reg := nd.leases
	reg.mu.Lock()
	defer reg.mu.Unlock()
	h, ok := reg.holders[k]
	delete(reg.holders, k)
	nd.leased[k].Store(0)
	if ok && h.expiry >= time.Now().UnixNano() {
		reg.sendHolders(nd, k, 0, nil, h.mask)
	}
}

// sendHolders sends one coherence message about k to every node in mask. The
// registry lock must be held: the message struct is the registry's. mask
// never names this node: handleOp grants leases only to other origins.
func (reg *leaseReg) sendHolders(nd *node, k kv.Key, ttlMicros uint32, vals []float32, mask uint64) {
	reg.key[0] = k
	reg.out = msg.ReplicaRefresh{Origin: int32(nd.id), Ack: ttlMicros, Keys: reg.key[:], Vals: vals}
	stats := nd.srv.Shard(0).Stats()
	for dest := 0; mask != 0; dest++ {
		if mask&(1<<uint(dest)) == 0 {
			continue
		}
		mask &^= 1 << uint(dest)
		stats.LeaseRevokes.Inc()
		nd.srv.Send(dest, &reg.out)
	}
}
