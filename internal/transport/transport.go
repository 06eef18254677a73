// Package transport defines the network abstraction every parameter-server
// component runs on: a cluster-wide message fabric with per-link FIFO
// delivery, per-node inboxes, traffic accounting, and a clock primitive.
//
// Three implementations exist:
//
//   - internal/simnet: the single-process simulated network with a
//     latency/bandwidth timing model (the paper's testbed in one process);
//   - internal/transport/tcp: real length-prefixed TCP connections, allowing
//     a cluster to run as multiple OS processes (one or more nodes each);
//   - internal/transport/shm: lock-free shared-memory rings between
//     co-located processes, layered over a tcp fallback for cross-host
//     links whose Host it shares (internal/driver auto-selects it).
//
// Every message crosses a transport through the wire codec of internal/msg:
// Send encodes the message and the receiver observes a decoded copy, never
// the sender's pointer. This holds on the simulated network too, so sender
// and receiver can never alias the same Keys/Vals slices — the exact
// semantics a real network imposes, verified by the transport conformance
// tests.
//
// A transport instance hosts a set of local nodes: its Host holds them, their
// inboxes, the traffic counters, the drop count and the first error, and finds
// each received message's inbox shard, the same for every implementation. The
// simulated network hosts all nodes; a TCP transport typically hosts one per
// OS process (or all over loopback sockets, as the conformance suite does).
// Send takes only a local src, Inbox a local node.
package transport

import (
	"time"

	"lapse/internal/msg"
)

// Envelope is a delivered message: the decoded wire message and its link.
// Msg is always a decoded copy owned by the receiver — never the sender's
// pointer. Its inbox shard is msg.ShardOf(Msg, shards), which the Host derives
// on delivery; nothing travels on the wire for it.
type Envelope struct {
	Src, Dst int
	Msg      any
	// Scratch, when non-nil, is the pooled decode arena backing Msg. The
	// consumer that finishes processing Msg calls Recycle to return it;
	// consumers that retain Msg (or its Keys/Vals) simply never recycle and
	// the arena falls to the garbage collector.
	Scratch *msg.Scratch
}

// Recycle returns the envelope's decode scratch (if any) to the pool. After
// Recycle, Msg and its slices must no longer be referenced.
func (e *Envelope) Recycle() {
	if e.Scratch != nil {
		e.Scratch.Release()
		e.Scratch = nil
	}
}

// Stats aggregates traffic counters of one transport instance. In
// multi-process deployments each process observes only its own traffic.
type Stats struct {
	RemoteMessages   int64
	RemoteBytes      int64
	LoopbackMessages int64
	LoopbackBytes    int64
}

// Since returns the traffic accumulated after base was captured.
func (s Stats) Since(base Stats) Stats {
	return Stats{
		RemoteMessages:   s.RemoteMessages - base.RemoteMessages,
		RemoteBytes:      s.RemoteBytes - base.RemoteBytes,
		LoopbackMessages: s.LoopbackMessages - base.LoopbackMessages,
		LoopbackBytes:    s.LoopbackBytes - base.LoopbackBytes,
	}
}

// Network is the cluster message fabric. Implementations must preserve FIFO
// order per directed (src, dst) link and per (link, shard) — the property the
// paper's consistency proofs assume of TCP — and must deliver messages by
// value: Send encodes through the internal/msg codec and receivers get a
// decoded copy.
//
// Each local node owns Shards() inboxes. The Host puts each received message
// on the inbox msg.ShardOf names for it (demux on decode), so every message
// of one key's shard arrives on one channel in link order. The shard count is
// part of the deployment (all processes of a cluster must agree on it, like
// the node count).
//
// Send, Sleep, Inbox, Stats, Dropped and Err are safe for concurrent use.
// Stats are cumulative; a caller measures a window with Stats.Since.
type Network interface {
	// Nodes returns the cluster-wide node count.
	Nodes() int
	// Shards returns the per-node inbox shard count (>= 1).
	Shards() int
	// Local reports whether node is hosted by this transport instance.
	Local(node int) bool
	// Send transmits m from src (which must be local) to dst. The message
	// is encoded immediately; the caller may reuse m and its slices after
	// Send returns. Sends after Close are dropped (see Dropped), mirroring
	// writes on a closing TCP connection.
	Send(src, dst int, m any)
	// Inbox returns one receive channel of a local node: the messages of
	// inbox shard s. Messages from all sources are merged; per-(source,
	// shard) FIFO order is preserved. The channel is closed by Close after
	// in-flight messages drain.
	Inbox(node, shard int) <-chan Envelope
	// Serve handles a local node's inbox shard with h until Close closes
	// it (see Host.Serve). Once h is registered, a real transport may also
	// call it on the goroutine that received a message, when nothing is
	// queued for the shard; h still runs for one message at a time and
	// per-(source, shard) FIFO order is kept. A consumer reads a shard
	// either through Serve or through Inbox, not both.
	Serve(node, shard int, h Handler)
	// Sleep blocks the caller for d in the transport's time base: the
	// simulated network drives it through its event scheduler (the
	// virtual-compute primitive), real transports sleep in wall-clock
	// time. Implementations may return immediately when timing is
	// disabled.
	Sleep(d time.Duration)
	// Stats returns a snapshot of this instance's traffic counters.
	Stats() Stats
	// Dropped returns the number of messages discarded because they were
	// sent after Close (teardown traffic) or because their link failed.
	Dropped() int64
	// Err returns the first delivery failure this instance observed (a
	// dead link, a malformed frame), or nil. The simulated network cannot
	// fail and always returns nil. Messages lost to a failure are counted
	// in Dropped; operations waiting on them never complete, so runtimes
	// driving real transports should watch Err and abort on failure.
	Err() error
	// Close drains in-flight traffic, closes the local inboxes, and
	// releases sockets. It is idempotent.
	Close()
}
