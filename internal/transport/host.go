package transport

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Host is the receiving side every transport shares: the set of nodes an
// instance hosts, their per-(node, shard) inboxes, the traffic counters, the
// drop count and the first delivery failure. A transport embeds a *Host and
// adds only how bytes move; two transports layered over each other (shm over
// its tcp fallback) share one Host, so both deliver into the same inboxes and
// count into the same counters.
//
// Producers (a simulated-link scheduler, socket readers, ring consumers) call
// Deliver; the transport closes the inboxes with CloseInboxes once every
// producer has stopped.
type Host struct {
	shards  int
	local   []bool
	inboxes [][]chan Envelope // [node][shard]; nil for non-local nodes

	remoteMsgs  atomic.Int64
	remoteBytes atomic.Int64
	loopMsgs    atomic.Int64
	loopBytes   atomic.Int64
	dropped     atomic.Int64

	errMu    sync.Mutex
	firstErr error
}

// NewHost creates the inboxes of the local nodes of a nodes-wide cluster:
// local lists the hosted node indices (nil hosts all). shards <= 0 means one
// inbox per node; inboxSize (default 1<<16) bounds a node's total inbox
// capacity and is divided evenly across its shards, so memory and
// backpressure stay constant as the shard count grows.
func NewHost(nodes, shards int, local []int, inboxSize int) (*Host, error) {
	set, err := localSet(nodes, local)
	if err != nil {
		return nil, err
	}
	shards = max(shards, 1)
	if inboxSize <= 0 {
		inboxSize = 1 << 16
	}
	h := &Host{shards: shards, local: set, inboxes: make([][]chan Envelope, nodes)}
	perShard := (inboxSize + shards - 1) / shards
	for node, ok := range set {
		if !ok {
			continue
		}
		h.inboxes[node] = make([]chan Envelope, shards)
		for s := range h.inboxes[node] {
			h.inboxes[node][s] = make(chan Envelope, perShard)
		}
	}
	return h, nil
}

// localSet parses a hosted-node list (nil: all nodes) into a membership table.
func localSet(nodes int, local []int) ([]bool, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("invalid node count %d", nodes)
	}
	set := make([]bool, nodes)
	for i := range set {
		set[i] = local == nil
	}
	for _, node := range local {
		if node < 0 || node >= nodes {
			return nil, fmt.Errorf("local node %d out of range [0,%d)", node, nodes)
		}
		set[node] = true
	}
	return set, nil
}

// Matches reports, as an error, how the deployment (nodes, shards, local)
// differs from the one h hosts, or nil when it is the same. A transport that
// shares another's Host checks this first.
func (h *Host) Matches(nodes, shards int, local []int) error {
	if nodes != h.Nodes() || max(shards, 1) != h.shards {
		return fmt.Errorf("%d nodes × %d shards, want %d × %d", h.Nodes(), h.shards, nodes, max(shards, 1))
	}
	set, err := localSet(nodes, local)
	if err != nil {
		return err
	}
	if !slices.Equal(set, h.local) {
		return fmt.Errorf("local nodes %v, want %v", h.local, set)
	}
	return nil
}

// Nodes returns the cluster-wide node count.
func (h *Host) Nodes() int { return len(h.local) }

// Shards returns the per-node inbox shard count.
func (h *Host) Shards() int { return h.shards }

// Local reports whether node is hosted here.
func (h *Host) Local(node int) bool { return node >= 0 && node < len(h.local) && h.local[node] }

// CheckSend panics unless src is a hosted node and dst a cluster node: the
// caller-side contract of Network.Send.
func (h *Host) CheckSend(src, dst int) {
	if !h.Local(src) {
		panic(fmt.Sprintf("transport: Send from non-local node %d", src))
	}
	if dst < 0 || dst >= h.Nodes() {
		panic(fmt.Sprintf("transport: Send to invalid node %d", dst))
	}
}

// Inbox returns the receive channel of a hosted node's inbox shard. It is
// closed by CloseInboxes, after the last delivery.
func (h *Host) Inbox(node, shard int) <-chan Envelope {
	if !h.Local(node) {
		panic(fmt.Sprintf("transport: Inbox of non-local node %d", node))
	}
	return h.inboxes[node][shard]
}

// Deliver puts env on the inbox of (env.Dst, env.Shard), waiting for room.
// Once done is closed it waits no longer: it delivers if there is room and
// otherwise drops the message, recycling its scratch and counting it, so a
// full inbox nobody drains cannot stall teardown. A nil done always waits.
func (h *Host) Deliver(env Envelope, done <-chan struct{}) {
	in := h.inboxes[env.Dst][env.Shard]
	if done == nil {
		in <- env
		return
	}
	select {
	case in <- env:
	case <-done:
		select {
		case in <- env:
		default:
			env.Recycle()
			h.dropped.Add(1)
		}
	}
}

// CloseInboxes closes every hosted inbox. The transport calls it once, after
// its last producer has returned from Deliver.
func (h *Host) CloseInboxes() {
	for _, node := range h.inboxes {
		for _, in := range node {
			close(in)
		}
	}
}

// Sent counts one message of bytes sent from src to dst.
func (h *Host) Sent(src, dst, bytes int) {
	if src == dst {
		h.loopMsgs.Add(1)
		h.loopBytes.Add(int64(bytes))
	} else {
		h.remoteMsgs.Add(1)
		h.remoteBytes.Add(int64(bytes))
	}
}

// Sleep blocks for d in wall-clock time: on a real transport, computation
// takes as long as it takes. The simulated network drives its own Sleep.
func (h *Host) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Drop counts k discarded messages.
func (h *Host) Drop(k int) { h.dropped.Add(int64(k)) }

// Fail records err if it is the first delivery failure.
func (h *Host) Fail(err error) {
	h.errMu.Lock()
	if h.firstErr == nil {
		h.firstErr = err
	}
	h.errMu.Unlock()
}

// Stats returns a snapshot of the traffic counters.
func (h *Host) Stats() Stats {
	return Stats{
		RemoteMessages:   h.remoteMsgs.Load(),
		RemoteBytes:      h.remoteBytes.Load(),
		LoopbackMessages: h.loopMsgs.Load(),
		LoopbackBytes:    h.loopBytes.Load(),
	}
}

// ResetStats zeroes the traffic counters.
func (h *Host) ResetStats() {
	h.remoteMsgs.Store(0)
	h.remoteBytes.Store(0)
	h.loopMsgs.Store(0)
	h.loopBytes.Store(0)
}

// Dropped returns the number of messages discarded: sent after Close, lost
// to a failed link, or undeliverable during teardown.
func (h *Host) Dropped() int64 { return h.dropped.Load() }

// Err returns the first delivery failure recorded, or nil.
func (h *Host) Err() error {
	h.errMu.Lock()
	defer h.errMu.Unlock()
	return h.firstErr
}
