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
// Deliver or DeliverInline; the transport closes the inboxes with
// CloseInboxes once every producer has stopped. A hosted shard's messages are
// handled by the Handler its consumer passes to Serve, one at a time.
type Host struct {
	shards int
	local  []bool
	slots  [][]slot // [node][shard]; nil for non-local nodes

	remoteMsgs  atomic.Int64
	remoteBytes atomic.Int64
	loopMsgs    atomic.Int64
	loopBytes   atomic.Int64
	dropped     atomic.Int64

	errMu    sync.Mutex
	firstErr error
}

// Handler handles one message delivered to a hosted (node, shard) and owns
// its envelope from then on (it recycles the scratch when done). The host
// calls a shard's Handler for one message at a time, holding the shard's
// serving token: on the goroutine running Serve, or on the producer's own
// goroutine when DeliverInline finds the shard idle.
type Handler func(Envelope)

// slot is one hosted (node, shard): its inbox and what serialises handling.
type slot struct {
	in chan Envelope
	// token is held by whoever handles one of the shard's messages: Serve
	// for each message it takes from in, or a producer in DeliverInline. It
	// serialises the shard: one handler at a time, which the server's
	// policies and their per-shard state rely on.
	token sync.Mutex
	// queued counts the messages put on in and not handled yet. It goes up
	// before the channel send and down only after the message is handled,
	// under token (see DeliverInline for why).
	queued atomic.Int64
	// handler is the Handler Serve published, nil before: until then every
	// message goes to the inbox.
	handler atomic.Pointer[Handler]
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
	h := &Host{shards: shards, local: set, slots: make([][]slot, nodes)}
	perShard := (inboxSize + shards - 1) / shards
	for node, ok := range set {
		if !ok {
			continue
		}
		h.slots[node] = make([]slot, shards)
		for s := range h.slots[node] {
			h.slots[node][s].in = make(chan Envelope, perShard)
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

// slot returns a hosted node's (node, shard), panicking for a non-local node.
func (h *Host) slot(node, shard int, what string) *slot {
	if !h.Local(node) {
		panic(fmt.Sprintf("transport: %s of non-local node %d", what, node))
	}
	return &h.slots[node][shard]
}

// Inbox returns the receive channel of a hosted node's inbox shard. It is
// closed by CloseInboxes, after the last delivery.
func (h *Host) Inbox(node, shard int) <-chan Envelope {
	return h.slot(node, shard, "Inbox").in
}

// Serve makes fn the handler of a hosted (node, shard) and handles the
// shard's inbox with it, in order, until CloseInboxes closes the inbox. From
// the moment fn is published, DeliverInline may also call it, on a
// producer's goroutine; the shard's token keeps every call one at a time.
func (h *Host) Serve(node, shard int, fn Handler) {
	sl := h.slot(node, shard, "Serve")
	// Published atomically: producers are already running and load it.
	sl.handler.Store(&fn)
	for env := range sl.in {
		sl.token.Lock()
		fn(env)
		// Only now, handled and under the token, does the message stop
		// counting: until here an inline delivery must not overtake it.
		sl.queued.Add(-1)
		sl.token.Unlock()
	}
}

// Deliver puts env on the inbox of (env.Dst, env.Shard), waiting for room.
// Once done is closed it waits no longer: it delivers if there is room and
// otherwise drops the message, recycling its scratch and counting it, so a
// full inbox nobody drains cannot stall teardown. A nil done always waits.
func (h *Host) Deliver(env Envelope, done <-chan struct{}) {
	sl := &h.slots[env.Dst][env.Shard]
	// Counted before the send, so no inline delivery that follows this one
	// on the producer's goroutine can find the shard empty ahead of it.
	sl.queued.Add(1)
	if done == nil {
		sl.in <- env
		return
	}
	select {
	case sl.in <- env:
	case <-done:
		select {
		case sl.in <- env:
		default:
			sl.queued.Add(-1)
			env.Recycle()
			h.dropped.Add(1)
		}
	}
}

// DeliverInline hands env to its shard's handler on the calling goroutine
// when the shard is idle: a handler is published, nobody holds the shard's
// token and nothing is queued for it. Otherwise it delivers env as Deliver
// does. A producer that delivers one link's messages in order, one call after
// the other, keeps them in order either way: per (link, shard) FIFO.
//
// The simulated network keeps to Deliver: its scheduler goroutine is the
// simulation clock, and with timing off it delivers from inside Send, where
// the sender may hold a lock the handler takes.
func (h *Host) DeliverInline(env Envelope, done <-chan struct{}) {
	sl := &h.slots[env.Dst][env.Shard]
	if fn := sl.handler.Load(); fn != nil && sl.token.TryLock() {
		// Per-(link, shard) FIFO: an earlier message of this link that went
		// to the inbox counts in queued from before its channel send until
		// after it is handled. Read under the token, queued == 0 means none
		// is in the inbox or in Serve's hand, so env is next on its link.
		if sl.queued.Load() == 0 {
			(*fn)(env)
			sl.token.Unlock()
			return
		}
		sl.token.Unlock()
	}
	h.Deliver(env, done)
}

// CloseInboxes closes every hosted inbox. The transport calls it once, after
// its last producer has returned from Deliver and DeliverInline.
func (h *Host) CloseInboxes() {
	for _, node := range h.slots {
		for s := range node {
			close(node[s].in)
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
