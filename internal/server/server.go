// Package server provides the unified per-node server runtime shared by all
// parameter-server variants in this repository (classic, stale/SSP, and
// Lapse). The runtime owns everything the variants previously each
// implemented for themselves:
//
//   - the per-shard server message loops that drain a node's sharded network
//     inboxes and dispatch messages,
//   - the pending-operation tables that match responses to the futures
//     workers wait on,
//   - the worker handle (Handle) with pull and push for every variant, and
//     the per-worker future tracking behind WaitAll,
//   - the worker-side operation dispatch with per-(destination, shard)
//     message batching: all keys of one multi-key Pull/Push that route to
//     the same node and the same server shard travel in a single msg.Op
//     envelope (message grouping, Section 3.7 of the paper).
//
// A node's runtime is split into S independent shards (S = the transport's
// Shards()): each shard owns the interleaved static key slice k ≡ s (mod S),
// its own pending-operation table, and its own message loop, so a node's
// server work parallelizes across cores while every key's messages are still
// handled one at a time, in arrival order — which is what preserves the
// paper's per-key ordering arguments. Transports deliver per shard (demux on
// decode, see msg.ShardOf) with FIFO per (link, shard). The transport's
// serving token serialises a shard: the loop holds it for each message it
// takes from the inbox, and a real transport's receiving goroutine holds it
// when it handles a message itself because the shard was idle
// (transport.Host.DeliverInline).
//
// A variant supplies only its policy: one Policy per (node, shard) that
// handles the variant's wire messages under that shard's token (home-node
// serving for the classic PS, replica/clock logic for the stale PS, routing
// and relocation for Lapse), and a Router that decides per key how a worker
// operation is served (shared-memory fast path, relocation queue, or a
// destination node). Operation responses (msg.OpResp) are consumed by the
// runtime itself and complete pending operations uniformly across variants.
package server

import (
	"sync"
	"sync/atomic"

	"lapse/internal/cluster"
	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/msg"
	"lapse/internal/transport"
)

// Policy is the variant-specific part of a node's server shard: it handles
// every wire message except msg.OpResp, which the runtime consumes itself.
// All methods run one at a time per shard, under the shard's serving token
// (on its loop or on the transport goroutine that received the message);
// key-addressed messages only ever carry keys of that shard.
type Policy interface {
	// HandleMessage processes one variant message from node src.
	HandleMessage(src int, m any)
	// OnOpResp observes an operation response before the runtime completes
	// the pending operation (e.g. Lapse refreshes its location cache with
	// the responder's identity). Most variants do nothing here.
	OnOpResp(m *msg.OpResp)
}

// Group manages the per-node runtimes of one parameter-server instance.
type Group struct {
	cl     *cluster.Cluster
	layout kv.Layout
	shards int
	nodes  []*Node
	wg     sync.WaitGroup
}

// NewGroup creates one Node runtime per cluster node, each with one shard
// Runtime per transport inbox shard. The runtimes are inert until Start
// binds their policies and spawns the message loops, so variants can wire
// their per-node state to the runtimes in between.
func NewGroup(cl *cluster.Cluster, layout kv.Layout) *Group {
	g := &Group{
		cl:     cl,
		layout: layout,
		shards: cl.Net().Shards(),
		nodes:  make([]*Node, cl.Nodes()),
	}
	for n := 0; n < cl.Nodes(); n++ {
		nd := &Node{g: g, node: n, shards: make([]*Runtime, g.shards)}
		for s := 0; s < g.shards; s++ {
			nd.shards[s] = &Runtime{
				nd:      nd,
				shard:   s,
				pending: newPending(&nd.nextID),
				stats:   &metrics.ServerStats{},
			}
		}
		g.nodes[n] = nd
	}
	return g
}

// Node returns node n's runtime.
func (g *Group) Node(n int) *Node { return g.nodes[n] }

// Runtime returns shard s of node n.
func (g *Group) Runtime(n, s int) *Runtime { return g.nodes[n].shards[s] }

// Stats returns the per-shard server statistics of every node, node-major:
// with S shards per node, entry n*S+s belongs to shard s of node n.
// Aggregate with metrics.Sum for cluster totals.
func (g *Group) Stats() []*metrics.ServerStats {
	out := make([]*metrics.ServerStats, 0, len(g.nodes)*g.shards)
	for _, nd := range g.nodes {
		for _, rt := range nd.shards {
			out = append(out, rt.stats)
		}
	}
	return out
}

// Latencies returns the cluster-merged operation-latency snapshot: every
// worker stripe of every process-local node, merged bucket-wise. Safe to
// call while workers run.
func (g *Group) Latencies() metrics.LatencySnapshot {
	var out metrics.LatencySnapshot
	for _, nd := range g.nodes {
		nd.latMu.Lock()
		for _, l := range nd.lats {
			if l != nil {
				out.Merge(l.Snapshot())
			}
		}
		nd.latMu.Unlock()
	}
	return out
}

// Start binds each shard's policy and spawns the server goroutines. policy
// is invoked once per (node, shard), in node-major order. Message loops run
// only for nodes hosted by this process; in a multi-process deployment every
// process serves its own share of the nodes. A loop registers its shard's
// handler with the transport only after the policy is bound: the transport's
// receivers are running already and may call it from then on.
func (g *Group) Start(policy func(node, shard int) Policy) {
	for n, nd := range g.nodes {
		for s, rt := range nd.shards {
			rt.policy = policy(n, s)
			if !g.cl.Local(n) {
				continue
			}
			g.wg.Add(1)
			go rt.loop()
		}
	}
}

// Wait blocks until all server goroutines exited. The cluster network must
// be closed first (closing drains the inboxes the loops range over).
func (g *Group) Wait() { g.wg.Wait() }

// Node is the worker-facing runtime of one node: it spans the node's server
// shards and carries the shared operation-ID allocator. Worker-side dispatch
// goes through per-worker Handles bound to the Node; server-side message
// handling through the per-shard Runtimes.
type Node struct {
	g      *Group
	node   int
	nextID atomic.Uint64 // operation IDs, unique across the node's shards
	shards []*Runtime
	// lats holds the per-worker operation-latency stripes, indexed by worker
	// ID. Each worker's Handle observes into its own stripe without
	// contention; snapshots merge the stripes. Stripes are reused when a
	// worker index recurs across runs, so repeated worker spawns don't leak.
	latMu sync.Mutex
	lats  []*metrics.OpLat
}

// latFor returns worker w's latency stripe, creating it on first use.
func (nd *Node) latFor(w int) *metrics.OpLat {
	if w < 0 {
		w = 0
	}
	nd.latMu.Lock()
	defer nd.latMu.Unlock()
	for w >= len(nd.lats) {
		nd.lats = append(nd.lats, nil)
	}
	if nd.lats[w] == nil {
		nd.lats[w] = new(metrics.OpLat)
	}
	return nd.lats[w]
}

// ID returns the node index.
func (nd *Node) ID() int { return nd.node }

// NextID allocates a number from the node's operation-ID sequence for a
// request no pending table tracks (a Localize's correlation number).
func (nd *Node) NextID() uint64 { return nd.nextID.Add(1) }

// Shards returns the node's shard count.
func (nd *Node) Shards() int { return len(nd.shards) }

// Shard returns shard s's runtime.
func (nd *Node) Shard(s int) *Runtime { return nd.shards[s] }

// ShardOf returns the runtime of the shard owning key k.
func (nd *Node) ShardOf(k kv.Key) *Runtime {
	return nd.shards[msg.ShardOfKey(k, len(nd.shards))]
}

// Send transmits m over the cluster transport with this node as source, even
// when dest is this node (the loopback link models PS-Lite's IPC path). The
// transport encodes m through the wire codec immediately, so the caller may
// keep mutating m and its slices afterwards. Safe to call from any
// goroutine.
func (nd *Node) Send(dest int, m any) {
	nd.g.cl.Net().Send(nd.node, dest, m)
}

// Runtime is the server runtime of one shard of one node: its message loop,
// pending-operation table, and statistics.
type Runtime struct {
	nd      *Node
	shard   int
	policy  Policy
	pending *Pending
	stats   *metrics.ServerStats
}

// Node returns the node this runtime serves.
func (rt *Runtime) Node() int { return rt.nd.node }

// Shard returns this runtime's shard index.
func (rt *Runtime) Shard() int { return rt.shard }

// Pending returns the shard's pending-operation table.
func (rt *Runtime) Pending() *Pending { return rt.pending }

// Stats returns the shard's statistics counters.
func (rt *Runtime) Stats() *metrics.ServerStats { return rt.stats }

// Send transmits m over the cluster transport (see Node.Send).
func (rt *Runtime) Send(dest int, m any) { rt.nd.Send(dest, m) }

// SendOrDispatch transmits m, handling node-local destinations inline on the
// calling goroutine instead of looping them through the network (Lapse never
// talks to itself over the network). It must only be called from a handler of
// this shard, which holds the shard's serving token, and only with messages
// of this shard's keys: inline dispatch preserves arrival order precisely
// because the token holder is the only one processing the shard's messages.
func (rt *Runtime) SendOrDispatch(dest int, m any) {
	if dest == rt.nd.node {
		rt.handle(rt.nd.node, m)
		return
	}
	rt.Send(dest, m)
}

// loop is the shard's server goroutine: it registers serve as the shard's
// one handler and handles the inbox with it until the network closes. Inbox
// or inline, messages are processed in arrival order with no prioritization
// (Section 3.7: prioritizing relocation messages would break consistency for
// asynchronous operations).
func (rt *Runtime) loop() {
	defer rt.nd.g.wg.Done()
	rt.nd.g.cl.Net().Serve(rt.nd.node, rt.shard, rt.serve)
}

// serve handles one delivered message. It is the sole consumer of the
// shard's decoded messages, so after handling it recycles the envelope's
// decode scratch back to the pool — the buffer-ownership protocol every
// Policy must honour: a handler that needs message data past its return
// copies it first (DESIGN.md "Allocation-free message path"; msg.SetPoison
// catches violations).
func (rt *Runtime) serve(env transport.Envelope) {
	rt.handle(env.Src, env.Msg)
	env.Recycle()
}

// handle dispatches one message: operation responses complete pending
// operations and barrier protocol messages drive the cluster barrier, both
// variant-independently; everything else is the variant's business. Each
// message's handling time is observed on the shard's ServeLatency histogram
// — how long it held the shard's token, the per-message queueing-theory
// service time of the server.
func (rt *Runtime) handle(src int, m any) {
	start := nowFunc()
	switch t := m.(type) {
	case *msg.OpResp:
		rt.policy.OnOpResp(t)
		rt.pending.CompleteResp(rt.nd.g.layout, t)
	case *msg.Barrier:
		rt.nd.g.cl.HandleBarrier(rt.nd.node, t)
	default:
		rt.policy.HandleMessage(src, m)
	}
	rt.stats.ServeLatency.Observe(nowFunc().Sub(start))
}
