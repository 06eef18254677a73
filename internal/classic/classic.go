// Package classic implements the two static-allocation baselines the paper
// measures Lapse against: the classic parameter server (Section 2.1),
// modeled after PS-Lite, and the stale parameter server (Section 4.5),
// modeled after Petuum. Both statically allocate parameters to servers by a
// range partitioner, without relocation, and precisely one server handles
// all pulls and pushes for a parameter; the stale PS adds bounded-staleness
// replicas on top of the same servers (see stale.go).
//
// Three variants are provided, matching the paper's experiments:
//
//   - Classic PS (PS-Lite, New): every parameter access — including access
//     to parameters stored on the worker's own node — travels through the
//     server's message path (the loopback link of the simulated network
//     models PS-Lite's inter-process communication).
//   - Classic PS with fast local access (New with FastLocalAccess):
//     identical static allocation, but workers access node-local parameters
//     directly through shared memory, like Lapse does. This is the "Classic
//     PS with fast local access (in Lapse)" baseline from Figures 1, 6, 7
//     and 8.
//   - Stale PS (NewStale): workers read clock-tagged replicas within a
//     staleness bound and buffer their updates until they advance their
//     clock, with client-based (SSP) or server-based (SSPPush)
//     synchronization — the baseline of Figure 9.
//
// The classic PS provides per-key sequential consistency for synchronous
// and asynchronous operations (Table 1): per-link FIFO delivery preserves
// each worker's program order, and the single owning server serializes all
// operations on a key. The stale PS provides eventual and client-centric
// consistency only.
//
// The message loop, pending-operation matching, future tracking, and
// per-destination batching live in the shared runtime of package server;
// this package contributes only the static-partitioning policy (route every
// key to its assigned server, serve from the shard store) and the stale
// PS's clock and replica bookkeeping.
package classic

import (
	"fmt"

	"lapse/internal/cluster"
	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/msg"
	"lapse/internal/partition"
	"lapse/internal/server"
	"lapse/internal/store"
)

// Config parameterizes a classic parameter server.
type Config struct {
	// FastLocalAccess enables shared-memory access to node-local
	// parameters instead of the loopback message path.
	FastLocalAccess bool
}

// System is a static-allocation parameter server running on a cluster: one
// server (goroutine) per node plus client handles for worker threads.
type System struct {
	cl     *cluster.Cluster
	layout kv.Layout
	cfg    Config
	stale  *StaleConfig // nil for the classic PS
	part   partition.Range
	g      *server.Group
	nodes  []*node
}

// node holds the per-node policy state: the server's store and, for the
// stale PS, its clocks and replicas. The message loops, pending-operation
// tables, and batching are the shared runtime's; the runtime's shards each
// serve their static slice of the store through a policyShard.
type node struct {
	sys   *System
	srv   *server.Node
	store *store.Dense
	clk   *clocks // nil for the classic PS
}

// policyShard is one shard's view of the node policy: all operations it
// handles carry only keys of its shard.
type policyShard struct {
	nd *node
	rt *server.Runtime
}

// New creates a classic PS on cl and starts one server goroutine per node.
// All parameters are zero-initialized at their assigned server.
func New(cl *cluster.Cluster, layout kv.Layout, cfg Config) *System {
	return build(cl, layout, cfg, nil)
}

func build(cl *cluster.Cluster, layout kv.Layout, cfg Config, stale *StaleConfig) *System {
	s := &System{
		cl:     cl,
		layout: layout,
		cfg:    cfg,
		stale:  stale,
		part:   partition.NewRange(layout.NumKeys(), cl.Nodes()),
		g:      server.NewGroup(cl, layout),
		nodes:  make([]*node, cl.Nodes()),
	}
	// Only nodes hosted by this process get shard stores (and replicas);
	// remote nodes' state lives with their own process.
	for n := 0; n < cl.Nodes(); n++ {
		if !cl.Local(n) {
			continue
		}
		s.nodes[n] = &node{sys: s, srv: s.g.Node(n), store: store.NewDense(layout, 0)}
		if stale != nil {
			s.nodes[n].clk = newClocks(cl.TotalWorkers())
		}
	}
	// Zero-initialize every locally served key at its server.
	for k := kv.Key(0); k < layout.NumKeys(); k++ {
		if nd := s.nodes[s.part.NodeOf(k)]; nd != nil {
			nd.store.Set(k, make([]float32, layout.Len(k)))
		}
	}
	s.g.Start(func(n, shard int) server.Policy {
		return &policyShard{nd: s.nodes[n], rt: s.g.Runtime(n, shard)}
	})
	return s
}

// Layout returns the parameter layout.
func (s *System) Layout() kv.Layout { return s.layout }

// Stats returns the per-node server statistics.
func (s *System) Stats() []*metrics.ServerStats { return s.g.Stats() }

// Latencies returns the merged operation-latency snapshot of every worker of
// this process's nodes.
func (s *System) Latencies() metrics.LatencySnapshot { return s.g.Latencies() }

// Init sets initial parameter values: fn fills the value of each key. It must
// be called before training starts (it writes server stores directly). fn is
// invoked for every key — so stateful initializers produce identical
// sequences in every process — but only locally served keys are stored.
func (s *System) Init(fn func(k kv.Key, val []float32)) {
	var buf []float32
	for k := kv.Key(0); k < s.layout.NumKeys(); k++ {
		l := s.layout.Len(k)
		if cap(buf) < l {
			buf = make([]float32, l)
		}
		v := buf[:l]
		for i := range v {
			v[i] = 0
		}
		fn(k, v)
		if nd := s.nodes[s.part.NodeOf(k)]; nd != nil {
			nd.store.Set(k, v)
		}
	}
}

// ReadParameter reads the current value of k directly from its server's
// store, bypassing the network. Intended for evaluation/loss computation
// after training rounds, not for worker use; only valid for keys served by
// a node of this process.
func (s *System) ReadParameter(k kv.Key, dst []float32) {
	n := s.part.NodeOf(k)
	if s.nodes[n] == nil {
		panic(fmt.Sprintf("classic: ReadParameter(%d): server node %d is not hosted by this process", k, n))
	}
	s.nodes[n].store.Read(k, dst)
}

// Shutdown waits for server goroutines to exit. The cluster's network must be
// closed first (cluster.Close), which drains and closes the inboxes.
func (s *System) Shutdown() { s.g.Wait() }

// Handle returns a KV client for the given worker thread. Handles must not
// be shared across goroutines.
func (s *System) Handle(worker int) kv.KV {
	n := s.cl.NodeOfWorker(worker)
	h := handle{Handle: server.NewHandle(s.g.Node(n), worker), sys: s, nd: s.nodes[n]}
	if s.stale != nil {
		return &staleHandle{handle: h, writeCache: make(map[kv.Key][]float32)}
	}
	return &h
}

// OnOpResp implements server.Policy (nothing to observe).
func (sh *policyShard) OnOpResp(*msg.OpResp) {}

// HandleMessage implements server.Policy. Operations carry only this shard's
// keys, so no other shard goroutine touches them. The stale PS's clock
// messages reach only its own servers: SspClock is pinned to shard 0 by the
// transport demux; SspSync may reach any shard (its node-level state is
// clock-guarded, and replies deterministically land on the shard that
// registered the fetch, because request and reply carry the same key list).
func (sh *policyShard) HandleMessage(src int, m any) {
	switch t := m.(type) {
	case *msg.Op:
		sh.handleOp(t)
		return
	case *msg.SspClock:
		if sh.nd.clk != nil {
			sh.nd.handleClock(sh, t)
			return
		}
	case *msg.SspSync:
		if sh.nd.clk != nil {
			sh.nd.handleSync(sh, src, t)
			return
		}
	}
	panic(fmt.Sprintf("classic: unexpected message %T at node %d", m, sh.rt.Node()))
}

// handleOp serves a pull from the store or applies a push (for the stale PS,
// a worker's clock flush) and acknowledges it: the ack keeps push futures
// precise, as Petuum's oplog flush is likewise confirmed.
func (sh *policyShard) handleOp(m *msg.Op) {
	nd := sh.nd
	resp := &msg.OpResp{Type: m.Type, ID: m.ID, Responder: int32(sh.rt.Node()), Keys: m.Keys}
	switch m.Type {
	case msg.OpPull:
		resp.Vals = nd.readValues(m.Keys)
	case msg.OpPush:
		off := 0
		for _, k := range m.Keys {
			l := nd.sys.layout.Len(k)
			if !nd.store.Add(k, m.Vals[off:off+l]) {
				panic(fmt.Sprintf("classic: push of key %d at node %d: not in store", k, sh.rt.Node()))
			}
			off += l
		}
	}
	sh.rt.Send(int(m.Origin), resp)
}

// readValues returns the stored values of keys, concatenated in key order.
func (nd *node) readValues(keys []kv.Key) []float32 {
	vals := make([]float32, kv.BufferLen(nd.sys.layout, keys))
	off := 0
	for _, k := range keys {
		l := nd.sys.layout.Len(k)
		if !nd.store.Read(k, vals[off:off+l]) {
			panic(fmt.Sprintf("classic: read of key %d at node %d: not in store", k, nd.srv.ID()))
		}
		off += l
	}
	return vals
}

// handle is the per-worker client: identity, barrier, and WaitAll come from
// the shared runtime handle; this type adds the static-partitioning router.
type handle struct {
	server.Handle
	sys *System
	nd  *node
}

// Localize implements kv.KV: classic and stale PSs allocate statically.
func (h *handle) Localize([]kv.Key) error { return kv.ErrUnsupported }

// LocalizeAsync implements kv.KV.
func (h *handle) LocalizeAsync([]kv.Key) *kv.Future {
	return kv.CompletedFuture(kv.ErrUnsupported)
}

// Pull implements kv.KV.
func (h *handle) Pull(keys []kv.Key, dst []float32) error {
	return h.PullAsync(keys, dst).Wait()
}

// Push implements kv.KV.
func (h *handle) Push(keys []kv.Key, vals []float32) error {
	return h.PushAsync(keys, vals).Wait()
}

// PullAsync implements kv.KV.
func (h *handle) PullAsync(keys []kv.Key, dst []float32) *kv.Future {
	if want := kv.BufferLen(h.sys.layout, keys); len(dst) != want {
		return kv.CompletedFuture(fmt.Errorf("classic: pull buffer has %d values, want %d", len(dst), want))
	}
	fut := h.DispatchOp(h, msg.OpPull, keys, dst, nil)
	h.Track(fut)
	return fut
}

// PushAsync implements kv.KV.
func (h *handle) PushAsync(keys []kv.Key, vals []float32) *kv.Future {
	if want := kv.BufferLen(h.sys.layout, keys); len(vals) != want {
		return kv.CompletedFuture(fmt.Errorf("classic: push buffer has %d values, want %d", len(vals), want))
	}
	fut := h.DispatchOp(h, msg.OpPush, keys, nil, vals)
	h.Track(fut)
	return fut
}

// RouteKey implements server.Router: every key goes to its statically
// assigned server, except that with fast local access enabled, keys assigned
// to this node are served through shared memory immediately.
func (h *handle) RouteKey(t msg.OpType, _ *server.OpCtx, k kv.Key, dst, vals []float32) server.KeyRoute {
	n := h.sys.part.NodeOf(k)
	local := n == h.NodeID()
	st := h.nd.srv.ShardOf(k).Stats()
	if local && h.sys.cfg.FastLocalAccess {
		switch t {
		case msg.OpPull:
			h.nd.store.Read(k, dst)
			st.LocalReads.Inc()
			st.ReadValues.Add(int64(len(dst)))
		case msg.OpPush:
			h.nd.store.Add(k, vals)
			st.LocalWrites.Inc()
		}
		return server.KeyRoute{Served: true}
	}
	countAccess(st, t, local, 1)
	if t == msg.OpPull {
		st.ReadValues.Add(int64(h.sys.layout.Len(k)))
	}
	return server.KeyRoute{Dest: n}
}

// PullIfLocal implements kv.KV: succeeds only if every key is assigned to the
// caller's node.
func (h *handle) PullIfLocal(keys []kv.Key, dst []float32) (bool, error) {
	for _, k := range keys {
		if h.sys.part.NodeOf(k) != h.NodeID() {
			return false, nil
		}
	}
	return true, h.Pull(keys, dst)
}

// countAccess attributes an access to the local/remote read/write counters.
// "Local" means the parameter resides on the accessing worker's node, whether
// or not the access used the shared-memory fast path.
func countAccess(s *metrics.ServerStats, t msg.OpType, local bool, n int) {
	switch {
	case t == msg.OpPull && local:
		s.LocalReads.Add(int64(n))
	case t == msg.OpPull:
		s.RemoteReads.Add(int64(n))
	case local:
		s.LocalWrites.Add(int64(n))
	default:
		s.RemoteWrites.Add(int64(n))
	}
}

var (
	_ kv.KV         = (*handle)(nil)
	_ server.Policy = (*policyShard)(nil)
	_ server.Router = (*handle)(nil)
)
