// Package ssp implements the stale parameter-server architecture (Petuum) the
// paper compares against in Section 4.5: static parameter allocation plus
// bounded-staleness replication.
//
// Parameters are range-partitioned across server shards as in a classic PS.
// Each node additionally keeps replicas of the parameters its workers have
// accessed, tagged with the global clock they reflect, and each worker
// buffers its updates in a write-back cache that is flushed when the worker
// advances its clock. A read at worker clock c with staleness bound s may be
// served from a replica that reflects global clock >= c-s; otherwise the
// worker synchronizes with the server, blocking until the server's global
// clock (the minimum over all worker clocks) is recent enough.
//
// Two synchronization strategies are provided, matching Petuum's SSP and
// SSPPush consistency models:
//
//   - Client-based (SSP): stale replicas are refreshed by an explicit
//     synchronous fetch from the server.
//   - Server-based (SSPPush): after every global clock advance, each server
//     eagerly pushes the current values of all parameters a node has ever
//     fetched ("learned" subscriptions, populated during a warm-up epoch) to
//     that node. This eliminates fetch latency but replicates every
//     previously accessed parameter whether needed or not — the unnecessary
//     communication the paper identifies as Petuum's scaling bottleneck.
//
// Consistency (Table 1): eventual and client-centric (reads observe the
// worker's own buffered writes; replica clocks advance monotonically), but
// neither causal nor sequential consistency.
//
// The message loop, pending-operation matching, future tracking, and
// per-destination batching live in the shared runtime of package server;
// this package contributes only the staleness policy: shard serving, clock
// bookkeeping, and replica management.
package ssp

import (
	"fmt"
	"sort"
	"sync"

	"lapse/internal/cluster"
	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/msg"
	"lapse/internal/partition"
	"lapse/internal/server"
	"lapse/internal/store"
)

// Config parameterizes the stale PS.
type Config struct {
	// Staleness is the SSP staleness bound s: a read at worker clock c
	// tolerates replicas as old as global clock c-s.
	Staleness int
	// ServerSync selects server-based synchronization (SSPPush).
	ServerSync bool
}

// System is a running stale PS.
type System struct {
	cl      *cluster.Cluster
	layout  kv.Layout
	cfg     Config
	part    partition.Range
	g       *server.Group
	nodes   []*node
	workers int
}

// node combines the server store and the client-side replica manager of one
// simulated machine. Its message handling is split across the runtime's
// server shards: flushed updates are applied by the shard owning their keys
// (the store's latches keep per-key atomicity), while the clock protocol —
// whose handlers mutate node-level state under clockMu and rely on per-link
// FIFO — is pinned to shard 0 by the transport demux.
type node struct {
	sys *System
	srv *server.Node
	sh  []*policyShard

	// Server-side state.
	shard        store.Store
	clockMu      sync.Mutex
	workerClocks []int32
	globalClock  int32
	waiting      []waitingSync
	subs         map[int]map[kv.Key]struct{} // subscriber node -> keys

	// Client-side state (replicas).
	repMu    sync.RWMutex
	replicas map[kv.Key]*replica
}

// policyShard is one server shard's view of the node policy.
type policyShard struct {
	nd *node
	rt *server.Runtime
}

type replica struct {
	vals  []float32
	clock int32
}

type waitingSync struct {
	required int32
	origin   int32
	id       uint64
	keys     []kv.Key
}

// New creates a stale PS on cl with zero-initialized parameters and starts
// the per-node message loops.
func New(cl *cluster.Cluster, layout kv.Layout, cfg Config) *System {
	if cfg.Staleness < 0 {
		panic(fmt.Sprintf("ssp: negative staleness %d", cfg.Staleness))
	}
	s := &System{
		cl:      cl,
		layout:  layout,
		cfg:     cfg,
		part:    partition.NewRange(layout.NumKeys(), cl.Nodes()),
		g:       server.NewGroup(cl, layout),
		nodes:   make([]*node, cl.Nodes()),
		workers: cl.TotalWorkers(),
	}
	// Only nodes hosted by this process get shards and replica managers;
	// remote nodes' state lives with their own process.
	for n := 0; n < cl.Nodes(); n++ {
		if !cl.Local(n) {
			continue
		}
		srv := s.g.Node(n)
		nd := &node{
			sys:          s,
			srv:          srv,
			sh:           make([]*policyShard, srv.Shards()),
			shard:        store.NewDense(layout, 0),
			workerClocks: make([]int32, cl.TotalWorkers()),
			subs:         make(map[int]map[kv.Key]struct{}),
			replicas:     make(map[kv.Key]*replica),
		}
		for sh := range nd.sh {
			nd.sh[sh] = &policyShard{nd: nd, rt: srv.Shard(sh)}
		}
		s.nodes[n] = nd
	}
	for k := kv.Key(0); k < layout.NumKeys(); k++ {
		if nd := s.nodes[s.part.NodeOf(k)]; nd != nil {
			nd.shard.Set(k, make([]float32, layout.Len(k)))
		}
	}
	s.g.Start(func(n, shard int) server.Policy {
		if s.nodes[n] == nil {
			return nil // non-local node: no message loop runs
		}
		return s.nodes[n].sh[shard]
	})
	return s
}

// Layout returns the parameter layout.
func (s *System) Layout() kv.Layout { return s.layout }

// Stats returns per-node statistics.
func (s *System) Stats() []*metrics.ServerStats { return s.g.Stats() }

// Latencies returns the merged operation-latency snapshot of every worker of
// this process's nodes.
func (s *System) Latencies() metrics.LatencySnapshot { return s.g.Latencies() }

// Init sets initial parameter values at the server shards. fn is invoked
// for every key — so stateful initializers produce identical sequences in
// every process — but only locally sharded keys are stored.
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
			nd.shard.Set(k, v)
		}
	}
}

// ReadParameter reads the authoritative server value of k (quiescent only;
// the shard must be hosted by this process).
func (s *System) ReadParameter(k kv.Key, dst []float32) {
	n := s.part.NodeOf(k)
	if s.nodes[n] == nil {
		panic(fmt.Sprintf("ssp: ReadParameter(%d): shard node %d is not hosted by this process", k, n))
	}
	s.nodes[n].shard.Read(k, dst)
}

// GlobalClock returns node n's view of the global clock (tests; n must be
// hosted by this process).
func (s *System) GlobalClock(n int) int32 {
	nd := s.nodes[n]
	if nd == nil {
		panic(fmt.Sprintf("ssp: GlobalClock(%d): node is not hosted by this process", n))
	}
	nd.clockMu.Lock()
	defer nd.clockMu.Unlock()
	return nd.globalClock
}

// Shutdown waits for the node loops to exit; close the cluster network first.
func (s *System) Shutdown() { s.g.Wait() }

// Handle returns the KV client of a worker thread.
func (s *System) Handle(worker int) kv.KV {
	n := s.cl.NodeOfWorker(worker)
	return &handle{
		Handle:     server.NewHandle(s.g.Node(n), worker),
		sys:        s,
		nd:         s.nodes[n],
		writeCache: make(map[kv.Key][]float32),
	}
}

// OnOpResp implements server.Policy (nothing to observe; the runtime
// completes flush acknowledgements).
func (sh *policyShard) OnOpResp(*msg.OpResp) {}

// HandleMessage implements server.Policy. Flushes carry only this shard's
// keys; SspClock is pinned to shard 0 by the transport demux; SspSync may
// reach any shard (its node-level state is clock-guarded, and replies
// deterministically land on the shard that registered the fetch, because
// request and reply carry the same key list).
func (sh *policyShard) HandleMessage(src int, m any) {
	switch t := m.(type) {
	case *msg.Op:
		sh.handleFlush(t)
	case *msg.SspClock:
		sh.nd.handleClock(sh, t)
	case *msg.SspSync:
		sh.nd.handleSync(sh, src, t)
	default:
		panic(fmt.Sprintf("ssp: unexpected message %T at node %d", m, sh.rt.Node()))
	}
}

// handleFlush applies a worker's flushed update batch to the store and
// acknowledges it (the ack keeps flush futures precise; Petuum's oplog flush
// is likewise confirmed).
func (sh *policyShard) handleFlush(m *msg.Op) {
	nd := sh.nd
	if m.Type != msg.OpPush {
		panic("ssp: only push flushes reach servers")
	}
	off := 0
	for _, k := range m.Keys {
		l := nd.sys.layout.Len(k)
		if !nd.shard.Add(k, m.Vals[off:off+l]) {
			panic(fmt.Sprintf("ssp: flush for key %d not in shard of node %d", k, sh.rt.Node()))
		}
		off += l
	}
	resp := &msg.OpResp{Type: msg.OpPush, ID: m.ID, Responder: int32(sh.rt.Node()), Keys: m.Keys}
	sh.rt.Send(int(m.Origin), resp)
}

// handleClock advances a worker's clock at this server and, if the global
// clock advanced, releases blocked synchronizations and (in SSPPush mode)
// eagerly pushes subscribed parameters.
func (nd *node) handleClock(sh *policyShard, m *msg.SspClock) {
	nd.clockMu.Lock()
	if m.Clock > nd.workerClocks[m.Worker] {
		nd.workerClocks[m.Worker] = m.Clock
	}
	min := nd.workerClocks[0]
	for _, c := range nd.workerClocks[1:] {
		if c < min {
			min = c
		}
	}
	advanced := min > nd.globalClock
	nd.globalClock = min
	var release []waitingSync
	if advanced {
		kept := nd.waiting[:0]
		for _, w := range nd.waiting {
			if w.required <= min {
				release = append(release, w)
			} else {
				kept = append(kept, w)
			}
		}
		nd.waiting = kept
	}
	global := nd.globalClock
	nd.clockMu.Unlock()

	for _, w := range release {
		nd.replySync(sh, w.origin, w.id, w.keys, global)
	}
	if advanced && nd.sys.cfg.ServerSync {
		nd.eagerPush(sh, global)
	}
}

// eagerPush sends every subscribed key's current value to each subscriber
// node (SSPPush: replicate all previously accessed parameters). The pushed
// messages may span shards; receivers install them clock-monotonically, so
// no shard-purity is required (see msg.ShardOf).
func (nd *node) eagerPush(sh *policyShard, global int32) {
	nd.clockMu.Lock()
	plan := make(map[int][]kv.Key, len(nd.subs))
	for sub, keys := range nd.subs {
		ks := make([]kv.Key, 0, len(keys))
		for k := range keys {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		plan[sub] = ks
	}
	nd.clockMu.Unlock()
	for sub, ks := range plan {
		if len(ks) == 0 {
			continue
		}
		vals := make([]float32, 0, kv.BufferLen(nd.sys.layout, ks))
		buf := make([]float32, 0)
		for _, k := range ks {
			l := nd.sys.layout.Len(k)
			if cap(buf) < l {
				buf = make([]float32, l)
			}
			b := buf[:l]
			nd.shard.Read(k, b)
			vals = append(vals, b...)
		}
		m := &msg.SspSync{ID: 0, Clock: global, Keys: ks, Vals: vals}
		sh.rt.Send(sub, m)
	}
}

// handleSync processes either a client fetch request (at a server, ID != 0
// with no values) or a replica refresh (at a client: a fetch reply or an
// eager push).
func (nd *node) handleSync(sh *policyShard, src int, m *msg.SspSync) {
	if m.Vals == nil {
		// Fetch request: serve when the global clock is recent enough.
		nd.clockMu.Lock()
		if sub, ok := nd.subs[src]; ok {
			for _, k := range m.Keys {
				sub[k] = struct{}{}
			}
		} else {
			set := make(map[kv.Key]struct{}, len(m.Keys))
			for _, k := range m.Keys {
				set[k] = struct{}{}
			}
			nd.subs[src] = set
		}
		ready := nd.globalClock >= m.Clock
		global := nd.globalClock
		if !ready {
			// The wait entry outlives this handler, so it must own its key
			// list: m.Keys aliases the message's recyclable decode scratch.
			keys := append([]kv.Key(nil), m.Keys...)
			nd.waiting = append(nd.waiting, waitingSync{required: m.Clock, origin: int32(src), id: m.ID, keys: keys})
			sh.rt.Stats().SyncWaits.Inc()
		}
		nd.clockMu.Unlock()
		if ready {
			nd.replySync(sh, int32(src), m.ID, m.Keys, global)
		}
		return
	}
	// Replica refresh at a client. A fetch reply carries the request's key
	// list, so it arrived on the shard whose pending table holds the fetch.
	nd.applyRefresh(m)
	if m.ID != 0 {
		sh.rt.Pending().FinishKeys(m.ID, 1)
	}
}

// replySync sends the current store values of keys to origin.
func (nd *node) replySync(sh *policyShard, origin int32, id uint64, keys []kv.Key, global int32) {
	vals := make([]float32, 0, kv.BufferLen(nd.sys.layout, keys))
	var buf []float32
	for _, k := range keys {
		l := nd.sys.layout.Len(k)
		if cap(buf) < l {
			buf = make([]float32, l)
		}
		b := buf[:l]
		if !nd.shard.Read(k, b) {
			panic(fmt.Sprintf("ssp: sync for key %d not in shard of node %d", k, sh.rt.Node()))
		}
		vals = append(vals, b...)
	}
	m := &msg.SspSync{ID: id, Clock: global, Keys: keys, Vals: vals}
	sh.rt.Send(int(origin), m)
}

// applyRefresh installs newer replica values; older refreshes are ignored so
// replica clocks advance monotonically (monotonic reads).
func (nd *node) applyRefresh(m *msg.SspSync) {
	nd.repMu.Lock()
	defer nd.repMu.Unlock()
	off := 0
	for _, k := range m.Keys {
		l := nd.sys.layout.Len(k)
		v := m.Vals[off : off+l]
		off += l
		r, ok := nd.replicas[k]
		if !ok {
			r = &replica{vals: make([]float32, l)}
			nd.replicas[k] = r
		} else if r.clock > m.Clock {
			continue
		}
		copy(r.vals, v)
		r.clock = m.Clock
	}
}

var _ server.Policy = (*policyShard)(nil)
