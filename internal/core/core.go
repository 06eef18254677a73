// Package core implements Lapse, the paper's parameter server with dynamic
// parameter allocation (DPA).
//
// Architecture (Figure 2, sharded): each node runs S server shard goroutines
// (S = the transport's shard count) and serves several co-located worker
// threads. Workers access node-local parameters directly through shared
// memory (striped latches); everything else flows through the network. Each
// shard owns the interleaved static key slice k ≡ s (mod S): it is the only
// goroutine on its node that serves, queues, or relocates those keys, so the
// paper's per-key ordering arguments carry over shard by shard.
//
// Location management (Section 3.5) uses the decentralized home-node
// strategy: each key has a statically assigned home node that tracks the
// key's current owner. Remote accesses use the *forward* strategy
// (Figure 5b): requester → home → owner → requester. With location caches
// enabled, requesters contact the cached owner directly (Figure 5c); a stale
// cache entry costs one extra hop via the home node (double-forward,
// Figure 5d).
//
// Relocation (Section 3.2) sends at most three messages:
//
//	requester --Localize--> home --RelocInstruct--> old owner --RelocTransfer--> requester
//
// The home node updates its owner table immediately and routes subsequent
// accesses to the requester; the requester queues all accesses for the key
// (its workers' and forwarded ones) until the transfer arrives, then drains
// the queue in arrival order. The old owner keeps processing accesses until
// the instruct arrives, which bounds blocking time by roughly one message
// latency. All three messages concern keys of one shard and travel between
// the same shard index on every node involved.
//
// Consistency (Section 3.4): synchronous operations are sequentially
// consistent per key at every shard count. Asynchronous operations are too,
// with location caches off and a single shard (Theorem 2): every access to a
// key at a node passes one gate (below) that serves it, queues it behind a
// relocation toward the node, or routes it onward, so a worker's accesses to
// one key all travel the same FIFO path or wait in the same queue. The rule
// that keeps this true under concurrency: a routing decision taken under the
// key's queue lock is on the link before the lock is released (transport
// Sends queue and never block), so no relocation request slips between the
// decision and the send. internal/consistency's Table 1 suite checks the
// guarantee on recorded histories, ordering_test.go pins the three
// interleavings that used to break it. With multiple shards, two async
// operations on keys of different shards travel independent message loops and
// may apply out of program order, so the guarantee weakens to sequential
// consistency per shard (and, as always, per key) — eventual across shards.
// Location caches weaken async operations to eventual consistency regardless
// of shard count.
//
// The message loops, pending-operation matching, future tracking, and
// per-(destination, shard) batching live in the shared runtime of package
// server; this package contributes the DPA policy: the per-key locality
// state machine, home/owner routing, relocation queues, and the relocation
// protocol itself. Operations this node forwards onward (as home, or as a
// stale-cache fallback) are likewise batched into one message per
// destination.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lapse/internal/adaptive"
	"lapse/internal/cluster"
	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/msg"
	"lapse/internal/partition"
	"lapse/internal/replication"
	"lapse/internal/server"
	"lapse/internal/store"
)

// Per-key locality states (per node).
const (
	stateNotHere uint32 = iota
	stateOwned
	stateIncoming   // relocation to this node in progress; accesses are queued
	stateReplicated // served from the node-local replica (hot-key replication)
)

// maxHops bounds forwarding chains; exceeding it indicates a routing bug.
const maxHops = 16

// Config parameterizes a Lapse instance.
type Config struct {
	// LocationCaches enables per-node caches of recently observed key
	// locations (Section 3.3). Off by default, as in the paper's reported
	// runs.
	LocationCaches bool
	// Replicate designates hot keys managed by eventually-consistent
	// replication instead of relocation: every node holds a local replica,
	// all reads and cumulative writes are shared-memory operations, and a
	// background sync cycle merges updates via each key's home node (see
	// internal/replication). Localize is a no-op for replicated keys, and
	// the controller (Adaptive) never demotes them. Must be identical on
	// every node of a multi-process deployment.
	Replicate []kv.Key
	// Adaptive enables the online per-key management controller: each node
	// periodically reports its hottest keys to their home nodes, which
	// promote hot-everywhere keys into replication, relocate locality-skewed
	// keys to their dominant accessor, and demote the keys they promoted once
	// these went cold — live, with explicit transition protocols (see
	// internal/adaptive and adaptive.go). Must be identical on every node of
	// a multi-process deployment.
	Adaptive bool
	// Serving enables the read-path serving tier: MultiGet misses install
	// TTL-leased values in a node-local serving cache, owners track the
	// holders and overwrite their copies in place on every write (dropping
	// them only when the value leaves: relocation, promotion), and subsequent
	// MultiGets of leased keys are shared-memory reads with zero
	// pending-table registration (see serving.go and DESIGN.md "Serving
	// tier"). nil disables the tier; MultiGet then behaves like Pull.
	Serving *ServingConfig
}

// System is a running Lapse instance on a cluster.
type System struct {
	cl     *cluster.Cluster
	layout kv.Layout
	// replicate is set when keys may be replicated: a static hot set, or the
	// controller.
	replicate bool
	// home statically assigns every key its home node (range partitioning).
	home partition.Range
	g    *server.Group
	// nodes is indexed by node; only the nodes this process hosts (locals) have
	// an entry: in a multi-process deployment the others' state lives with them.
	nodes, locals []*node
	// stop ends the local nodes' background loops, loops counts them (see
	// stopLoops).
	stop     chan struct{}
	stopOnce sync.Once
	loops    sync.WaitGroup
}

// node holds the per-node policy state: the local parameter store, the
// locality state of every key, the owner table of the node's home range, and one
// policyShard per server shard with that shard's relocation queues. The
// message loops and pending-operation tables are the shared runtime's.
type node struct {
	sys *System
	srv *server.Node
	id  int

	store *store.Dense
	// state[k] is the locality state of key k at this node.
	state []atomic.Uint32
	// owner[k-lo] is the current owner of key k, for the keys [lo, hi) homed
	// here (ownerEntry). Only shard(k)'s goroutine writes it.
	owner []atomic.Int32
	lo    kv.Key
	// cache[k] is the cached location of key k (-1 = unknown); only used
	// when location caches are enabled.
	cache []atomic.Int32
	// sh[s] is the policy of server shard s.
	sh []*policyShard
	// rep holds this node's copies of remote keys — replicas of hot keys and
	// leased copies — and runs the replica sync cycle (nil when neither
	// replication nor the serving tier is configured). Its wire messages are
	// key-addressed: each shard handles the traffic of its own keys.
	rep *replication.Manager
	// tracker samples this node's key accesses as the adaptive controller's
	// evidence (nil without the controller). Per-node (like stats), so worker
	// fast paths never contend on a process-wide counter.
	tracker *replication.Tracker
	// ctl is the adaptive controller's reporter state (unused when adaptive
	// management is off).
	ctl reporter
	// leases is the owner-side lease registry, and leased[k] a lock-free flag
	// the worker write fast path checks before touching it. Both nil when the
	// serving tier is disabled.
	leases *leaseReg
	leased []atomic.Uint32
}

// policyShard is one server shard's policy state: the relocation queues of
// the shard's keys. Everything it touches by key — store values, locality
// states, owner entries, queues — belongs to its static key slice, so shard
// goroutines never race on per-key state; queueMu exists because worker
// threads enqueue into the shard's relocation queues.
type policyShard struct {
	nd    *node
	rt    *server.Runtime
	stats *metrics.ServerStats
	// trace is the cluster's control-plane event ring; relocation and
	// management transitions of this shard's keys are recorded into it.
	trace *metrics.TraceRing
	// queueMu guards queues and the Incoming<->Owned transitions of the
	// shard's keys.
	queueMu sync.Mutex
	queues  map[kv.Key]*keyQueue
	// transitioning tracks the shard's keys with a management transition in
	// flight (promote into / demote out of replication). Only the shard's
	// server goroutine touches it.
	transitioning map[kv.Key]*transition
	// classifier decides management transitions for keys homed here (nil
	// unless adaptive management is enabled).
	classifier *adaptive.Classifier
	// managing is set while the classifier holds managed keys — the only
	// state an idle sweep can act on — so the controller ticker knows whether
	// this shard needs one. Written by the shard goroutine.
	managing atomic.Bool
	// reportAt[o] is one past the epoch origin o's latest report arrived (0:
	// never), for the ticker's report-age gauge; setAsideAt[o] the epoch o's
	// last set-aside report was traced.
	reportAt   []atomic.Uint32
	setAsideAt []uint32
	// handleOp answer scratch, reused across messages (only the shard's
	// server goroutine touches it, and responses are consumed on send).
	ansKeys []kv.Key
	ansVals []float32
	resp    msg.OpResp
}

// keyQueue is everything that waits for a key relocating to this node (state
// Incoming): the operations that arrived meanwhile, drained in arrival order,
// and the localizes to complete once the key is in (see wake).
type keyQueue struct {
	entries []queueEntry
	waiters []*server.Agg
}

// queueEntry is one queued access, or a relocation instruct that chains the
// key onward (instr set).
type queueEntry struct {
	// a is the access: a worker's (a.m nil; id and off name its part and its
	// occurrence in the node's pending table, a.buf is a slice of the worker's
	// buffer) or one key of a remote operation (a.m is a private single-key
	// copy of it).
	a     access
	id    uint64
	off   int32
	instr *msg.RelocInstruct
	// at is the enqueue time; the drain observes now-at into the shard's
	// QueueWait histogram — the time an access spent blocked on a relocation.
	at time.Time
}

// New creates a Lapse instance on cl with all parameters zero-initialized at
// their home nodes, and starts the per-shard server goroutines of every
// local node.
func New(cl *cluster.Cluster, layout kv.Layout, cfg Config) *System {
	s := &System{
		cl:        cl,
		layout:    layout,
		replicate: len(cfg.Replicate) > 0 || cfg.Adaptive,
		home:      partition.NewRange(layout.NumKeys(), cl.Nodes()),
		g:         server.NewGroup(cl, layout),
		nodes:     make([]*node, cl.Nodes()),
		stop:      make(chan struct{}),
	}
	nk := int(layout.NumKeys())
	for n := 0; n < cl.Nodes(); n++ {
		if !cl.Local(n) {
			continue
		}
		srv := s.g.Node(n)
		lo, hi := s.home.RangeOf(n)
		nd := &node{
			sys:   s,
			srv:   srv,
			id:    n,
			store: store.NewDense(layout, 0),
			state: make([]atomic.Uint32, nk),
			owner: make([]atomic.Int32, hi-lo),
			lo:    lo,
			sh:    make([]*policyShard, srv.Shards()),
		}
		for sh := range nd.sh {
			rt := srv.Shard(sh)
			nd.sh[sh] = &policyShard{nd: nd, rt: rt, stats: rt.Stats(), trace: cl.Trace(),
				queues: make(map[kv.Key]*keyQueue), transitioning: make(map[kv.Key]*transition)}
		}
		if cfg.LocationCaches {
			nd.cache = make([]atomic.Int32, nk)
			for i := range nd.cache {
				nd.cache[i].Store(-1)
			}
		}
		if cfg.Serving != nil {
			nd.leases = newLeaseReg(cfg.Serving)
			nd.leased = make([]atomic.Uint32, nk)
		}
		if s.replicate || cfg.Serving != nil {
			nd.rep = replication.NewManager(replication.Config{
				Node:   n,
				Nodes:  cl.Nodes(),
				Layout: layout,
				Home:   s.home,
				Stats:  s.g.Stats()[n*len(nd.sh) : (n+1)*len(nd.sh)],
				Send:   srv.Send,
			})
		}
		if cfg.Adaptive {
			nd.tracker = replication.NewTracker(0)
			nd.ctl = reporter{groups: make(map[reportGroup]*groupReport), reported: make([]bool, len(nd.sh))}
			for _, shp := range nd.sh {
				shp := shp
				shp.reportAt = make([]atomic.Uint32, cl.Nodes())
				// Backdated so an origin's first set-aside report is traced.
				shp.setAsideAt = make([]uint32, cl.Nodes())
				for o := range shp.setAsideAt {
					shp.setAsideAt[o] -= setAsideTraceEvery
				}
				shp.classifier = adaptive.NewClassifier(adaptive.Config{}, adaptive.View{
					Node:       n,
					Owner:      func(k kv.Key) int { return int(nd.ownerEntry(k).Load()) },
					Replicated: func(k kv.Key) bool { return nd.state[k].Load() == stateReplicated },
					Busy:       func(k kv.Key) bool { _, ok := shp.transitioning[k]; return ok },
				})
			}
		}
		// The static hot set enters replication as a promotion leaves a key,
		// at zero like every other key: the authoritative value at its home, a
		// replica elsewhere. No classifier promoted it, so none demotes it.
		for _, k := range cfg.Replicate {
			if k >= layout.NumKeys() {
				panic(fmt.Sprintf("core: replicated key %d outside layout (%d keys)", k, layout.NumKeys()))
			}
			if nd.state[k].Load() == stateReplicated {
				continue // listed twice
			}
			zero := make([]float32, layout.Len(k))
			if s.home.NodeOf(k) == n {
				nd.rep.EnterHomeKey(k, zero)
			} else {
				nd.rep.EnterKey(k, zero)
			}
			nd.state[k].Store(stateReplicated)
		}
		// Initial allocation: every key lives at its home node; replicated
		// keys live in the replication managers instead and are Replicated at
		// every node. The owner table names this node for every key of its
		// home range — including replicated ones, whose owner stays the home
		// for as long as they are replicated — so demotion reopens correct
		// routing with no table updates. Every process derives the same
		// global picture from the shared partitioner but materializes only
		// its local share.
		for k := lo; k < hi; k++ {
			nd.ownerEntry(k).Store(int32(n))
			if nd.state[k].Load() != stateReplicated {
				nd.store.Set(k, make([]float32, layout.Len(k)))
				nd.state[k].Store(stateOwned)
			}
		}
		s.nodes[n] = nd
		s.locals = append(s.locals, nd)
	}
	s.g.Start(func(n, shard int) server.Policy {
		if s.nodes[n] == nil {
			return nil // non-local node: no message loop runs
		}
		return s.nodes[n].sh[shard]
	})
	for _, nd := range s.locals {
		if s.replicate {
			s.loops.Add(1)
			go nd.loop()
		}
	}
	return s
}

// loop is the node's one background goroutine: a replica sync round every
// replication.DefaultSyncEvery and, under the controller, a report tick every
// adaptive.Tick, until stopLoops.
func (nd *node) loop() {
	defer nd.sys.loops.Done()
	flush := time.NewTicker(replication.DefaultSyncEvery)
	defer flush.Stop()
	var report <-chan time.Time // nil without the controller: never fires
	if nd.tracker != nil {
		t := time.NewTicker(adaptive.Tick)
		defer t.Stop()
		report = t.C
	}
	for {
		select {
		case <-nd.sys.stop:
			return
		case <-flush.C:
			nd.rep.Flush()
		case <-report:
			nd.reportTick()
		}
	}
}

// shardOf returns the policy shard owning key k at this node.
func (nd *node) shardOf(k kv.Key) *policyShard {
	return nd.sh[msg.ShardOfKey(k, len(nd.sh))]
}

// ownerEntry returns the owner-table entry of k, a key homed at this node.
func (nd *node) ownerEntry(k kv.Key) *atomic.Int32 { return &nd.owner[k-nd.lo] }

// holds reports, lock-free, whether key k is local at this node: owned, or
// replicated.
func (nd *node) holds(k kv.Key) bool {
	s := nd.state[k].Load()
	return s == stateOwned || s == stateReplicated
}

// Layout returns the parameter layout.
func (s *System) Layout() kv.Layout { return s.layout }

// Stats returns per-shard server statistics, node-major (Table 5
// instrumentation; aggregate with metrics.Sum).
func (s *System) Stats() []*metrics.ServerStats { return s.g.Stats() }

// Latencies returns the merged operation-latency snapshot of every worker of
// this process's nodes.
func (s *System) Latencies() metrics.LatencySnapshot { return s.g.Latencies() }

// HomeOf returns the home node of k.
func (s *System) HomeOf(k kv.Key) int { return s.home.NodeOf(k) }

// OwnerOf returns the current owner of k according to its home node. Only
// meaningful in quiescent states (tests, evaluation), and only for keys
// whose home node is hosted by this process.
func (s *System) OwnerOf(k kv.Key) int {
	h := s.home.NodeOf(k)
	if s.nodes[h] == nil {
		panic(fmt.Sprintf("core: OwnerOf(%d): home node %d is not hosted by this process", k, h))
	}
	return int(s.nodes[h].ownerEntry(k).Load())
}

// DirectoryEntries returns the number of owner-table entries node n stores:
// one per key of its home range, K/N of the K keys. Node n must be hosted by
// this process.
func (s *System) DirectoryEntries(n int) int { return len(s.nodes[n].owner) }

// Init sets initial parameter values before training; it writes the stores
// directly and must not run concurrently with workers. fn is invoked for
// every key of the layout — so stateful initializers produce identical
// sequences in every process — but only keys resident on this process's
// nodes are stored.
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
		if s.replicated(k) {
			// Replicated keys are seeded at every local replica (and the
			// authoritative copy at the key's home).
			for _, nd := range s.locals {
				nd.rep.InitKey(k, v)
			}
			continue
		}
		h := s.home.NodeOf(k)
		if s.nodes[h] == nil {
			continue // homed (and, pre-training, owned) remotely
		}
		if nd := s.nodes[int(s.nodes[h].ownerEntry(k).Load())]; nd != nil {
			nd.store.Set(k, v)
		}
	}
}

// replicated reports whether k is managed by replication.
func (s *System) replicated(k kv.Key) bool {
	return s.locals[0].state[k].Load() == stateReplicated
}

// ReadParameter reads the current value of k from its owner's store,
// bypassing the network. Only valid in quiescent states, for keys currently
// owned by a node of this process (use a worker Pull otherwise). For a
// replicated key it returns the authoritative merged value at the key's
// home, which equals every replica once the sync cycle has converged.
func (s *System) ReadParameter(k kv.Key, dst []float32) {
	if s.replicated(k) {
		h := s.home.NodeOf(k)
		if s.nodes[h] == nil {
			panic(fmt.Sprintf("core: ReadParameter(%d): home node %d of replicated key is not hosted by this process", k, h))
		}
		s.nodes[h].rep.ReadAuthoritative(k, dst)
		return
	}
	owner := s.OwnerOf(k)
	if s.nodes[owner] == nil {
		panic(fmt.Sprintf("core: ReadParameter(%d): owner node %d is not hosted by this process", k, owner))
	}
	if !s.nodes[owner].store.Read(k, dst) {
		panic(fmt.Sprintf("core: ReadParameter(%d): key not at its registered owner", k))
	}
}

// Shutdown stops the nodes' background loops and waits for the server
// goroutines to exit; the cluster network must be closed first (sync messages
// sent while closing are dropped by the transport).
func (s *System) Shutdown() {
	s.stopLoops()
	s.g.Wait()
}

// stopLoops ends every local node's background loop and waits for it to exit.
// Calling it again is a no-op.
func (s *System) stopLoops() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.loops.Wait()
}

// FlushReplicas runs one replica sync round on every node hosted by this
// process, in addition to the background interval. Convergence of a pushed
// value needs two rounds (deltas to the home, merged values back out) plus
// message delivery.
func (s *System) FlushReplicas() {
	for _, nd := range s.locals {
		if nd.rep != nil {
			nd.rep.Flush()
		}
	}
}

// ReadReplica reads node's current replica view of a replicated key (tests
// and convergence checks; node must be hosted by this process).
func (s *System) ReadReplica(node int, k kv.Key, dst []float32) {
	nd := s.nodes[node]
	if nd == nil || nd.rep == nil {
		panic(fmt.Sprintf("core: ReadReplica(%d, %d): node has no replication manager", node, k))
	}
	nd.rep.ReadReplica(k, dst)
}

// Handle returns the KV client for a worker thread.
func (s *System) Handle(worker int) kv.KV {
	n := s.cl.NodeOfWorker(worker)
	nd := s.nodes[n]
	h := &handle{sys: s, nd: nd, trk: nd.tracker.Handle()}
	h.Handle = server.NewHandle(s.g.Node(n), worker, h)
	return h
}

// OnOpResp implements server.Policy: refresh the location cache with the
// responder's identity and bring the leased copies up to date, both before
// the runtime completes the pending operation — the worker the completion
// unblocks must find the copies as the response left them. A pull response
// that grants a lease installs the values; a push ack takes the keys' "own
// push in flight" marks off, keeping a leased copy only if the responder
// granted it and says it refreshed it ahead of the ack (see serving.go,
// "Read-your-writes"). The response's keys all belong to this shard.
func (sh *policyShard) OnOpResp(m *msg.OpResp) {
	if sh.nd.cache != nil {
		for _, k := range m.Keys {
			sh.nd.cache[k].Store(m.Responder)
		}
	}
	if sh.nd.leases == nil {
		return
	}
	if m.Type == msg.OpPush {
		refresher := replication.NoRefresher
		if m.LeaseTTL > 0 {
			refresher = m.Responder
		}
		for _, k := range m.Keys {
			sh.nd.rep.PushEnd(k, refresher)
		}
	} else if m.LeaseTTL > 0 {
		src := 0
		for _, k := range m.Keys {
			l := sh.nd.sys.layout.Len(k)
			sh.nd.rep.Lease(k, m.Vals[src:src+l], m.LeaseTTL, m.Responder)
			src += l
		}
	}
}

// HandleMessage implements server.Policy.
func (sh *policyShard) HandleMessage(src int, m any) {
	switch t := m.(type) {
	case *msg.Op:
		sh.handleOp(t, byState)
	case *msg.Localize:
		sh.handleLocalize(t)
	case *msg.RelocInstruct:
		sh.handleInstruct(t)
	case *msg.RelocTransfer:
		sh.handleTransfer(t)
	case *msg.ReplicaSync:
		// Key-addressed like Manage: a key's sync traffic shares its (link,
		// shard) stream with the transitions that install and remove its
		// replicas. A node without copies has nothing to sync or refresh.
		if sh.nd.rep != nil {
			sh.nd.rep.HandleSync(t)
		}
	case *msg.ReplicaRefresh:
		if sh.nd.rep != nil {
			sh.nd.rep.HandleRefresh(t)
		}
	case *msg.Manage:
		// Key-addressed like operations, so transitions stay FIFO with the
		// accesses of the keys they manage on each (link, shard) stream.
		sh.handleManage(t)
	default:
		panic(fmt.Sprintf("core: unexpected message %T at node %d", m, sh.rt.Node()))
	}
}

// The per-key access gate: every access to a key at this node — one key of a
// local worker's operation, one key of a remote msg.Op, a queued entry when
// its queue drains — is served, queued or routed by the functions below and
// nowhere else (see the package comment, "Consistency").

// backing names what holds a key's value at this node.
type backing uint8

const (
	byState     backing = iota // undecided: the key's locality state tells
	backStore                  // the owned store (Owned; Incoming once the transfer is in)
	backReplica                // the node-local replica (Replicated)
	backGone                   // nothing: the key chained onward while its queue drained
)

// access is one single-key operation at the gate: one key of a local worker's
// operation (op set) or of a remote msg.Op (m set).
type access struct {
	t   msg.OpType
	k   kv.Key
	buf []float32 // pull: where the value goes; push: the update term
	op  *server.OpCtx
	m   *msg.Op
}

// outcome is the gate's verdict on one access.
type outcome struct {
	// served names what the access was served from (0: not served here).
	served backing
	// ackTTL is, for a served push, the lease time (µs) left on the copy of
	// the key the writer's node caches, if the owner just refreshed that copy
	// (0 otherwise; see refreshLeases).
	ackTTL uint32
	// queued marks an access appended to the key's relocation queue.
	queued bool
	// dest is where an access neither served nor queued goes.
	dest int
}

// gate passes one access through. held is byState for an access arriving from
// outside: a lock-free step serves it if the key's state says what from
// (serve), then, under the shard's queue lock, the queue check and the
// lock-free step once more (slow), then the destination (route). A drain,
// whose key is still Incoming and whose queue is its own, names what it holds
// instead: the backing its entries are served from, or backGone when the key
// left mid-drain and the remaining entries can only follow it.
func (sh *policyShard) gate(a *access, held backing) (o outcome) {
	if held != backGone {
		if o.served, o.ackTTL = sh.serve(held, a.t, a.k, a.buf, a.m); o.served == 0 && held != byState {
			panic(fmt.Sprintf("core: queued access to key %d at node %d: value missing from its backing", a.k, sh.nd.id))
		}
	}
	if o.served == 0 && held == byState {
		sh.queueMu.Lock()
		o = sh.slow(a)
		sh.queueMu.Unlock()
	}
	if o.served == 0 && !o.queued {
		o.dest = sh.route(a.k, a.m == nil)
	}
	return o
}

// slow is the gate's step under queueMu: the access joins the key's queue if
// one is open; otherwise the lock-free step runs again: the key may have
// arrived — queue drained, state Owned — while the access waited for the
// lock, and routing it away now would let the worker's next access overtake
// it on the fast path. An access left undecided is routed by the caller.
func (sh *policyShard) slow(a *access) outcome {
	q := sh.queues[a.k]
	if q == nil || (a.m != nil && sh.aheadOfRequest(a.k)) {
		by, ackTTL := sh.serve(byState, a.t, a.k, a.buf, a.m)
		return outcome{served: by, ackTTL: ackTTL}
	}
	e := queueEntry{at: time.Now()}
	if a.m == nil {
		// The pending part registers (op.ID) before the entry is published.
		e.a, e.id, e.off = *a, a.op.ID(a.k), a.op.Off()
		e.a.op = nil
	} else {
		// The entry outlives the handler, so it owns its update values:
		// a.buf aliases the decoded message's recyclable scratch.
		e.a.m = &msg.Op{Type: a.t, ID: a.m.ID, Origin: a.m.Origin, Hops: a.m.Hops, Lease: a.m.Lease, Keys: []kv.Key{a.k}}
		if a.t == msg.OpPush {
			e.a.m.Vals = append([]float32(nil), a.buf...)
		}
	}
	q.entries = append(q.entries, e)
	sh.stats.QueuedOps.Inc()
	return outcome{queued: true}
}

// aheadOfRequest reports whether a remote access to k, whose queue is open,
// belongs in front of it: this node is k's home and its owner table still
// names another node, so the Localize that opened the queue — a local
// worker's, on the loopback link — has not reached this shard goroutine yet.
// The access is ahead of it on its FIFO stream and is forwarded to the owner
// ahead of the instruct, as a home without a queue of its own would; queued,
// it would be overtaken by what its worker has enqueued directly since.
func (sh *policyShard) aheadOfRequest(k kv.Key) bool {
	nd := sh.nd
	return nd.sys.home.NodeOf(k) == nd.id && int(nd.ownerEntry(k).Load()) != nd.id
}

// route names the node an access to k that cannot be handled here goes to. A
// local worker's access goes to the cached owner on a location-cache hit and to the
// key's home otherwise — over the loopback link if that is this node, whose
// shard goroutine forwards it. A remote access is forwarded to the registered
// owner if this node is the key's home, and double-forwarded to the home
// otherwise (stale cache, or the key left while the access was queued).
func (sh *policyShard) route(k kv.Key, local bool) int {
	nd := sh.nd
	home := nd.sys.home.NodeOf(k)
	switch {
	case local:
		if nd.cache != nil {
			if c := int(nd.cache[k].Load()); c >= 0 && c != nd.id {
				sh.stats.CacheHits.Inc()
				return c
			}
			sh.stats.CacheMisses.Inc()
		}
		return home
	case home != nd.id:
		sh.stats.DoubleForwards.Inc()
		return home
	}
	dest := int(nd.ownerEntry(k).Load())
	if dest == nd.id {
		panic(fmt.Sprintf("core: key %d is registered at its home node %d but neither here nor arriving", k, nd.id))
	}
	sh.stats.Forwards.Inc()
	return dest
}

// serve applies one access (its fields passed singly: the fast path builds no
// access) to its key's value in b — the only place in this package where an
// operation reads or updates a parameter — and returns the backing that
// served it, 0 if the value is not (or no longer) there. Given
// byState, the gate's lock-free step, it serves a key in Owned state from the
// store and one in Replicated state from the replica, and no other: a key
// whose relocation queue is still draining holds its value already, but
// serving it would jump the queue and break the issuing worker's program
// order, and the state leaves Incoming only when the drain is through. A push
// to the owned store refreshes the copies lease holders cache, the writer's
// own included, ahead of the push's ack on the same FIFO (link, shard)
// stream. A grant racing a local worker's write on a shard goroutine can slip
// past the leased flag; that one holder's staleness is bounded by the TTL
// (serving.go, "Staleness bound").
func (sh *policyShard) serve(b backing, t msg.OpType, k kv.Key, buf []float32, m *msg.Op) (by backing, ackTTL uint32) {
	nd := sh.nd
	if b == byState {
		switch nd.state[k].Load() {
		case stateOwned:
			b = backStore
		case stateReplicated:
			b = backReplica
		default:
			return 0, 0 // NotHere, or Incoming: not yet
		}
	}
	ok, local := false, m == nil
	switch {
	case b == backReplica && t == msg.OpPull:
		ok = nd.rep.Pull(k, buf)
	case b == backReplica:
		ok = nd.rep.Push(k, buf)
	case t == msg.OpPull:
		if ok = nd.store.Read(k, buf); ok && local {
			sh.stats.LocalReads.Inc()
			sh.stats.ReadValues.Add(int64(len(buf)))
		}
	default:
		if ok = nd.store.Add(k, buf); !ok {
			break
		}
		if nd.isLeased(k) {
			writer := nd.id
			if !local {
				writer = int(m.Origin)
			}
			ackTTL = nd.refreshLeases(k, writer)
		}
		if local {
			sh.stats.LocalWrites.Inc()
		}
	}
	if !ok {
		return 0, 0
	}
	return b, ackTTL
}

// handleOp passes every key of a pull/push that arrived over the network
// (held byState), or that waited in a relocation queue (held names what the
// drain holds), through the gate. Keys are handled individually because their
// states can diverge; served keys are grouped into a single response, and
// keys that must travel onward are batched into one forward message per
// destination node (staying within this shard's key slice, so forwards remain
// shard-pure).
//
// The answer accumulators and the response struct are per-shard scratch:
// handleOp runs only on the shard's server goroutine, and SendOrDispatch
// consumes the response synchronously (encode on send, inline dispatch for
// self), so the scratch is free again when handleOp returns.
func (sh *policyShard) handleOp(m *msg.Op, held backing) {
	nd := sh.nd
	if m.Hops > maxHops {
		panic(fmt.Sprintf("core: op %d exceeded %d hops (routing loop?)", m.ID, maxHops))
	}
	ansKeys := sh.ansKeys[:0]
	ansVals := sh.ansVals[:0]
	// A lease is granted only when every answered key was served from the
	// owned store: replica-served keys are refreshed by the sync cycle, not
	// the lease protocol, so a mixed answer grants nothing (rare; the origin
	// simply retries the lease on its next miss). A drain answers lease-less
	// too — the origin takes its lease on the next miss, from a key that has
	// settled.
	leaseOK := held == byState && m.Lease && m.Type == msg.OpPull && nd.leases != nil && int(m.Origin) != nd.id
	// A push ack vouches for the origin's cached copies (OpResp.LeaseTTL)
	// only if every acknowledged key's copy was refreshed ahead of it: the
	// least lease time left over the keys, 0 as soon as one was not.
	ackTTL := ^uint32(0)
	var fwd map[int]*msg.Op
	src := 0
	for _, k := range m.Keys {
		l := nd.sys.layout.Len(k)
		a := access{t: m.Type, k: k, m: m}
		n := len(ansVals)
		var upd []float32
		if m.Type == msg.OpPush {
			upd = m.Vals[src : src+l]
			a.buf = upd
			src += l
		} else {
			ansVals = kv.Grow(ansVals, l)
			a.buf = ansVals[n:]
		}
		o := sh.gate(&a, held)
		if o.served == 0 {
			ansVals = ansVals[:n]
			if !o.queued {
				fwd = addForward(fwd, m, o.dest, k, upd)
			}
			continue
		}
		ansKeys = append(ansKeys, k)
		leaseOK = leaseOK && o.served == backStore
		ackTTL = min(ackTTL, o.ackTTL)
	}
	sh.ansKeys, sh.ansVals = ansKeys, ansVals // keep grown capacity
	if len(ansKeys) > 0 {
		resp := &sh.resp
		*resp = msg.OpResp{Type: m.Type, ID: m.ID, Responder: int32(nd.id), Keys: ansKeys, Vals: ansVals}
		switch {
		case m.Type == msg.OpPush:
			resp.Vals, resp.LeaseTTL = nil, ackTTL
		case leaseOK:
			resp.LeaseTTL = nd.grantLeases(ansKeys, int(m.Origin))
		}
		sh.rt.SendOrDispatch(int(m.Origin), resp)
	}
	for dest, sub := range fwd {
		sh.rt.SendOrDispatch(dest, sub)
	}
}

// addForward appends key k (with its push update term, if any) to the forward
// group headed to dest. The lease bit travels with the forward, so a
// mid-relocation (or stale-cache-routed) pull still comes back with a lease
// from wherever the key landed.
func addForward(fwd map[int]*msg.Op, m *msg.Op, dest int, k kv.Key, upd []float32) map[int]*msg.Op {
	if fwd == nil {
		fwd = make(map[int]*msg.Op)
	}
	sub := fwd[dest]
	if sub == nil {
		sub = &msg.Op{Type: m.Type, ID: m.ID, Origin: m.Origin, Hops: m.Hops + 1, Lease: m.Lease}
		fwd[dest] = sub
	}
	sub.Keys = append(sub.Keys, k)
	sub.Vals = append(sub.Vals, upd...)
	return fwd
}

// openQueue marks k Incoming and opens its relocation queue: from here on
// every access to k at this node waits in the queue. The caller holds queueMu
// and keeps it until the request whose answer fills the queue — a Localize, a
// recall instruct — is sent.
func (sh *policyShard) openQueue(k kv.Key) {
	sh.nd.state[k].Store(stateIncoming)
	sh.queues[k] = &keyQueue{}
}

// wake completes the localizes waiting on k's queue: the key is known to be
// here. It runs where a transfer comes in and where the queue closes — a
// localize that finds the key Incoming in between joins the queue after the
// first and is woken by the second — and for an instruct this node addressed
// to itself. The caller holds queueMu, as LocalizeAsync does when it appends,
// so no waiter is missed.
func (sh *policyShard) wake(k kv.Key) {
	if q := sh.queues[k]; q != nil {
		for _, a := range q.waiters {
			a.Finish(1)
		}
		q.waiters = nil
	}
}

// handleLocalize runs at the home node (message 1 of the relocation
// protocol): update the owner table immediately, then instruct each previous
// owner to hand the keys over to the requester. Keys are grouped per previous
// owner (message grouping, Section 3.7). A key that is replicated, or being
// promoted, is skipped: the origin sent the Localize before the promotion's
// ManageReplicate broadcast reached it, so the broadcast finds the origin's
// queue open, installs the replica into it and wakes its localizes
// (enterReplica).
// A key being demoted is handled like any other: its queue is open at the
// home, and the instruct waits there until the demotion ends.
func (sh *policyShard) handleLocalize(m *msg.Localize) {
	nd := sh.nd
	groups := make(map[int][]kv.Key)
	for _, k := range m.Keys {
		if nd.sys.home.NodeOf(k) != sh.rt.Node() {
			panic(fmt.Sprintf("core: localize for key %d reached non-home node %d", k, sh.rt.Node()))
		}
		if tr := sh.transitioning[k]; nd.state[k].Load() == stateReplicated || tr != nil && tr.kind == transPromote {
			continue
		}
		prev := int(nd.ownerEntry(k).Swap(m.Origin))
		groups[prev] = append(groups[prev], k)
		sh.trace.Record(sh.rt.Node(), sh.rt.Shard(), metrics.TraceRelocStart, k, prev, int(m.Origin), "")
	}
	for prev, keys := range groups {
		instr := &msg.RelocInstruct{ID: m.ID, Dest: m.Origin, Keys: keys}
		sh.rt.SendOrDispatch(prev, instr)
	}
}

// handleInstruct runs at the (old) owner (message 2): stop processing, remove
// the keys from the local store, and transfer them to the new owner. Keys
// still in flight toward this node are chained: the instruct is queued and
// re-executed when the transfer arrives.
func (sh *policyShard) handleInstruct(m *msg.RelocInstruct) {
	if int(m.Dest) == sh.rt.Node() {
		// Localize raced with a relocation that already made this node
		// the owner; nothing to move. Confirm arrival to the waiting
		// localizes directly.
		sh.queueMu.Lock()
		for _, k := range m.Keys {
			sh.wake(k)
		}
		sh.queueMu.Unlock()
		return
	}
	var moveKeys []kv.Key
	var moveVals []float32
	for _, k := range m.Keys {
		sh.queueMu.Lock()
		if q, ok := sh.queues[k]; ok {
			sub := &msg.RelocInstruct{ID: m.ID, Dest: m.Dest, Keys: []kv.Key{k}}
			q.entries = append(q.entries, queueEntry{instr: sub, at: time.Now()})
			sh.queueMu.Unlock()
			continue
		}
		sh.queueMu.Unlock()
		sh.nd.state[k].Store(stateNotHere)
		moveKeys = append(moveKeys, k)
		moveVals = append(moveVals, sh.takeOut(k)...)
	}
	if len(moveKeys) > 0 {
		tr := &msg.RelocTransfer{ID: m.ID, Keys: moveKeys, Vals: moveVals}
		sh.rt.SendOrDispatch(int(m.Dest), tr)
	}
}

// takeOut removes k's value from the local store — the only way a value
// leaves it: for a transfer to the key's next owner, or for the replication
// manager when the key is promoted. The caller has closed the fast path first
// (state NotHere, or still Incoming in a drain), so worker accesses that lose
// the race fall through to the gate's slow step.
func (sh *policyShard) takeOut(k kv.Key) []float32 {
	v := sh.nd.store.Take(k)
	if v == nil {
		panic(fmt.Sprintf("core: key %d leaves node %d, which neither owns it nor holds it in a drain", k, sh.rt.Node()))
	}
	if sh.nd.isLeased(k) {
		// Whoever serves the key next knows nothing of the leases this node
		// granted. The drops are key-addressed and leave here, ahead of the
		// transfer or the ManageReplicate the caller sends next on the same
		// (link, shard) streams.
		sh.nd.dropLeases(k)
	}
	return v
}

// handleTransfer runs at the new owner (message 3): insert the values, drain
// the per-key queues in arrival order, and only then open the shared-memory
// fast path. A queued instruct chains the key to its next owner.
func (sh *policyShard) handleTransfer(m *msg.RelocTransfer) {
	src := 0
	for _, k := range m.Keys {
		l := sh.nd.sys.layout.Len(k)
		sh.nd.store.Set(k, m.Vals[src:src+l])
		src += l
		sh.stats.Relocations.Inc()
		sh.trace.Record(sh.rt.Node(), sh.rt.Shard(), metrics.TraceRelocFinish, k, -1, sh.rt.Node(), "")
		sh.queueMu.Lock()
		sh.wake(k)
		sh.queueMu.Unlock()
		if tr, busy := sh.transitioning[k]; busy && tr.kind == transPromote {
			// This arrival is the home recalling the key to promote it into
			// replication: the value goes on to the replication manager
			// instead of opening the Owned fast path.
			sh.finishReplicate(k)
			continue
		}
		sh.drain(k, backStore, stateOwned, nil)
	}
}

// drain serves the queued entries of k in arrival order from b, which holds
// the key's value although its state is still Incoming, and then closes the
// queue: under queueMu — so no access can slip between the last queued entry
// and the first one that takes the fast path — onEmpty runs (a promotion
// moves the value on there; nil otherwise), the localizes that joined the
// queue since the transfer came in are woken, the queue goes, and the key
// enters state next. A queued instruct sends the value on to its next owner
// mid-drain (localization conflict: the key did arrive, it just moves on at
// once); the entries behind it, and those that keep joining the still-open
// queue, follow it through the gate in the same order, and the key is left
// NotHere.
func (sh *policyShard) drain(k kv.Key, b backing, next uint32, onEmpty func()) {
	nd := sh.nd
	for {
		sh.queueMu.Lock()
		q := sh.queues[k]
		if q == nil || len(q.entries) == 0 {
			if b == backGone {
				next = stateNotHere
			} else if onEmpty != nil {
				onEmpty()
			}
			sh.wake(k)
			delete(sh.queues, k)
			nd.state[k].Store(next)
			if next == stateOwned && nd.cache != nil {
				nd.cache[k].Store(int32(nd.id))
			}
			sh.queueMu.Unlock()
			return
		}
		e := q.entries[0]
		q.entries = q.entries[1:]
		sh.queueMu.Unlock()
		sh.stats.QueueWait.Observe(time.Since(e.at))

		switch {
		case e.instr != nil:
			tr := &msg.RelocTransfer{ID: e.instr.ID, Keys: []kv.Key{k}, Vals: sh.takeOut(k)}
			sh.rt.SendOrDispatch(int(e.instr.Dest), tr)
			b = backGone
		case e.a.m != nil:
			sh.handleOp(e.a.m, b)
		default:
			sh.finishLocal(&e, b)
		}
	}
}

// finishLocal passes a queued worker operation through the gate when its
// queue drains. Served, it completes through the pending table; the
// occurrence's offset entry is claimed first, so a duplicate occurrence's
// response cannot be misdirected onto the region filled here. If the key
// left, the operation goes where its worker would send it now, as a remote
// operation of this node (a push keeps its in-flight mark until the ack).
func (sh *policyShard) finishLocal(e *queueEntry, b backing) {
	nd := sh.nd
	a := &e.a
	o := sh.gate(a, b)
	if o.served == 0 {
		sh.countRemote(a.t, a.k)
		m := &msg.Op{Type: a.t, ID: e.id, Origin: int32(nd.id), Keys: []kv.Key{a.k}}
		if a.t == msg.OpPush {
			m.Vals = a.buf
		}
		sh.rt.Send(o.dest, m)
		return
	}
	if nd.leases != nil && a.t == msg.OpPush {
		// The key is local now, so nothing vouches for a leased copy left
		// over from its time elsewhere.
		nd.rep.PushEnd(a.k, replication.NoRefresher)
	}
	sh.rt.Pending().ClaimOffset(e.id, a.k, e.off)
	sh.rt.Pending().FinishKeys(e.id, 1)
}

// countRemote accounts one key of a worker operation that leaves this node.
func (sh *policyShard) countRemote(t msg.OpType, k kv.Key) {
	if t == msg.OpPull {
		sh.stats.RemoteReads.Inc()
		sh.stats.ReadValues.Add(int64(sh.nd.sys.layout.Len(k)))
	} else {
		sh.stats.RemoteWrites.Inc()
	}
}

var _ server.Policy = (*policyShard)(nil)
