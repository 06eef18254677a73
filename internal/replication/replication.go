// Package replication manages designated hot keys by eventually-consistent
// replication, the second parameter-management technique next to the
// relocation protocol of internal/core. The paper (Sections 2 and 7)
// observes that skewed workloads have keys every node reads constantly —
// word2vec negative samples, frequent KGE entities — for which relocation
// thrashes: the key bounces between nodes and every bounce costs three
// messages plus queued accesses. For such keys, replication is the right
// technique; combining both per key is the paper's stated future-work
// direction.
//
// Every node holds a full local replica of each replicated key, so reads
// and cumulative writes are shared-memory operations (the server.Router
// Served path — no network on any access). Updates propagate through a sync
// cycle with two wire messages:
//
//	replica --ReplicaSync(deltas)--> home --ReplicaRefresh(merged)--> replicas
//
// One key, one stream: the manager is striped by server shard, and each
// stripe holds all replication state of its shard's keys under one mutex —
// pending and in-flight deltas, a sync-round counter and, for keys homed
// here, the authoritative values, the dirty set and the rounds applied per
// origin. Every sync interval each stripe sends one ReplicaSync per home it
// holds deltas for and, as a home, one ReplicaRefresh per other node if its
// keys changed: O(nodes × dirty shards) messages, however many keys are
// dirty. Both kinds are key-addressed (msg.ShardOf), so they share each key's
// (link, shard) FIFO stream with its operations and the Manage messages that
// install and remove its replicas, and are handled on the key's shard
// goroutine.
//
// The manager owns no goroutine: a round runs when Flush is called, which the
// node's owner (internal/core's per-node background loop) does every
// DefaultSyncEvery.
//
// Lock rule: a caller holding its shard's queueMu may take a stripe lock,
// never the reverse, and messages are sent under either — transport sends
// never block — so a message's place on its stream is fixed by the state
// change that produced it.
//
// Consistency: replicated keys are eventually consistent. Reads always see
// the node's own preceding writes (read-your-writes): a replica's local
// value is "merged value + own unmerged deltas" at all times. This is
// maintained across refreshes by the in-flight buffer: deltas that have been
// sent to the home but are not yet reflected in a refresh stay in the
// replica's view until a refresh acknowledges them (ReplicaSync.Seq /
// ReplicaRefresh.Ack). The pending→in-flight hand-off happens atomically
// under the key's stripe lock, so a concurrent refresh install can never
// observe a delta in neither buffer. Once pushes stop, every replica
// converges to the sum of all pushes within two sync intervals plus message
// latency; the checker in internal/consistency verifies this.
package replication

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/msg"
	"lapse/internal/partition"
	"lapse/internal/store"
)

// DefaultSyncEvery is the sync interval: how often a node runs Flush.
const DefaultSyncEvery = time.Millisecond

// Config parameterizes one node's replication manager. Every node of a
// cluster must be configured with the same Home partitioner and Layout (like
// the relocation home partitioner, they are shared static state).
type Config struct {
	// Node is the node this manager serves; Nodes the cluster size.
	Node  int
	Nodes int
	// Layout is the parameter layout (value lengths).
	Layout kv.Layout
	// Home assigns each replicated key's home node, which holds the
	// authoritative merged value: the relocation protocol's partitioning.
	Home partition.Range
	// Stats holds the server runtime's statistics, one entry per shard; the
	// manager has one stripe per entry, and each stripe counts its replica
	// hits, local writes, sync messages and round times on its own.
	Stats []*metrics.ServerStats
	// Send transmits a wire message to another node (the server runtime's
	// Send). It must be safe to call from any goroutine, must not block, and
	// must encode m before it returns: the manager reuses messages.
	Send func(dest int, m any)
}

// inflightDelta is one sync round's worth of sent-but-unacknowledged deltas
// for a single key.
type inflightDelta struct {
	seq   uint32
	delta []float32
}

// stripe is one shard's replication state. Push (worker threads), the sync
// round (Flush's caller), and the handlers of the shard's wire messages
// (its server goroutine) all synchronize on mu.
type stripe struct {
	mu       sync.Mutex
	stats    *metrics.ServerStats
	pending  map[kv.Key][]float32       // local deltas not yet sent
	inflight map[kv.Key][]inflightDelta // sent, not yet acked by a refresh
	seq      uint32                     // sync rounds this stripe ran with deltas
	// Home role, for the shard's keys homed at this node.
	auth    map[kv.Key][]float32 // merged values
	dirty   map[kv.Key]bool      // changed since the last refresh
	applied []uint32             // per origin: highest sync round applied
}

// Manager is one node's replication state: the local replica store and one
// stripe per server shard. Pull/Push run on worker threads, the sync rounds
// on Flush's caller, and the message handlers on the shard goroutine
// of their keys. Per-key replica writes happen only under the key's stripe
// lock, so refresh installs and pushes cannot interleave (reads stay
// lock-free on the store's latches).
type Manager struct {
	cfg Config
	// replica holds the node-local view of every key replicated at this
	// node, and a key is replicated here exactly while it has an entry: the
	// adaptive controller adds and removes entries at runtime, under the
	// key's stripe lock, so presence observed under that lock is stable.
	replica *store.Sparse
	stripes []stripe
}

// NewManager builds the manager for one node, replicating no key yet: keys
// enter with EnterHomeKey at their home and EnterKey everywhere else, at
// construction for a static hot set as on a live promotion.
func NewManager(cfg Config) *Manager {
	m := &Manager{
		cfg:     cfg,
		replica: store.NewSparse(cfg.Layout, 0),
		stripes: make([]stripe, len(cfg.Stats)),
	}
	for i, stats := range cfg.Stats {
		m.stripes[i] = stripe{
			stats:    stats,
			pending:  make(map[kv.Key][]float32),
			inflight: make(map[kv.Key][]inflightDelta),
			auth:     make(map[kv.Key][]float32),
			dirty:    make(map[kv.Key]bool),
			applied:  make([]uint32, cfg.Nodes),
		}
	}
	return m
}

// stripeOf returns the stripe owning key k.
func (m *Manager) stripeOf(k kv.Key) *stripe {
	return &m.stripes[msg.ShardOfKey(k, len(m.stripes))]
}

// Replicated reports whether k is currently managed by replication at this
// node. Under live transitions the answer can be stale by the time the caller
// acts on it, which is why Pull and Push report failure themselves instead of
// relying on a prior Replicated check.
func (m *Manager) Replicated(k kv.Key) bool { return m.replica.Has(k) }

// InitKey sets the starting value of a replicated key: the local replica
// and, if this node is k's home, the authoritative value. Like System.Init,
// it must not run concurrently with workers or the sync cycle.
func (m *Manager) InitKey(k kv.Key, val []float32) {
	if !m.Replicated(k) {
		panic(fmt.Sprintf("replication: InitKey(%d): key is not replicated", k))
	}
	st := m.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	m.replica.Set(k, val)
	if a, ok := st.auth[k]; ok {
		copy(a, val)
	}
}

// Pull reads the local replica of k into dst. It reports false — without
// touching dst's final contents' validity — when k is not (or no longer)
// replicated here: the caller falls back to its non-replicated path. A true
// return is an ordinary local replica read, never a network access.
func (m *Manager) Pull(k kv.Key, dst []float32) bool {
	if !m.replica.Read(k, dst) {
		return false
	}
	stats := m.stripeOf(k).stats
	stats.ReplicaHits.Inc()
	stats.ReadValues.Add(int64(len(dst)))
	return true
}

// Push applies a cumulative update to the local replica and accumulates it
// in the key's stripe's pending buffer for the next sync round. It reports
// false when k is not (or no longer) replicated here; the delta was not
// applied anywhere and the caller must route it through its non-replicated
// path, so the update is counted exactly once however the push races with a
// demotion.
func (m *Manager) Push(k kv.Key, delta []float32) bool {
	st := m.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	if !m.replica.Add(k, delta) {
		return false
	}
	p, ok := st.pending[k]
	if !ok {
		p = make([]float32, m.cfg.Layout.Len(k))
		st.pending[k] = p
	}
	for i, d := range delta {
		p[i] += d
	}
	st.stats.LocalWrites.Inc()
	return true
}

// EnterKey starts replicating k at this (non-home) node with the home's
// current value v. Idempotent, for a key listed twice in a static hot set: a
// key already replicated keeps its local view.
func (m *Manager) EnterKey(k kv.Key, v []float32) {
	st := m.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	if !m.replica.Has(k) {
		m.replica.Set(k, v)
	}
}

// EnterHomeKey starts replicating k at its home node, seeding both the
// authoritative merged value and the local replica with v (the value taken
// out of the relocation store). The caller has already sent every other node
// its ManageReplicate — or, for a static hot set, every node enters its keys
// before the system starts — so each refresh of k follows the install it
// refreshes.
func (m *Manager) EnterHomeKey(k kv.Key, v []float32) {
	st := m.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	if m.replica.Has(k) {
		panic(fmt.Sprintf("replication: EnterHomeKey(%d): already replicated at node %d", k, m.cfg.Node))
	}
	st.auth[k] = slices.Clone(v)
	m.replica.Set(k, v)
}

// DemoteLocal stops replicating k at this (non-home) node and returns the
// deltas no sync message has carried yet (nil: none), for the demote
// acknowledgement. The in-flight deltas are dropped instead: every sync that
// carried them was sent under this stripe lock, so it is on the key's stream
// to the home ahead of the acknowledgement the caller sends next, and the
// home folds it first. After DemoteLocal, worker pushes fail over to the
// network path, so no delta can land in a buffer that was already gathered.
func (m *Manager) DemoteLocal(k kv.Key) []float32 {
	st := m.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	m.replica.Take(k)
	p := st.pending[k]
	delete(st.pending, k)
	delete(st.inflight, k)
	return p
}

// ApplyDemoteAck folds one replica's never-synced deltas for a demoted key
// (vals, empty for none) into the authoritative value at the home — their
// only copy, arriving behind every sync that carried the replica's other
// deltas for k, so each delta counts exactly once. It reports false, and
// changes nothing, for an acknowledgement no replica sends: a key this node
// is not replicating as its home, or deltas that do not fit it.
func (m *Manager) ApplyDemoteAck(k kv.Key, vals []float32) bool {
	st := m.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.auth[k]; !ok || (len(vals) > 0 && len(vals) != m.cfg.Layout.Len(k)) {
		return false
	}
	if len(vals) > 0 {
		st.mergeLocked(k, vals)
	}
	return true
}

// FinalizeDemote ends k's replication at its home node after every replica
// acknowledged: the home's own unsynced pending deltas are folded in, the
// authoritative value is returned (ownership transfers to the caller, who
// re-installs it in the relocation store), and all replication state for k
// is dropped.
func (m *Manager) FinalizeDemote(k kv.Key) []float32 {
	st := m.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	v, ok := st.auth[k]
	if m.replica.Take(k) == nil || !ok {
		panic(fmt.Sprintf("replication: FinalizeDemote(%d): not replicated with its home at node %d", k, m.cfg.Node))
	}
	for i, d := range st.pending[k] {
		v[i] += d
	}
	delete(st.pending, k)
	delete(st.auth, k)
	delete(st.dirty, k)
	return v
}

// Flush runs one sync round on every stripe. Safe to call concurrently with
// everything else.
func (m *Manager) Flush() {
	for i := range m.stripes {
		m.round(&m.stripes[i])
	}
}

// round runs one stripe's sync round and sends its messages, all under the
// stripe lock (see the package comment). Pending deltas of keys homed here
// fold into the authoritative value directly; the rest move into the
// in-flight buffer and leave as one ReplicaSync per home node. Then, as a
// home, the stripe installs the merged values of its changed keys locally
// and sends every other node one ReplicaRefresh with them.
func (m *Manager) round(st *stripe) {
	start := time.Now()
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.pending) > 0 {
		st.seq++
	}
	var syncs map[int]*msg.ReplicaSync
	for k, delta := range st.pending {
		home := m.cfg.Home.NodeOf(k)
		if home == m.cfg.Node {
			st.mergeLocked(k, delta)
			continue
		}
		st.inflight[k] = append(st.inflight[k], inflightDelta{seq: st.seq, delta: delta})
		if syncs == nil {
			syncs = make(map[int]*msg.ReplicaSync)
		}
		s := syncs[home]
		if s == nil {
			s = &msg.ReplicaSync{Origin: int32(m.cfg.Node), Seq: st.seq}
			syncs[home] = s
		}
		s.Keys = append(s.Keys, k)
		s.Vals = append(s.Vals, delta...)
	}
	clear(st.pending)
	for home, s := range syncs {
		m.send(st, home, s)
	}
	if len(st.dirty) > 0 {
		// Installing locally needs no in-flight correction: this node's own
		// deltas for its homed keys merge at sync time, never in flight.
		r := &msg.ReplicaRefresh{Origin: int32(m.cfg.Node)}
		for k := range st.dirty {
			r.Keys = append(r.Keys, k)
			r.Vals = append(r.Vals, st.auth[k]...)
			m.installLocked(st, k, st.auth[k])
		}
		clear(st.dirty)
		for dest := range m.cfg.Nodes {
			if dest != m.cfg.Node {
				r.Ack = st.applied[dest]
				m.send(st, dest, r)
			}
		}
	}
	st.stats.ReplicaSyncTime.Observe(time.Since(start))
}

// send transmits one of st's sync-cycle messages and counts it on st's shard.
func (m *Manager) send(st *stripe, dest int, out any) {
	m.cfg.Send(dest, out)
	st.stats.ReplicaSyncMessages.Inc()
}

// mergeLocked folds one delta into the authoritative value of a key homed at
// this node, which the caller has checked holds one, and marks it for the
// next refresh. The stripe lock must be held.
func (st *stripe) mergeLocked(k kv.Key, delta []float32) {
	a := st.auth[k]
	for i, d := range delta {
		a[i] += d
	}
	st.dirty[k] = true
}

// stripeFor returns the one stripe a replication message's keys belong to,
// or nil for a message no peer sends: no keys, a key outside the layout,
// values that do not fit the keys, or keys of more than one shard. Such a
// message is dropped whole, before it touches any state.
func (m *Manager) stripeFor(keys []kv.Key, vals int) *stripe {
	if len(keys) == 0 || !kv.Fits(m.cfg.Layout, keys, vals) {
		return nil
	}
	st := m.stripeOf(keys[0])
	for _, k := range keys {
		if m.stripeOf(k) != st {
			return nil
		}
	}
	return st
}

// HandleSync runs at the home node on the shard goroutine of the message's
// keys: fold the deltas into the authoritative values, record the origin's
// sync round for acknowledgment, and mark the keys for the next refresh. A
// sync naming an unknown origin or a key this node does not home as a
// replicated key is dropped whole, like a malformed one (see stripeFor).
func (m *Manager) HandleSync(t *msg.ReplicaSync) {
	st := m.stripeFor(t.Keys, len(t.Vals))
	if st == nil || t.Origin < 0 || int(t.Origin) >= m.cfg.Nodes {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, k := range t.Keys {
		if _, ok := st.auth[k]; !ok {
			return
		}
	}
	src := 0
	for _, k := range t.Keys {
		l := m.cfg.Layout.Len(k)
		st.mergeLocked(k, t.Vals[src:src+l])
		src += l
	}
	if seqAfter(t.Seq, st.applied[t.Origin]) {
		st.applied[t.Origin] = t.Seq
	}
}

// seqAfter reports whether sync round a is later than b in serial-number
// arithmetic, so comparisons stay correct across uint32 wraparound (at a
// 1 ms interval the counter wraps after ~50 days).
func seqAfter(a, b uint32) bool { return int32(a-b) > 0 }

// HandleRefresh runs at a replica node on the shard goroutine of the
// message's keys: retire the in-flight deltas the home has acknowledged
// (seq <= Ack: the refreshed value reflects them), then install each merged
// value plus this node's still-unmerged deltas into the local replica. A
// malformed refresh is dropped whole (see stripeFor).
func (m *Manager) HandleRefresh(t *msg.ReplicaRefresh) {
	st := m.stripeFor(t.Keys, len(t.Vals))
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	acked := func(e inflightDelta) bool { return !seqAfter(e.seq, t.Ack) }
	src := 0
	for _, k := range t.Keys {
		l := m.cfg.Layout.Len(k)
		if fl, ok := st.inflight[k]; ok {
			st.inflight[k] = slices.DeleteFunc(fl, acked)
		}
		m.installLocked(st, k, t.Vals[src:src+l])
		src += l
	}
}

// installLocked sets the local replica of k to merged plus every local delta
// not yet reflected in merged (in-flight and pending), preserving
// read-your-writes across the install. The key's stripe lock must be held.
// Keys no longer replicated here are dropped: the home keeps refreshing a
// key it is demoting until the last acknowledgement, behind the
// ManageUnreplicate that removed the entry, and installing would resurrect
// it.
func (m *Manager) installLocked(st *stripe, k kv.Key, merged []float32) {
	if !m.replica.Has(k) {
		return
	}
	v := slices.Clone(merged)
	for _, e := range st.inflight[k] {
		for i, d := range e.delta {
			v[i] += d
		}
	}
	for i, d := range st.pending[k] {
		v[i] += d
	}
	m.replica.Set(k, v)
}

// ReadAuthoritative reads the merged value of a key homed at this node: the
// value a promotion seeds new replicas with, and in quiescent states after
// the sync cycle converged the key's value (deltas still pending or in
// flight elsewhere are not included).
func (m *Manager) ReadAuthoritative(k kv.Key, dst []float32) {
	st := m.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	a, ok := st.auth[k]
	if !ok {
		panic(fmt.Sprintf("replication: node %d is not home of key %d", m.cfg.Node, k))
	}
	copy(dst, a)
}

// ReadReplica reads this node's current replica view of k without touching
// the access counters (for tests and convergence checks).
func (m *Manager) ReadReplica(k kv.Key, dst []float32) {
	if !m.replica.Read(k, dst) {
		panic(fmt.Sprintf("replication: replica of key %d missing at node %d", k, m.cfg.Node))
	}
}
