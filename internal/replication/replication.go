// Package replication keeps a node's copies of remote keys: the replicas of
// designated hot keys, the second parameter-management technique next to the
// relocation protocol of internal/core, and the leased copies of the serving
// tier (internal/core's serving.go). The paper (Sections 2 and 7) observes
// that skewed workloads have keys every node reads constantly — word2vec
// negative samples, frequent KGE entities — for which relocation thrashes:
// the key bounces between nodes and every bounce costs three messages plus
// queued accesses. For such keys, replication is the right technique;
// combining both per key is the paper's stated future-work direction.
//
// One table holds every copy. An entry is a key's value, the node it came
// from — the home of a replica, the owner that granted a lease — and an
// expiry: none for a replica, which takes this node's writes and buffers
// them for the sync cycle; the lease's end for a leased copy, which takes no
// writes. Either is brought up to date by a ReplicaRefresh from the node it
// came from, applied by one handler (HandleRefresh).
//
// Every node holds a full local replica of each replicated key, so reads
// and cumulative writes are shared-memory operations (the server.Router
// Served path — no network on any access). Updates propagate through a sync
// cycle with two wire messages:
//
//	replica --ReplicaSync(deltas)--> home --ReplicaRefresh(merged)--> replicas
//
// One key, one stream: the manager is striped by server shard. Each stripe
// holds its shard's sync state under one mutex — a sync-round counter, the
// replicas with unsent deltas and, for keys homed here, the authoritative
// values, the dirty set and the rounds applied per origin — and its shard's
// copies under key-striped locks, so a copy read takes one of those and
// nothing else. Every sync interval each stripe sends one ReplicaSync per
// home it holds deltas for and, as a home, one ReplicaRefresh per other node
// if its keys changed: O(nodes × dirty shards) messages, however many keys
// are dirty. Both kinds are key-addressed (msg.ShardOf), so they share each
// key's (link, shard) FIFO stream with its operations and the Manage
// messages that install and remove its replicas, and are handled on the
// key's shard goroutine.
//
// The manager owns no goroutine: a round runs when Flush is called, which the
// node's owner (internal/core's per-node background loop) does every
// DefaultSyncEvery.
//
// Lock rule: a caller holding its shard's queueMu may take a stripe lock, and
// a stripe lock's holder a copy lock, never the reverse. Messages are sent
// under the stripe lock — transport sends never block — so a message's place
// on its stream is fixed by the state change that produced it.
//
// Consistency: replicated keys are eventually consistent. Reads always see
// the node's own preceding writes (read-your-writes): a replica's local
// value is "merged value + own unmerged deltas" at all times. This is
// maintained across refreshes by the in-flight buffer: deltas that have been
// sent to the home but are not yet reflected in a refresh stay in the
// replica's view until a refresh acknowledges them (ReplicaSync.Seq /
// ReplicaRefresh.Ack). The pending→in-flight hand-off happens atomically
// under the key's copy lock, so a concurrent refresh install can never
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
	// hits, local writes, sync messages, round times and lease refreshes and
	// invalidations on its own.
	Stats []*metrics.ServerStats
	// Send transmits a wire message to another node (the server runtime's
	// Send). It must be safe to call from any goroutine, must not block, and
	// must encode m before it returns: the manager reuses messages.
	Send func(dest int, m any)
}

// NoRefresher is PushEnd's refresher when the push completed without anyone
// refreshing this node's copy. No lease is granted by it.
const NoRefresher int32 = -1

// inflightDelta is one sync round's worth of sent-but-unacknowledged deltas
// for a single key.
type inflightDelta struct {
	seq   uint32
	delta []float32
}

// entry is one node-local copy of a remote key's value.
type entry struct {
	vals []float32
	// from is the node the copy came from, the only one whose refreshes
	// apply: the home of a replica, the owner that granted a lease.
	from int32
	// expiry is a lease's UnixNano deadline; 0 marks a replica, which never
	// expires.
	expiry int64
	// A replica's local deltas: not yet sent, and sent but not yet acked by
	// a refresh. A lease has none.
	pending  []float32
	inflight []inflightDelta
}

// copyLockBits sets the number of key-striped copy locks per stripe, which
// spread the workers reading one shard's copies over locks.
const copyLockBits = 6

// copies is one copy lock's share of the table.
type copies struct {
	mu      sync.Mutex
	entries map[kv.Key]*entry
	// pushing counts this node's own pushes in flight per key. It is kept
	// apart from the entries because it must outlive them: a grant that
	// installs a lease while a push is unacknowledged must not be readable
	// either. Empty except while pushes are in flight, so a lease read pays
	// a length check.
	pushing map[kv.Key]int32
}

// stripe is one shard's share of the manager. Push (worker threads), the
// sync round (Flush's caller), the handlers of the shard's sync messages (its
// server goroutine) and replicas entering and leaving synchronize on mu; a
// copy is read and refreshed under its copy lock alone.
type stripe struct {
	mu     sync.Mutex
	stats  *metrics.ServerStats
	seq    uint32   // sync rounds this stripe ran with deltas
	unsent []kv.Key // replicas given pending deltas since the last round
	// Home role, for the shard's keys homed at this node.
	auth    map[kv.Key][]float32 // merged values
	dirty   map[kv.Key]bool      // changed since the last refresh
	applied []uint32             // per origin: highest sync round applied
	copies  [1 << copyLockBits]copies
}

// Manager is one node's table of copies and its replication state, one
// stripe per server shard. Pull, Push and the lease calls run on worker
// threads and shard goroutines, the sync rounds on Flush's caller, and the
// message handlers on the shard goroutine of their keys. A key is replicated
// here exactly while it has a replica entry: the adaptive controller adds and
// removes them at runtime under the key's stripe lock, so presence observed
// under that lock is stable.
type Manager struct {
	cfg     Config
	stripes []stripe
}

// NewManager builds the manager for one node, holding no copy yet: keys
// enter replication with EnterHomeKey at their home and EnterKey everywhere
// else, at construction for a static hot set as on a live promotion, and a
// granted lease enters with Lease.
func NewManager(cfg Config) *Manager {
	m := &Manager{cfg: cfg, stripes: make([]stripe, len(cfg.Stats))}
	for i, stats := range cfg.Stats {
		st := &m.stripes[i]
		st.stats = stats
		st.auth = make(map[kv.Key][]float32)
		st.dirty = make(map[kv.Key]bool)
		st.applied = make([]uint32, cfg.Nodes)
		for j := range st.copies {
			st.copies[j] = copies{entries: make(map[kv.Key]*entry), pushing: make(map[kv.Key]int32)}
		}
	}
	return m
}

// stripeOf returns the stripe owning key k.
func (m *Manager) stripeOf(k kv.Key) *stripe {
	return &m.stripes[msg.ShardOfKey(k, len(m.stripes))]
}

// copiesOf returns the copy lock of k, by Fibonacci hashing (as
// internal/store picks latches).
func (st *stripe) copiesOf(k kv.Key) *copies {
	return &st.copies[(uint64(k)*0x9E3779B97F4A7C15)>>(64-copyLockBits)]
}

// replica returns k's copy if it is a replica, nil otherwise. The caller
// holds c.mu.
func (c *copies) replica(k kv.Key) *entry {
	if e := c.entries[k]; e != nil && e.expiry == 0 {
		return e
	}
	return nil
}

// remove takes k's copy out of the table and returns it, the one way a copy
// goes. The caller holds c.mu.
func (c *copies) remove(k kv.Key) *entry {
	e := c.entries[k]
	delete(c.entries, k)
	return e
}

// install sets the copy to merged plus every local delta not yet reflected
// in merged (in-flight and pending), in place, preserving read-your-writes
// across the install. The caller holds the copy's lock.
func (e *entry) install(merged []float32) {
	copy(e.vals, merged)
	for _, f := range e.inflight {
		add(e.vals, f.delta)
	}
	add(e.vals, e.pending)
}

// add adds delta to v element-wise.
func add(v, delta []float32) {
	for i, d := range delta {
		v[i] += d
	}
}

// InitKey sets the starting value of a replicated key: the local replica
// and, if this node is k's home, the authoritative value. Like System.Init,
// it must not run concurrently with workers or the sync cycle.
func (m *Manager) InitKey(k kv.Key, val []float32) {
	st := m.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	c := st.copiesOf(k)
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.replica(k)
	if e == nil {
		panic(fmt.Sprintf("replication: InitKey(%d): key is not replicated", k))
	}
	copy(e.vals, val)
	if a, ok := st.auth[k]; ok {
		copy(a, val)
	}
}

// Pull reads the local replica of k into dst. It reports false — without
// touching dst's final contents' validity — when k is not (or no longer)
// replicated here: the caller falls back to its non-replicated path. A true
// return is an ordinary local replica read, never a network access.
func (m *Manager) Pull(k kv.Key, dst []float32) bool {
	st := m.stripeOf(k)
	c := st.copiesOf(k)
	c.mu.Lock()
	e := c.replica(k)
	if e != nil {
		copy(dst, e.vals)
	}
	c.mu.Unlock()
	if e == nil {
		return false
	}
	st.stats.ReplicaHits.Inc()
	st.stats.ReadValues.Add(int64(len(dst)))
	return true
}

// Push applies a cumulative update to the local replica and accumulates it
// in the replica's pending deltas for the next sync round. It reports false
// when k is not (or no longer) replicated here; the delta was not applied
// anywhere and the caller must route it through its non-replicated path, so
// the update is counted exactly once however the push races with a
// demotion.
func (m *Manager) Push(k kv.Key, delta []float32) bool {
	st := m.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	c := st.copiesOf(k)
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.replica(k)
	if e == nil {
		return false
	}
	add(e.vals, delta)
	if e.pending == nil {
		e.pending = make([]float32, len(delta))
		st.unsent = append(st.unsent, k)
	}
	add(e.pending, delta)
	st.stats.LocalWrites.Inc()
	return true
}

// EnterKey starts replicating k at this (non-home) node with the home's
// current value v, in place of a leased copy. Idempotent: a key already
// replicated keeps its local view and the deltas it has not synced.
func (m *Manager) EnterKey(k kv.Key, v []float32) {
	m.enter(k, v, m.cfg.Home.NodeOf(k))
}

// EnterHomeKey starts replicating k at its home node, seeding both the
// authoritative merged value and the local replica with v (the value taken
// out of the relocation store). The caller has already sent every other node
// its ManageReplicate — or, for a static hot set, every node enters its keys
// before the system starts — so each refresh of k follows the install it
// refreshes.
func (m *Manager) EnterHomeKey(k kv.Key, v []float32) {
	if !m.enter(k, v, m.cfg.Node) {
		panic(fmt.Sprintf("replication: EnterHomeKey(%d): already replicated at node %d", k, m.cfg.Node))
	}
}

// enter installs a replica of k from home with value v, unless k is
// replicated here already, and reports whether it did. At the home it also
// seeds the authoritative value.
func (m *Manager) enter(k kv.Key, v []float32, home int) bool {
	st := m.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	c := st.copiesOf(k)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.replica(k) != nil {
		return false
	}
	if home == m.cfg.Node {
		st.auth[k] = slices.Clone(v)
	}
	c.entries[k] = &entry{vals: slices.Clone(v), from: int32(home)}
	return true
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
	c := st.copiesOf(k)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.replica(k) == nil {
		return nil
	}
	return c.remove(k).pending
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
	c := st.copiesOf(k)
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := st.auth[k]
	if c.replica(k) == nil || !ok {
		panic(fmt.Sprintf("replication: FinalizeDemote(%d): not replicated with its home at node %d", k, m.cfg.Node))
	}
	add(v, c.remove(k).pending)
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
	if len(st.unsent) > 0 {
		st.seq++
	}
	var syncs map[int]*msg.ReplicaSync
	for _, k := range st.unsent {
		home := m.cfg.Home.NodeOf(k)
		c := st.copiesOf(k)
		c.mu.Lock()
		e := c.replica(k)
		var delta []float32
		if e != nil { // nil: demoted since its push
			delta, e.pending = e.pending, nil
			if home != m.cfg.Node {
				e.inflight = append(e.inflight, inflightDelta{seq: st.seq, delta: delta})
			}
		}
		c.mu.Unlock()
		switch {
		case delta == nil:
		case home == m.cfg.Node:
			st.mergeLocked(k, delta)
		default:
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
	}
	st.unsent = st.unsent[:0]
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
			c := st.copiesOf(k)
			c.mu.Lock()
			c.replica(k).install(st.auth[k])
			c.mu.Unlock()
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
	add(st.auth[k], delta)
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

// HandleRefresh applies a ReplicaRefresh at a holder, on the shard goroutine
// of the message's keys, to each key's live copy that came from the
// message's Origin; a key with none is skipped. The drop form (no Vals), and
// a message whose values do not fit its keys (see stripeFor; the wire is
// outside input), discards leased copies and leaves replicas alone.
// Otherwise each copy first retires the in-flight deltas the refresh
// acknowledges (seq <= Ack: the value reflects them; a lease has none), then
// takes the value plus this node's still-unmerged deltas in place, and a
// leased copy's life is clamped to the Ack microseconds its owner says are
// left — a refresh never extends a lease, and never ends a replica.
func (m *Manager) HandleRefresh(t *msg.ReplicaRefresh) {
	drop := len(t.Vals) == 0 || m.stripeFor(t.Keys, len(t.Vals)) == nil
	acked := func(f inflightDelta) bool { return !seqAfter(f.seq, t.Ack) }
	now := time.Now().UnixNano()
	src := 0
	for _, k := range t.Keys {
		st := m.stripeOf(k)
		c := st.copiesOf(k)
		c.mu.Lock()
		e := c.entries[k]
		switch {
		case e == nil || e.from != t.Origin || e.expiry != 0 && e.expiry < now:
		case drop && e.expiry != 0:
			c.remove(k)
			st.stats.LeaseInvalidations.Inc()
		case !drop:
			e.inflight = slices.DeleteFunc(e.inflight, acked)
			e.install(t.Vals[src : src+len(e.vals)])
			if e.expiry != 0 {
				e.expiry = min(e.expiry, now+int64(t.Ack)*1000)
				st.stats.LeaseRefreshes.Inc()
			}
		}
		c.mu.Unlock()
		if !drop {
			src += m.cfg.Layout.Len(k)
		}
	}
}

// Lease installs the copy of k that owner from granted for ttlMicros
// microseconds from now, with value v (copied: it aliases a decode scratch at
// the call site). A grant never takes a replica's place: a late one, issued
// before the key's promotion, is ignored.
func (m *Manager) Lease(k kv.Key, v []float32, ttlMicros uint32, from int32) {
	expiry := time.Now().UnixNano() + int64(ttlMicros)*1000
	c := m.stripeOf(k).copiesOf(k)
	c.mu.Lock()
	switch e := c.entries[k]; {
	case e == nil:
		c.entries[k] = &entry{vals: slices.Clone(v), from: from, expiry: expiry}
	case e.expiry != 0:
		copy(e.vals, v)
		e.from, e.expiry = from, expiry
	}
	c.mu.Unlock()
}

// ReadLease copies k's leased value into dst if a live lease covers it and
// none of this node's pushes to k is in flight. An expired lease is dropped
// on the way.
func (m *Manager) ReadLease(k kv.Key, dst []float32) bool {
	c := m.stripeOf(k).copiesOf(k)
	c.mu.Lock()
	e := c.entries[k]
	ok := e != nil && e.expiry != 0 && (len(c.pushing) == 0 || c.pushing[k] == 0)
	if ok && e.expiry < time.Now().UnixNano() {
		c.remove(k)
		ok = false
	}
	if ok {
		copy(dst, e.vals)
	}
	c.mu.Unlock()
	return ok
}

// PushBegin marks one more of this node's pushes to k as in flight: until
// the matching PushEnd, ReadLease misses on k.
func (m *Manager) PushBegin(k kv.Key) {
	c := m.stripeOf(k).copiesOf(k)
	c.mu.Lock()
	c.pushing[k]++
	c.mu.Unlock()
}

// PushEnd takes one in-flight mark off k when a push completed. refresher is
// the node that says it overwrote this node's copy with the post-write value
// before completing the push (NoRefresher: nobody does). A leased copy that
// node did not grant is one nothing vouches for, and is discarded; a replica
// took the write itself and stays.
func (m *Manager) PushEnd(k kv.Key, refresher int32) {
	st := m.stripeOf(k)
	c := st.copiesOf(k)
	c.mu.Lock()
	if n := c.pushing[k]; n > 1 {
		c.pushing[k] = n - 1
	} else {
		delete(c.pushing, k)
	}
	if e := c.entries[k]; e != nil && e.expiry != 0 && e.from != refresher {
		c.remove(k)
		st.stats.LeaseInvalidations.Inc()
	}
	c.mu.Unlock()
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
	c := m.stripeOf(k).copiesOf(k)
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.replica(k)
	if e == nil {
		panic(fmt.Sprintf("replication: replica of key %d missing at node %d", k, m.cfg.Node))
	}
	copy(dst, e.vals)
}
