package classic

// The stale PS (Petuum) the paper compares against in Section 4.5 is a
// classic PS plus bounded-staleness replication. Each node additionally keeps
// replicas of the parameters its workers have accessed, tagged with the
// global clock they reflect, and each worker buffers its updates in a
// write-back cache that is flushed when the worker advances its clock. A read
// at worker clock c with staleness bound s may be served from a replica that
// reflects global clock >= c-s; otherwise the worker synchronizes with the
// server, blocking until the server's global clock (the minimum over all
// worker clocks) is recent enough.
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

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"lapse/internal/cluster"
	"lapse/internal/kv"
	"lapse/internal/msg"
	"lapse/internal/server"
)

// StaleConfig parameterizes the stale PS.
type StaleConfig struct {
	// Staleness is the SSP staleness bound s: a read at worker clock c
	// tolerates replicas as old as global clock c-s.
	Staleness int
	// ServerSync selects server-based synchronization (SSPPush).
	ServerSync bool
}

// NewStale creates a stale PS on cl with zero-initialized parameters and
// starts the per-node message loops.
func NewStale(cl *cluster.Cluster, layout kv.Layout, cfg StaleConfig) *System {
	if cfg.Staleness < 0 {
		panic(fmt.Sprintf("classic: negative staleness %d", cfg.Staleness))
	}
	return build(cl, layout, Config{}, &cfg)
}

// clocks is a stale-PS node's clock and replica state. Flushed updates are
// applied by the shard owning their keys (the store's latches keep per-key
// atomicity), while the clock protocol — whose handlers mutate node-level
// state under mu and rely on per-link FIFO — is pinned to shard 0 by the
// transport demux.
type clocks struct {
	// Server-side state.
	mu           sync.Mutex
	workerClocks []int32
	globalClock  int32
	waiting      []waitingSync
	subs         map[int]map[kv.Key]struct{} // subscriber node -> keys

	// Client-side state (replicas).
	repMu    sync.RWMutex
	replicas map[kv.Key]*replica
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

func newClocks(workers int) *clocks {
	return &clocks{
		workerClocks: make([]int32, workers),
		subs:         make(map[int]map[kv.Key]struct{}),
		replicas:     make(map[kv.Key]*replica),
	}
}

// GlobalClock returns node n's view of the global clock (tests; n must be
// hosted by this process and run the stale PS).
func (s *System) GlobalClock(n int) int32 {
	nd := s.nodes[n]
	if nd == nil || nd.clk == nil {
		panic(fmt.Sprintf("classic: GlobalClock(%d): node is not a stale-PS node of this process", n))
	}
	nd.clk.mu.Lock()
	defer nd.clk.mu.Unlock()
	return nd.clk.globalClock
}

// handleClock advances a worker's clock at this server and, if the global
// clock advanced, releases blocked synchronizations and (in SSPPush mode)
// eagerly pushes subscribed parameters.
func (nd *node) handleClock(sh *policyShard, m *msg.SspClock) {
	c := nd.clk
	c.mu.Lock()
	if m.Clock > c.workerClocks[m.Worker] {
		c.workerClocks[m.Worker] = m.Clock
	}
	min := c.workerClocks[0]
	for _, wc := range c.workerClocks[1:] {
		if wc < min {
			min = wc
		}
	}
	advanced := min > c.globalClock
	c.globalClock = min
	var release []waitingSync
	if advanced {
		kept := c.waiting[:0]
		for _, w := range c.waiting {
			if w.required <= min {
				release = append(release, w)
			} else {
				kept = append(kept, w)
			}
		}
		c.waiting = kept
	}
	global := c.globalClock
	c.mu.Unlock()

	for _, w := range release {
		nd.replySync(sh, w.origin, w.id, w.keys, global)
	}
	if advanced && nd.sys.stale.ServerSync {
		nd.eagerPush(sh, global)
	}
}

// eagerPush sends every subscribed key's current value to each subscriber
// node (SSPPush: replicate all previously accessed parameters). The pushed
// messages may span shards; receivers install them clock-monotonically, so
// no shard-purity is required (see msg.ShardOf).
func (nd *node) eagerPush(sh *policyShard, global int32) {
	nd.clk.mu.Lock()
	plan := make(map[int][]kv.Key, len(nd.clk.subs))
	for sub, keys := range nd.clk.subs {
		ks := make([]kv.Key, 0, len(keys))
		for k := range keys {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		plan[sub] = ks
	}
	nd.clk.mu.Unlock()
	for sub, ks := range plan {
		if len(ks) > 0 {
			sh.rt.Send(sub, &msg.SspSync{ID: 0, Clock: global, Keys: ks, Vals: nd.readValues(ks)})
		}
	}
}

// handleSync processes either a client fetch request (at a server, ID != 0
// with no values) or a replica refresh (at a client: a fetch reply or an
// eager push).
func (nd *node) handleSync(sh *policyShard, src int, m *msg.SspSync) {
	if m.Vals == nil {
		// Fetch request: serve when the global clock is recent enough.
		c := nd.clk
		c.mu.Lock()
		if sub, ok := c.subs[src]; ok {
			for _, k := range m.Keys {
				sub[k] = struct{}{}
			}
		} else {
			set := make(map[kv.Key]struct{}, len(m.Keys))
			for _, k := range m.Keys {
				set[k] = struct{}{}
			}
			c.subs[src] = set
		}
		ready := c.globalClock >= m.Clock
		global := c.globalClock
		if !ready {
			// The wait entry outlives this handler, so it must own its key
			// list: m.Keys aliases the message's recyclable decode scratch.
			keys := append([]kv.Key(nil), m.Keys...)
			c.waiting = append(c.waiting, waitingSync{required: m.Clock, origin: int32(src), id: m.ID, keys: keys})
			sh.rt.Stats().SyncWaits.Inc()
		}
		c.mu.Unlock()
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
	sh.rt.Send(int(origin), &msg.SspSync{ID: id, Clock: global, Keys: keys, Vals: nd.readValues(keys)})
}

// applyRefresh installs newer replica values; older refreshes are ignored so
// replica clocks advance monotonically (monotonic reads).
func (nd *node) applyRefresh(m *msg.SspSync) {
	c := nd.clk
	c.repMu.Lock()
	defer c.repMu.Unlock()
	off := 0
	for _, k := range m.Keys {
		l := nd.sys.layout.Len(k)
		v := m.Vals[off : off+l]
		off += l
		r, ok := c.replicas[k]
		if !ok {
			r = &replica{vals: make([]float32, l)}
			c.replicas[k] = r
		} else if r.clock > m.Clock {
			continue
		}
		copy(r.vals, v)
		r.clock = m.Clock
	}
}

// staleHandle is the per-worker stale-PS client: a worker clock, a
// write-back update cache, and replica-first reads. Identity, barrier,
// WaitAll and the unsupported Localize come from the classic handle.
type staleHandle struct {
	handle
	clock      int32
	writeCache map[kv.Key][]float32
}

// Push implements kv.KV: updates go to the worker's write-back cache and are
// flushed on Clock. Push is therefore purely local and never blocks.
func (h *staleHandle) Push(keys []kv.Key, vals []float32) error {
	if want := kv.BufferLen(h.sys.layout, keys); len(vals) != want {
		return fmt.Errorf("classic: push buffer has %d values, want %d", len(vals), want)
	}
	off := 0
	for _, k := range keys {
		l := h.sys.layout.Len(k)
		c, ok := h.writeCache[k]
		if !ok {
			c = make([]float32, l)
			h.writeCache[k] = c
		}
		addTo(c, vals[off:off+l])
		off += l
		h.nd.srv.ShardOf(k).Stats().LocalWrites.Inc()
	}
	return nil
}

// PushAsync implements kv.KV.
func (h *staleHandle) PushAsync(keys []kv.Key, vals []float32) *kv.Future {
	return kv.CompletedFuture(h.Push(keys, vals))
}

// Pull implements kv.KV: fresh replicas are read locally; stale or missing
// replicas are synchronously fetched from their servers, blocking until the
// staleness bound is satisfiable. Reads include the worker's own unflushed
// updates (read-your-writes).
func (h *staleHandle) Pull(keys []kv.Key, dst []float32) error {
	return h.PullAsync(keys, dst).Wait()
}

// staleRead is one pulled key occurrence that waits for a fetch: its slot of
// the caller's buffer and a copy of the worker's unflushed delta for the key
// at issue time (nil if none).
type staleRead struct {
	k     kv.Key
	dst   []float32
	delta []float32
}

// PullAsync implements kv.KV. It captures everything the fetch's completion
// needs when it is issued, so later pushes neither race with the completion
// nor leak into the result.
func (h *staleHandle) PullAsync(keys []kv.Key, dst []float32) *kv.Future {
	if want := kv.BufferLen(h.sys.layout, keys); len(dst) != want {
		return kv.CompletedFuture(fmt.Errorf("classic: pull buffer has %d values, want %d", len(dst), want))
	}
	required := h.required()
	// Serve what we can from replicas; collect stale keys per server (one
	// fetch message per contacted server node).
	var staleBy map[int][]kv.Key
	var reads []staleRead
	off := 0
	for _, k := range keys {
		l := h.sys.layout.Len(k)
		d := dst[off : off+l]
		off += l
		st := h.nd.srv.ShardOf(k).Stats()
		st.ReadValues.Add(int64(l))
		if h.readReplica(k, required, d) {
			st.LocalReads.Inc()
			addTo(d, h.writeCache[k])
			continue
		}
		if staleBy == nil {
			staleBy = make(map[int][]kv.Key)
		}
		srv := h.sys.part.NodeOf(k)
		staleBy[srv] = append(staleBy[srv], k)
		reads = append(reads, staleRead{k: k, dst: d, delta: slices.Clone(h.writeCache[k])})
		st.RemoteReads.Inc()
	}
	if staleBy == nil {
		return kv.CompletedFuture(nil)
	}
	// One fetch per contacted server, each registered as a pending part
	// (bufferless: it counts the one reply) on the shard of the fetch's first
	// key: the reply echoes the key list, so the transport demux delivers it
	// back to exactly that shard.
	a := server.NewAgg()
	for srv, ks := range staleBy {
		id := h.nd.srv.ShardOf(ks[0]).Pending().RegisterOpPart(a, 1, nil, nil)
		h.nd.srv.Send(srv, &msg.SspSync{ID: id, Clock: required, Keys: ks})
	}
	fut := a.Seal()
	// Completion fills replicas (via applyRefresh); read them afterwards.
	out := kv.NewFuture()
	go func() {
		err := fut.Wait()
		for _, r := range reads {
			if err != nil {
				break
			}
			if !h.readReplica(r.k, 0, r.dst) {
				err = fmt.Errorf("classic: replica of key %d missing after sync", r.k)
				break
			}
			addTo(r.dst, r.delta)
		}
		out.Complete(err)
	}()
	h.Track(out)
	return out
}

// required is the oldest global clock a replica may reflect to serve a read
// at the worker's current clock.
func (h *staleHandle) required() int32 {
	return max(h.clock-int32(h.sys.stale.Staleness), 0)
}

// readReplica copies the replica value of k into dst if the replica reflects
// a global clock >= required.
func (h *staleHandle) readReplica(k kv.Key, required int32, dst []float32) bool {
	c := h.nd.clk
	c.repMu.RLock()
	defer c.repMu.RUnlock()
	r, ok := c.replicas[k]
	if !ok || r.clock < required {
		return false
	}
	copy(dst, r.vals)
	return true
}

// addTo adds delta element-wise to d.
func addTo(d, delta []float32) {
	for i, x := range delta {
		d[i] += x
	}
}

// PullIfLocal implements kv.KV: succeeds only if every key has a fresh
// replica (no network).
func (h *staleHandle) PullIfLocal(keys []kv.Key, dst []float32) (bool, error) {
	if want := kv.BufferLen(h.sys.layout, keys); len(dst) != want {
		return false, fmt.Errorf("classic: pull buffer has %d values, want %d", len(dst), want)
	}
	required := h.required()
	off := 0
	for _, k := range keys {
		l := h.sys.layout.Len(k)
		d := dst[off : off+l]
		if !h.readReplica(k, required, d) {
			return false, nil
		}
		addTo(d, h.writeCache[k])
		off += l
	}
	return true, nil
}

// RouteKey implements server.Router for the clock flush: flushed updates
// always go to the key's server shard over the message path (even node-local
// shards use the loopback link, as in Petuum), so no key is served or queued
// locally.
func (h *staleHandle) RouteKey(_ msg.OpType, _ *server.OpCtx, k kv.Key, _, _ []float32) server.KeyRoute {
	return server.KeyRoute{Dest: h.sys.part.NodeOf(k)}
}

// Clock implements kv.KV: flush the write cache to the servers, then advance
// this worker's clock at every server. Clock waits for the flush
// acknowledgements so a subsequent global-clock advance is guaranteed to
// include this worker's updates.
func (h *staleHandle) Clock() {
	// Flush buffered updates through the shared dispatch path, which
	// batches them into one message per server shard.
	if len(h.writeCache) > 0 {
		ks := make([]kv.Key, 0, len(h.writeCache))
		for k := range h.writeCache {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		vals := make([]float32, 0, kv.BufferLen(h.sys.layout, ks))
		for _, k := range ks {
			vals = append(vals, h.writeCache[k]...)
		}
		if err := h.DispatchOp(h, msg.OpPush, ks, nil, vals).Wait(); err != nil {
			panic(fmt.Sprintf("classic: flush failed: %v", err))
		}
		// Fold the flushed deltas into existing local replicas, as
		// Petuum's process cache does: the worker's own writes stay
		// visible locally even though the write buffer is now empty
		// (read-your-writes across clocks). Later genuine refreshes
		// overwrite these values with server state that already
		// includes the flushed updates, because the flush was
		// acknowledged before any subsequent fetch can be issued.
		c := h.nd.clk
		c.repMu.Lock()
		for k, delta := range h.writeCache {
			if r, ok := c.replicas[k]; ok {
				addTo(r.vals, delta)
			}
		}
		c.repMu.Unlock()
		h.writeCache = make(map[kv.Key][]float32)
	}
	h.clock++
	for n := 0; n < h.sys.cl.Nodes(); n++ {
		h.nd.srv.Send(n, &msg.SspClock{Worker: int32(h.WorkerID()), Clock: h.clock})
	}
}

var (
	_ kv.KV         = (*staleHandle)(nil)
	_ server.Router = (*staleHandle)(nil)
)
