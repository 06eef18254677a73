package core

import (
	"fmt"
	"time"

	"lapse/internal/kv"
	"lapse/internal/msg"
	"lapse/internal/replication"
	"lapse/internal/server"
)

// handle is the per-worker-thread Lapse client. It implements the full API of
// Table 2: pull, push, and localize, each synchronous and asynchronous, plus
// PullIfLocal used by latency-hiding applications. Identity, barrier, and
// WaitAll come from the shared runtime handle; operations dispatch through
// the runtime's batched per-(destination, shard) path with this type as the
// router.
type handle struct {
	server.Handle
	sys *System
	nd  *node
	// trk is this worker's private handle onto the node's access tracker:
	// always-on tracking without a shared counter on the fast path (sampled)
	// and without losing any of the few accesses a round-trip-bound worker
	// issues on the slow path (unsampled).
	trk *replication.Handle
}

// Pull implements kv.KV.
func (h *handle) Pull(keys []kv.Key, dst []float32) error {
	return h.PullAsync(keys, dst).Wait()
}

// Push implements kv.KV.
func (h *handle) Push(keys []kv.Key, vals []float32) error {
	return h.PushAsync(keys, vals).Wait()
}

// Localize implements kv.KV.
func (h *handle) Localize(keys []kv.Key) error {
	return h.LocalizeAsync(keys).Wait()
}

// PullAsync implements kv.KV.
func (h *handle) PullAsync(keys []kv.Key, dst []float32) *kv.Future {
	if want := kv.BufferLen(h.sys.layout, keys); len(dst) != want {
		return kv.CompletedFuture(fmt.Errorf("core: pull buffer has %d values, want %d", len(dst), want))
	}
	f := h.DispatchOp(h, msg.OpPull, keys, dst, nil)
	h.Track(f)
	return f
}

// PushAsync implements kv.KV.
func (h *handle) PushAsync(keys []kv.Key, vals []float32) *kv.Future {
	if want := kv.BufferLen(h.sys.layout, keys); len(vals) != want {
		return kv.CompletedFuture(fmt.Errorf("core: push buffer has %d values, want %d", len(vals), want))
	}
	f := h.DispatchOp(h, msg.OpPush, keys, nil, vals)
	h.Track(f)
	return f
}

// RouteKey implements server.Router: serve each key through the fastest
// admissible path — the node-local replica for replicated hot keys,
// shared-memory access for owned keys, the leased serving cache for
// read-only pulls, the relocation queue for keys currently arriving at this
// node, and the network (home-routed, or cache-direct when location caches
// are on) for everything else. A push that leaves the fast path marks its key
// "own push in flight" in the node's serving cache, which keeps the node's
// workers from reading the pre-write entry until the push completes (see
// serving.go, "Read-your-writes").
func (h *handle) RouteKey(t msg.OpType, op *server.OpCtx, k kv.Key, dst, vals []float32) server.KeyRoute {
	sh := h.nd.shardOf(k)
	if h.tryFast(sh, t, k, dst, vals) {
		h.trk.Observe(k)
		return server.KeyRoute{Served: true}
	}
	if sc := h.nd.serving; sc != nil {
		if t == msg.OpPush {
			sc.pushBegin(k)
		} else if op.Lease() {
			if sc.get(k, dst) {
				h.trk.Observe(k)
				sh.stats.ServingHits.Inc()
				sh.stats.ReadValues.Add(int64(len(dst)))
				return server.KeyRoute{Served: true}
			}
			sh.stats.ServingMisses.Inc()
		}
	}
	h.trk.ObserveRemote(k)
	dest, enqueued := h.slowRoute(sh, t, op, k, dst, vals)
	if enqueued {
		return server.KeyRoute{Enqueued: true}
	}
	if t == msg.OpPull {
		sh.stats.RemoteReads.Inc()
		sh.stats.ReadValues.Add(int64(h.sys.layout.Len(k)))
	} else {
		sh.stats.RemoteWrites.Inc()
	}
	return server.KeyRoute{Dest: dest.node, ViaCache: dest.viaCache}
}

// routeDest identifies a network destination for a key: the home node
// (viaCache false) or a cached owner (viaCache true).
type routeDest struct {
	node     int
	viaCache bool
}

// tryFast attempts the shared-memory fast path: keys in Replicated state are
// served from the node-local replica, keys in Owned state from the local
// store. Keys whose relocation queue is still draining must not be served
// here — that would jump the queue and break the worker's program order —
// which the Owned gate guarantees, because the state only flips to Owned
// after the drain completes. Both paths re-validate and report false when
// they lose a race against a transition (a transfer-out, or a demotion
// clearing the replication flag); the caller falls back to the slow path,
// where routing lands the operation wherever the key went.
func (h *handle) tryFast(sh *policyShard, t msg.OpType, k kv.Key, dst, vals []float32) bool {
	switch h.nd.state[k].Load() {
	case stateReplicated:
		if t == msg.OpPull {
			return h.nd.rep.Pull(k, dst)
		}
		return h.nd.rep.Push(k, vals)
	case stateOwned:
		switch t {
		case msg.OpPull:
			if !h.nd.store.Read(k, dst) {
				return false // lost the race against a transfer-out
			}
			sh.stats.LocalReads.Inc()
			sh.stats.ReadValues.Add(int64(len(dst)))
			return true
		default:
			if !h.nd.store.Add(k, vals) {
				return false
			}
			if h.nd.isLeased(k) {
				// This owner's own worker wrote a leased key: refresh the
				// holders' copies. A grant racing this write on a shard
				// goroutine can slip past the flag check — that one holder's
				// staleness is bounded by the TTL (see serving.go, "Staleness
				// bound").
				h.nd.refreshLeases(k, h.nd.id)
			}
			sh.stats.LocalWrites.Inc()
			return true
		}
	}
	return false
}

// slowRoute handles a key that is not locally accessible: it appends the
// operation to the key's relocation queue if the key is arriving at this node
// (enqueued=true), and otherwise returns the network destination — the cached
// owner on a location-cache hit, the home node otherwise. The pending part ID
// is obtained through op.ID only on the queue path (registering the part
// lazily), before the entry is published under the queue lock.
func (h *handle) slowRoute(sh *policyShard, t msg.OpType, op *server.OpCtx, k kv.Key, dst, vals []float32) (routeDest, bool) {
	sh.queueMu.Lock()
	if q, ok := sh.queues[k]; ok {
		q.entries = append(q.entries, queueEntry{local: &localOp{t: t, id: op.ID(k), k: k, off: op.Off(), dst: dst, vals: vals}, at: time.Now()})
		sh.queueMu.Unlock()
		sh.stats.QueuedOps.Inc()
		return routeDest{}, true
	}
	sh.queueMu.Unlock()
	if h.nd.cache != nil {
		if c := h.nd.cache[k].Load(); c >= 0 && int(c) != h.NodeID() {
			sh.stats.CacheHits.Inc()
			return routeDest{node: int(c), viaCache: true}, false
		}
		sh.stats.CacheMisses.Inc()
	}
	return routeDest{node: h.sys.home.NodeOf(k)}, false
}

// MultiGet issues a batched read-only pull through the serving tier: keys
// are served — in this order — from the local replica or owned store, from
// the node's leased serving cache, or over the network with a lease request
// attached, so the next MultiGet of the same keys hits the cache. A cached
// key stays cached across writes: its owner overwrites the entry in place
// with every write it applies, this node's own included, so a hot key that
// is also written costs one miss per lease term, not one per write. A key
// with one of this node's pushes still unacknowledged is read over the
// network, behind that push. Keys served entirely without the network
// complete with zero pending-table registration and zero allocation (the
// kv.CompletedFuture fast path of DispatchOp). With the serving tier disabled
// (Config.Serving nil) MultiGet is equivalent to PullAsync. The returned
// future completes when dst holds every value.
func (h *handle) MultiGet(keys []kv.Key, dst []float32) *kv.Future {
	if want := kv.BufferLen(h.sys.layout, keys); len(dst) != want {
		return kv.CompletedFuture(fmt.Errorf("core: multi-get buffer has %d values, want %d", len(dst), want))
	}
	f := h.DispatchOpRO(h, keys, dst)
	h.Track(f)
	return f
}

// PullIfLocal implements kv.KV: it reads the keys only if all of them are
// currently owned by this node, without any network communication. On false,
// dst may be partially written.
func (h *handle) PullIfLocal(keys []kv.Key, dst []float32) (bool, error) {
	if want := kv.BufferLen(h.sys.layout, keys); len(dst) != want {
		return false, fmt.Errorf("core: pull buffer has %d values, want %d", len(dst), want)
	}
	off := 0
	for _, k := range keys {
		h.trk.Observe(k)
		l := h.sys.layout.Len(k)
		if !h.tryFast(h.nd.shardOf(k), msg.OpPull, k, dst[off:off+l], nil) {
			return false, nil
		}
		off += l
	}
	return true, nil
}

// LocalizeAsync implements kv.KV: it requests relocation of all non-local
// keys to this node and returns a future that completes when every key has
// arrived (Section 3.2). Keys already relocating here (requested by a
// co-located worker) are waited on without sending additional messages; keys
// that do need a request are batched into one message per (home node, shard)
// — relocation messages are shard-pure like operation messages. Arrival
// tracking registers one pending part per shard under an aggregate that
// completes when every shard's keys are in.
func (h *handle) LocalizeAsync(keys []kv.Key) *kv.Future {
	if len(keys) == 0 {
		return kv.CompletedFuture(nil)
	}
	start := time.Now()
	nd := h.nd
	// Group keys by shard first; each shard's classification and waiter
	// registration happen under that shard's queue lock.
	byShard := make(map[*policyShard][]kv.Key)
	for _, k := range keys {
		if nd.state[k].Load() == stateReplicated {
			continue // replicated keys are local at every node already
		}
		sh := nd.shardOf(k)
		byShard[sh] = append(byShard[sh], k)
	}
	if len(byShard) == 0 {
		return kv.CompletedFuture(nil)
	}
	a := server.NewAgg()
	type sendGroup struct {
		sh   *policyShard
		id   uint64
		home int
		keys []kv.Key
	}
	var sends []sendGroup
	registered := false
	for sh, shKeys := range byShard {
		pending := sh.rt.Pending()
		var sendKeys, waitKeys []kv.Key
		sh.queueMu.Lock()
		for _, k := range shKeys {
			switch nd.state[k].Load() {
			case stateOwned, stateReplicated:
				continue // already local (a promotion may have raced the filter)
			case stateIncoming:
				waitKeys = append(waitKeys, k)
			default:
				nd.state[k].Store(stateIncoming)
				sh.queues[k] = &keyQueue{}
				sendKeys = append(sendKeys, k)
			}
		}
		total := len(sendKeys) + len(waitKeys)
		if total == 0 {
			sh.queueMu.Unlock()
			continue
		}
		id := pending.RegisterLocalizePart(a, total)
		registered = true
		for _, k := range sendKeys {
			pending.AddWaiter(k, id)
		}
		for _, k := range waitKeys {
			pending.AddWaiter(k, id)
		}
		sh.queueMu.Unlock()

		if len(sendKeys) > 0 {
			a.Measure() // this localize sends network messages: time it
			groups := make(map[int][]kv.Key)
			for _, k := range sendKeys {
				home := h.sys.home.NodeOf(k)
				groups[home] = append(groups[home], k)
			}
			for home, gk := range groups {
				sends = append(sends, sendGroup{sh: sh, id: id, home: home, keys: gk})
			}
		}
	}
	if !registered {
		return kv.CompletedFuture(nil)
	}
	for _, sg := range sends {
		if sg.sh.rt.Batched() {
			nd.srv.Send(sg.home, &msg.Localize{ID: sg.id, Origin: int32(h.NodeID()), Keys: sg.keys})
			continue
		}
		for _, k := range sg.keys {
			nd.srv.Send(sg.home, &msg.Localize{ID: sg.id, Origin: int32(h.NodeID()), Keys: []kv.Key{k}})
		}
	}
	a.Time(&h.Lat().Localize, start)
	fut := a.Seal(nd.shardOf(keys[0]).stats)
	h.Track(fut)
	return fut
}

var (
	_ kv.KV         = (*handle)(nil)
	_ server.Router = (*handle)(nil)
)
