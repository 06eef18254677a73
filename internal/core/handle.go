package core

import (
	"fmt"
	"sync"
	"time"

	"lapse/internal/kv"
	"lapse/internal/msg"
	"lapse/internal/replication"
	"lapse/internal/server"
)

// handle is the per-worker-thread Lapse client. It implements the full API of
// Table 2: pull, push, and localize, each synchronous and asynchronous, plus
// PullIfLocal used by latency-hiding applications. Identity, barrier, WaitAll,
// pull and push come from the shared runtime handle, which dispatches them
// through the batched per-(destination, shard) path with this type as the
// router; this type adds localize, MultiGet and PullIfLocal.
type handle struct {
	server.Handle
	sys *System
	nd  *node
	// trk is this worker's private handle onto the node's access tracker:
	// sampled on the fast path, without a shared counter, and unsampled on
	// the slow path, where a round-trip-bound worker issues few accesses. Nil
	// (its calls no-ops) without the controller; the field stays, because
	// shrinking this struct put two workers' handles on shared cache lines.
	trk *replication.Handle
}

// Localize implements kv.KV.
func (h *handle) Localize(keys []kv.Key) error {
	return h.LocalizeAsync(keys).Wait()
}

// RouteKey implements server.Router with the gate's lock-free step: a key
// this node holds — owned, or replicated — is served through shared memory,
// and a read-only pull may be served from the leased serving cache. For
// anything else it only proposes where the key's message would go; whether it
// goes at all is decided in RouteLocked, under the key's queue lock, when
// DispatchOp sends the group the proposal put it in.
func (h *handle) RouteKey(t msg.OpType, op *server.OpCtx, k kv.Key, dst, vals []float32) server.KeyRoute {
	sh := h.nd.shardOf(k)
	buf := dst
	if t == msg.OpPush {
		buf = vals
	}
	if by, _ := sh.serve(byState, t, k, buf, nil); by != 0 {
		h.trk.Observe(k)
		return server.KeyRoute{Served: true}
	}
	if h.nd.leases != nil && op.Lease() {
		if h.nd.rep.ReadLease(k, dst) {
			h.trk.Observe(k)
			sh.stats.ServingHits.Inc()
			sh.stats.ReadValues.Add(int64(len(dst)))
			return server.KeyRoute{Served: true}
		}
		sh.stats.ServingMisses.Inc()
	}
	return server.KeyRoute{Dest: sh.route(k, true)}
}

// ShardLock implements server.SendGate: the queue lock of one shard's keys.
func (h *handle) ShardLock(shard int) sync.Locker { return &h.nd.sh[shard].queueMu }

// RouteLocked implements server.SendGate with the gate's step under the queue
// lock, which DispatchOp holds until the key's message is on the link: the key
// joins its relocation queue if one was opened since RouteKey looked, is
// served after all if it arrived meanwhile, and keeps its place in the
// outgoing group otherwise. A push that leaves the fast path marks its key
// "own push in flight" in the node's table of copies, which keeps the node's
// workers from reading the pre-write entry until the push completes (see
// serving.go, "Read-your-writes").
func (h *handle) RouteLocked(t msg.OpType, op *server.OpCtx, k kv.Key, dst, vals []float32) server.KeyRoute {
	sh := h.nd.shardOf(k)
	a := access{t: t, k: k, buf: dst, op: op}
	if t == msg.OpPush {
		a.buf = vals
	}
	o := sh.slow(&a)
	if o.served != 0 {
		h.trk.Observe(k)
		return server.KeyRoute{Served: true}
	}
	h.trk.ObserveRemote(k)
	if h.nd.leases != nil && t == msg.OpPush {
		h.nd.rep.PushBegin(k)
	}
	if !o.queued {
		sh.countRemote(t, k)
	}
	return server.KeyRoute{Enqueued: o.queued}
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
	return h.DispatchOpRO(h, keys, dst)
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
		if by, _ := h.nd.shardOf(k).serve(byState, msg.OpPull, k, dst[off:off+l], nil); by == 0 {
			return false, nil
		}
		off += l
	}
	return true, nil
}

// LocalizeAsync implements kv.KV: it requests relocation of all non-local
// keys to this node and returns a future that completes when every key has
// arrived (Section 3.2). The call joins, per key, the waiters of the key's
// relocation queue under the shard's queue lock, so an arrival cannot be
// missed. Keys already relocating here (requested by a co-located worker, or
// recalled by this node as their home) are waited on without sending
// additional messages; keys that do need a request are batched into one
// message per (home node, shard) — relocation messages are shard-pure like
// operation messages — which leaves under the same lock, like every request
// that opens a queue. A call whose keys are all held here already — owned, or
// replicated — returns after a lock-free scan, without allocating.
func (h *handle) LocalizeAsync(keys []kv.Key) *kv.Future {
	nd := h.nd
	var byShard map[*policyShard][]kv.Key // keys not held here
	for _, k := range keys {
		if nd.holds(k) {
			continue
		}
		if byShard == nil {
			byShard = make(map[*policyShard][]kv.Key)
		}
		sh := nd.shardOf(k)
		byShard[sh] = append(byShard[sh], k)
	}
	if byShard == nil {
		return kv.CompletedFuture(nil)
	}
	start := time.Now()
	a := server.NewAgg()
	waiting, timed := false, false
	for sh, shKeys := range byShard {
		var requests map[int][]kv.Key // home node -> keys to request from it
		sh.queueMu.Lock()
		for _, k := range shKeys {
			switch nd.state[k].Load() {
			case stateOwned, stateReplicated:
				continue // arrived since the filter (a relocation or a promotion)
			case stateNotHere:
				sh.openQueue(k)
				if requests == nil {
					requests = make(map[int][]kv.Key)
				}
				home := h.sys.home.NodeOf(k)
				requests[home] = append(requests[home], k)
			}
			a.Add(1)
			q := sh.queues[k]
			q.waiters = append(q.waiters, a)
			waiting = true
		}
		if requests != nil && !timed {
			// This localize sends network messages: its completion is a
			// relocation time.
			a.Time(&sh.stats.RelocationTime, start)
			timed = true
		}
		for home, keys := range requests {
			nd.srv.Send(home, &msg.Localize{ID: nd.srv.NextID(), Origin: int32(h.NodeID()), Keys: keys})
		}
		sh.queueMu.Unlock()
	}
	if !waiting {
		return kv.CompletedFuture(nil)
	}
	a.Time(&h.Lat().Localize, start)
	fut := a.Seal()
	h.Track(fut)
	return fut
}

var (
	_ kv.KV           = (*handle)(nil)
	_ server.Router   = (*handle)(nil)
	_ server.SendGate = (*handle)(nil)
)
