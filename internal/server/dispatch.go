package server

import (
	"fmt"
	"sync"
	"time"

	"lapse/internal/kv"
	"lapse/internal/msg"
)

// KeyRoute is a Router's verdict for one key of a worker operation.
type KeyRoute struct {
	// Served marks the key as already served through the variant's
	// shared-memory fast path; no message is sent and the key counts as
	// done immediately.
	Served bool
	// Enqueued marks the key as queued by the variant (e.g. on a Lapse
	// relocation queue); the queued entry completes the key through the
	// operation ID later.
	Enqueued bool
	// Dest is the node the key's request must be sent to (when neither
	// Served nor Enqueued).
	Dest int
}

// Router is the variant's per-key routing policy for worker operations: it
// may serve a key locally, queue it, or name the node to contact. Routers
// run on the issuing worker's goroutine and do their own stats accounting,
// since what counts as a "local" access differs between variants. A router
// that queues a key must obtain the key's pending-operation ID through
// op.ID(k) before publishing the queued entry. DispatchOp builds an
// operation's state only at its first key RouteKey does not serve, or asks
// op.ID or op.Off for, so an operation whose keys are all served in place
// costs one RouteKey call per key and nothing else.
type Router interface {
	RouteKey(t msg.OpType, op *OpCtx, k kv.Key, dst, vals []float32) KeyRoute
}

// SendGate is an optional extension of Router for variants in which a Dest
// verdict can be overtaken before the group it was batched into is sent: in
// Lapse a co-located worker's Localize may open the key's relocation queue —
// and put its request on the link — between RouteKey and the group send, and
// the operation would then reach the key behind accesses its worker issues
// later. For such a router a Dest verdict is a proposal. DispatchOp holds
// ShardLock(shard) around every group send and offers each key of the group
// to RouteLocked first: a Served or Enqueued verdict takes the key out of the
// group, any other keeps it, and the keys kept are on the link before the
// lock is released (transport Sends queue and never block).
type SendGate interface {
	ShardLock(shard int) sync.Locker
	RouteLocked(t msg.OpType, op *OpCtx, k kv.Key, dst, vals []float32) KeyRoute
}

// OpCtx is the in-flight state of one DispatchOp call. It is built lazily:
// the per-occurrence offsets and per-shard counts only from the first key the
// fast path does not serve, and a shard's pending-operation part (and the
// operation's aggregate) only when the first of its keys actually needs the
// pending table — an operation whose keys are all served through the fast
// path builds and registers nothing and completes without a single
// allocation.
type OpCtx struct {
	nd    *Node
	t     msg.OpType
	lease bool // read-only dispatch requesting serving-cache leases
	built bool // ds holds this operation's offsets and counts
	keys  []kv.Key
	dst   []float32
	vals  []float32
	ds    *dispatchScratch // per-occurrence offsets and per-shard counts, served counts and part IDs
	agg   *Agg
	cur   int // occurrence index currently being routed
}

// Lease reports whether this operation is a read-only dispatch
// (DispatchOpRO) whose remote pulls request serving-cache leases; routers
// use it to consult the serving cache before paying the network.
func (c *OpCtx) Lease() bool { return c.lease }

// ID returns the pending-operation ID of key k's shard part, registering the
// part first if this is the shard's first non-fast-path key. Routers call it
// when queueing a key; the registration happens before the queued entry is
// published, so a concurrent queue drain always finds the slot.
func (c *OpCtx) ID(k kv.Key) uint64 {
	if !c.built {
		c.build()
	}
	return c.ensure(msg.ShardOfKey(k, len(c.nd.shards)))
}

// Off returns the offset of the occurrence currently being routed into the
// operation's dst/vals buffer. Routers that queue a key record it so a
// locally applied queue drain can claim its occurrence (Pending.ClaimOffset).
func (c *OpCtx) Off() int32 {
	if !c.built {
		c.build()
	}
	return c.ds.offs[c.cur]
}

// build fills the scratch with the operation's per-occurrence offsets and
// per-shard key counts. It runs at the first occurrence that is not served in
// place, so every occurrence before it is accounted as served through the
// fast path.
func (c *OpCtx) build() {
	ds := c.ds
	layout := c.nd.g.layout
	nShards := len(c.nd.shards)
	ds.reset(nShards, len(c.keys))
	off := 0
	for i, k := range c.keys {
		ds.offs[i] = int32(off)
		off += layout.Len(k)
		s := msg.ShardOfKey(k, nShards)
		ds.counts[s]++
		if i < c.cur {
			ds.served[s]++
			ds.fastDone[i] = true
		}
	}
	c.built = true
}

// ensure registers shard s's operation part on first use and returns its ID.
// The part is registered for all of the shard's keys (fast-path keys are
// finished in bulk at the end of DispatchOp); for pulls it carries the
// per-occurrence offset table responses fill through. Occurrences already
// served through the fast path are excluded — they will never be answered,
// and a stale entry for one would misdirect the response of a duplicate
// occurrence of the same key.
func (c *OpCtx) ensure(s int) uint64 {
	ds := c.ds
	if ds.ids[s] != 0 {
		return ds.ids[s]
	}
	if c.agg == nil {
		c.agg = NewAgg()
	}
	var entries []OpEntry
	if c.t == msg.OpPull && c.dst != nil {
		nShards := len(c.nd.shards)
		entries = make([]OpEntry, 0, ds.counts[s])
		for i, k := range c.keys {
			if !ds.fastDone[i] && msg.ShardOfKey(k, nShards) == s {
				entries = append(entries, OpEntry{Key: k, Off: ds.offs[i]})
			}
		}
	}
	ds.ids[s] = c.nd.shards[s].pending.RegisterOpPart(c.agg, ds.counts[s], c.dst, entries)
	return ds.ids[s]
}

// at makes occurrence i the one being routed and returns its slice of the
// operation's buffers: the pull destination or the push update term.
func (c *OpCtx) at(i int) (dst, vals []float32) {
	c.cur = i
	o := int(c.ds.offs[i])
	l := c.nd.g.layout.Len(c.keys[i])
	if c.t == msg.OpPull {
		return c.dst[o : o+l], nil
	}
	return nil, c.vals[o : o+l]
}

// served accounts occurrence i, a key of shard s, as served through the fast
// path; DispatchOp finishes a shard's served keys in bulk once every key is
// routed. If the shard's part is already registered, the occurrence has an
// offset entry: it is claimed, so a duplicate occurrence's response cannot be
// misdirected onto the region the fast path just served.
func (c *OpCtx) served(i, s int) {
	ds := c.ds
	ds.served[s]++
	ds.fastDone[i] = true
	if id := ds.ids[s]; id != 0 {
		c.nd.shards[s].pending.ClaimOffset(id, c.keys[i], ds.offs[i])
	}
}

// sendGroup accumulates the keys of one outgoing message: a destination
// node and the server shard every key of the group belongs to. Routing
// collects the key occurrences (idx); the message's key and value lists are
// built from them when the group is sent. The backing arrays are scratch,
// reused across operations.
type sendGroup struct {
	node  int
	shard int
	idx   []int32
	keys  []kv.Key
	vals  []float32
}

// dispatchScratch is the per-handle reusable state of DispatchOp. Handles
// are bound to one worker thread, so none of this needs locking; steady
// state dispatch reuses every slice and sends through one reusable message
// struct (transports encode synchronously and retain nothing). The buffers
// every operation writes — offs, fastDone, counts, served and ids — come
// from ownLines, so no other worker's data shares their cache lines.
type dispatchScratch struct {
	ctx      OpCtx
	offs     []int32
	fastDone []bool
	counts   []int
	served   []int
	ids      []uint64
	groups   []sendGroup
	op       msg.Op
	lease    bool // next DispatchOp is a read-only lease dispatch
}

func (ds *dispatchScratch) reset(nShards, nKeys int) {
	if cap(ds.offs) < nKeys {
		ds.offs = ownLines[int32](nKeys)
		ds.fastDone = ownLines[bool](nKeys)
	}
	ds.offs = ds.offs[:nKeys]
	ds.fastDone = ds.fastDone[:nKeys]
	clear(ds.fastDone)
	if len(ds.counts) != nShards {
		ds.counts = ownLines[int](nShards)
		ds.served = ownLines[int](nShards)
		ds.ids = ownLines[uint64](nShards)
	} else {
		clear(ds.counts)
		clear(ds.served)
		clear(ds.ids)
	}
	ds.groups = ds.groups[:0]
}

// group returns the accumulator for (node, shard), reusing a
// retired group's backing arrays when possible. The number of live groups is
// the number of distinct destinations of one operation — small — so a linear
// scan beats a map.
func (ds *dispatchScratch) group(node, shard int) *sendGroup {
	for i := range ds.groups {
		g := &ds.groups[i]
		if g.node == node && g.shard == shard {
			return g
		}
	}
	if len(ds.groups) < cap(ds.groups) {
		ds.groups = ds.groups[:len(ds.groups)+1]
	} else {
		ds.groups = append(ds.groups, sendGroup{})
	}
	g := &ds.groups[len(ds.groups)-1]
	g.node, g.shard = node, shard
	g.idx = g.idx[:0]
	return g
}

// DispatchOp issues one multi-key pull or push on behalf of this handle's
// worker thread: it routes each key through r and sends the keys that need
// the network batched into one msg.Op envelope per (destination node, shard)
// — so every message is shard-pure and lands directly in the serving shard's
// inbox. The returned future completes when every key has been served,
// whether by the fast path, a queued entry, or a response message; WaitAll
// waits for it too. An operation whose buffer (dst for a pull, vals for a
// push) does not hold exactly the keys' values fails at once, and serves and
// sends nothing.
//
// The keys are routed in one pass in key order. Keys the router serves in
// place need no per-operation state, so it is built only from the first key
// that is not served, and an operation served entirely in place builds
// nothing and allocates nothing. Pending-operation parts register lazily
// through the OpCtx: a shard's part exists only if one of its keys was queued
// or sent, and it is always registered before the queued entry or message
// that could complete it, so a fast server shard cannot complete the future
// while later keys are still being routed. Offsets are tracked per key
// occurrence (OpEntry), so an operation that names a key twice reads/writes
// both regions correctly.
func (h *Handle) DispatchOp(r Router, t msg.OpType, keys []kv.Key, dst, vals []float32) *kv.Future {
	buf := dst
	if t == msg.OpPush {
		buf = vals
	}
	if want := kv.BufferLen(h.nd.g.layout, keys); len(buf) != want {
		return kv.CompletedFuture(fmt.Errorf("server: %v buffer has %d values, want %d", t, len(buf), want))
	}
	if len(keys) == 0 {
		return kv.CompletedFuture(nil)
	}
	// End-to-end latency: operations that leave the fast path are always
	// timed (dispatch to future completion, observed in Agg.finish); the
	// all-fast-path case pays the clock reads only for 1 in fastSampleEvery
	// operations and records them with matching weight, so the merged
	// distribution stays unbiased while unsampled fast ops stay clock-free.
	var start time.Time
	kind := 0
	if t == msg.OpPush {
		kind = 1
	}
	h.opSeq[kind]++
	sampled := h.lat != nil && h.opSeq[kind]&(fastSampleEvery-1) == 0
	if sampled {
		start = nowFunc()
	}
	nd := h.nd
	layout := nd.g.layout
	nShards := len(nd.shards)
	ds := &h.ds
	// Field by field: a composite literal would be built aside and copied in,
	// a block copy that was 6 % of BenchmarkFastPathTwoWorkers' CPU profile.
	ctx := &ds.ctx
	ctx.nd, ctx.t, ctx.lease, ctx.built = nd, t, ds.lease, false
	ctx.keys, ctx.dst, ctx.vals, ctx.ds, ctx.agg = keys, dst, vals, ds, nil

	off := 0
	for i, k := range keys {
		l := layout.Len(k)
		var kdst, kvals []float32
		if t == msg.OpPull {
			kdst = dst[off : off+l]
		} else {
			kvals = vals[off : off+l]
		}
		off += l
		ctx.cur = i
		route := r.RouteKey(t, ctx, k, kdst, kvals)
		if !ctx.built {
			if route.Served {
				continue
			}
			ctx.build()
		}
		if !route.Served && h.lat != nil && start.IsZero() {
			// First key that leaves the fast path: this operation will be
			// timed end-to-end, so capture its start now (the routed prefix
			// cost nanoseconds against a network-bound completion).
			start = nowFunc()
		}
		switch shard := msg.ShardOfKey(k, nShards); {
		case route.Served: // ctx.served(i, shard), written out: this loop is the fast path
			ds.served[shard]++
			ds.fastDone[i] = true
			if ds.ids[shard] != 0 {
				nd.shards[shard].pending.ClaimOffset(ds.ids[shard], k, ds.offs[i])
			}
		case route.Enqueued:
			// The router registered the part via op.ID; the queued entry
			// completes the key through the pending table later.
		default:
			g := ds.group(route.Dest, shard)
			g.idx = append(g.idx, int32(i))
		}
	}
	if !ctx.built {
		// Every key was served in place: nothing built, nothing to wait for.
		if sampled {
			h.observeFast(t, start)
		}
		return kv.CompletedFuture(nil)
	}
	var gate SendGate
	if len(ds.groups) > 0 {
		gate, _ = r.(SendGate)
	}
	for gi := range ds.groups {
		g := &ds.groups[gi]
		var lock sync.Locker
		if gate != nil {
			lock = gate.ShardLock(g.shard)
			lock.Lock()
		}
		g.keys, g.vals = g.keys[:0], g.vals[:0]
		for _, i := range g.idx {
			k := keys[i]
			kdst, kvals := ctx.at(int(i))
			if gate != nil {
				if route := gate.RouteLocked(t, ctx, k, kdst, kvals); route.Served {
					ctx.served(int(i), g.shard)
					continue
				} else if route.Enqueued {
					continue
				}
			}
			g.keys = append(g.keys, k)
			g.vals = append(g.vals, kvals...)
		}
		if len(g.keys) > 0 {
			op := &ds.op
			*op = msg.Op{Type: t, ID: ctx.ensure(g.shard), Origin: int32(nd.node), Lease: ctx.lease, Keys: g.keys, Vals: g.vals}
			nd.Send(g.node, op)
		}
		if lock != nil {
			lock.Unlock()
		}
	}
	for s := 0; s < nShards; s++ {
		if ds.ids[s] != 0 && ds.served[s] > 0 {
			nd.shards[s].pending.FinishKeys(ds.ids[s], ds.served[s])
		}
	}
	if ctx.agg == nil {
		// Every key was served through the fast path after all (the send
		// gate served the rest): nothing registered, nothing to wait for.
		if sampled {
			h.observeFast(t, start)
		}
		return kv.CompletedFuture(nil)
	}
	if h.lat != nil {
		lat := &h.lat.PullSlow
		if t == msg.OpPush {
			lat = &h.lat.PushSlow
		}
		ctx.agg.Time(lat, start)
	}
	f := ctx.agg.Seal()
	h.Track(f)
	return f
}

// observeFast records a sampled all-fast-path operation, with the weight of
// the operations the sampling skipped.
func (h *Handle) observeFast(t msg.OpType, start time.Time) {
	lat := &h.lat.PullFast
	if t == msg.OpPush {
		lat = &h.lat.PushFast
	}
	lat.ObserveN(nowFunc().Sub(start), fastSampleEvery)
}

// fastSampleEvery is the fast-path latency sampling period: all-fast-path
// operations are timed once every fastSampleEvery calls per worker, with
// observations weighted by the period. Must be a power of two. A sample
// costs two clock reads, about 60 ns each, against tens of nanoseconds for
// the operation itself.
const fastSampleEvery = 64

// DispatchOpRO issues a read-only multi-key pull whose remote slices request
// serving-cache leases (Op.Lease): the router sees OpCtx.Lease and may serve
// keys from the node's serving cache, and residual remote pulls install
// leases for the next call. Everything else — batching, lazy pending-table
// registration, the buffer check, the zero-allocation all-fast-path
// completion, the tracking for WaitAll — is DispatchOp.
func (h *Handle) DispatchOpRO(r Router, keys []kv.Key, dst []float32) *kv.Future {
	h.ds.lease = true
	f := h.DispatchOp(r, msg.OpPull, keys, dst, nil)
	h.ds.lease = false
	return f
}
