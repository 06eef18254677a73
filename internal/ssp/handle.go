package ssp

import (
	"fmt"
	"sort"

	"lapse/internal/kv"
	"lapse/internal/msg"
	"lapse/internal/server"
)

// handle is the per-worker stale-PS client: a worker clock, a write-back
// update cache, and replica-first reads. Identity, barrier, and WaitAll come
// from the shared runtime handle.
type handle struct {
	server.Handle
	sys        *System
	nd         *node
	clock      int32
	writeCache map[kv.Key][]float32
}

// Localize implements kv.KV: stale PSs allocate statically.
func (h *handle) Localize([]kv.Key) error { return kv.ErrUnsupported }

// LocalizeAsync implements kv.KV.
func (h *handle) LocalizeAsync([]kv.Key) *kv.Future {
	return kv.CompletedFuture(kv.ErrUnsupported)
}

// Push implements kv.KV: updates go to the worker's write-back cache and are
// flushed on Clock. Push is therefore purely local and never blocks.
func (h *handle) Push(keys []kv.Key, vals []float32) error {
	if want := kv.BufferLen(h.sys.layout, keys); len(vals) != want {
		return fmt.Errorf("ssp: push buffer has %d values, want %d", len(vals), want)
	}
	off := 0
	for _, k := range keys {
		l := h.sys.layout.Len(k)
		c, ok := h.writeCache[k]
		if !ok {
			c = make([]float32, l)
			h.writeCache[k] = c
		}
		for i, x := range vals[off : off+l] {
			c[i] += x
		}
		off += l
		h.nd.srv.ShardOf(k).Stats().LocalWrites.Inc()
	}
	return nil
}

// PushAsync implements kv.KV.
func (h *handle) PushAsync(keys []kv.Key, vals []float32) *kv.Future {
	return kv.CompletedFuture(h.Push(keys, vals))
}

// Pull implements kv.KV: fresh replicas are read locally; stale or missing
// replicas are synchronously fetched from their servers, blocking until the
// staleness bound is satisfiable. Reads include the worker's own unflushed
// updates (read-your-writes).
func (h *handle) Pull(keys []kv.Key, dst []float32) error {
	return h.PullAsync(keys, dst).Wait()
}

// PullAsync implements kv.KV.
func (h *handle) PullAsync(keys []kv.Key, dst []float32) *kv.Future {
	if want := kv.BufferLen(h.sys.layout, keys); len(dst) != want {
		return kv.CompletedFuture(fmt.Errorf("ssp: pull buffer has %d values, want %d", len(dst), want))
	}
	required := h.clock - int32(h.sys.cfg.Staleness)
	if required < 0 {
		required = 0
	}
	// Serve what we can from replicas; collect stale keys per server (one
	// fetch message per contacted server node).
	var staleBy map[int][]kv.Key
	dstOff := make(map[kv.Key]int, len(keys))
	off := 0
	for _, k := range keys {
		dstOff[k] = off
		l := h.sys.layout.Len(k)
		st := h.nd.srv.ShardOf(k).Stats()
		if h.readReplica(k, required, dst[off:off+l]) {
			st.LocalReads.Inc()
		} else {
			if staleBy == nil {
				staleBy = make(map[int][]kv.Key)
			}
			srv := h.sys.part.NodeOf(k)
			staleBy[srv] = append(staleBy[srv], k)
			st.RemoteReads.Inc()
		}
		st.ReadValues.Add(int64(l))
		off += l
	}
	if staleBy == nil {
		h.addOwnWrites(keys, dst, dstOff)
		return kv.CompletedFuture(nil)
	}
	// One fetch per contacted server, each registered as a pending part
	// (bufferless: it counts the one reply) on the shard of the fetch's first
	// key: the reply echoes the key list, so the transport demux delivers it
	// back to exactly that shard.
	a := server.NewAgg()
	for srv, ks := range staleBy {
		id := h.nd.srv.ShardOf(ks[0]).Pending().RegisterOpPart(a, 1, nil, nil)
		m := &msg.SspSync{ID: id, Clock: required, Keys: ks}
		h.nd.srv.Send(srv, m)
	}
	fut := a.Seal()
	// Completion fills replicas (via applyRefresh); read them afterwards.
	out := kv.NewFuture()
	go func() {
		err := fut.Wait()
		if err == nil {
			for _, ks := range staleBy {
				for _, k := range ks {
					l := h.sys.layout.Len(k)
					if !h.readReplica(k, 0, dst[dstOff[k]:dstOff[k]+l]) {
						err = fmt.Errorf("ssp: replica of key %d missing after sync", k)
						break
					}
				}
			}
		}
		if err == nil {
			h.addOwnWrites(keys, dst, dstOff)
		}
		out.Complete(err)
	}()
	h.Track(out)
	return out
}

// readReplica copies the replica value of k into dst if the replica reflects
// a global clock >= required.
func (h *handle) readReplica(k kv.Key, required int32, dst []float32) bool {
	h.nd.repMu.RLock()
	defer h.nd.repMu.RUnlock()
	r, ok := h.nd.replicas[k]
	if !ok || r.clock < required {
		return false
	}
	copy(dst, r.vals)
	return true
}

// addOwnWrites overlays the worker's unflushed updates onto pulled values.
func (h *handle) addOwnWrites(keys []kv.Key, dst []float32, dstOff map[kv.Key]int) {
	for _, k := range keys {
		if c, ok := h.writeCache[k]; ok {
			d := dst[dstOff[k] : dstOff[k]+len(c)]
			for i, x := range c {
				d[i] += x
			}
		}
	}
}

// PullIfLocal implements kv.KV: succeeds only if every key has a fresh
// replica (no network).
func (h *handle) PullIfLocal(keys []kv.Key, dst []float32) (bool, error) {
	if want := kv.BufferLen(h.sys.layout, keys); len(dst) != want {
		return false, fmt.Errorf("ssp: pull buffer has %d values, want %d", len(dst), want)
	}
	required := h.clock - int32(h.sys.cfg.Staleness)
	if required < 0 {
		required = 0
	}
	off := 0
	for _, k := range keys {
		l := h.sys.layout.Len(k)
		if !h.readReplica(k, required, dst[off:off+l]) {
			return false, nil
		}
		off += l
	}
	dstOff := make(map[kv.Key]int, len(keys))
	o := 0
	for _, k := range keys {
		dstOff[k] = o
		o += h.sys.layout.Len(k)
	}
	h.addOwnWrites(keys, dst, dstOff)
	return true, nil
}

// RouteKey implements server.Router for the clock flush: flushed updates
// always go to the key's server shard over the message path (even node-local
// shards use the loopback link, as in Petuum), so no key is served or queued
// locally.
func (h *handle) RouteKey(_ msg.OpType, _ *server.OpCtx, k kv.Key, _, _ []float32) server.KeyRoute {
	return server.KeyRoute{Dest: h.sys.part.NodeOf(k)}
}

// Clock implements kv.KV: flush the write cache to the servers, then advance
// this worker's clock at every server. Clock waits for the flush
// acknowledgements so a subsequent global-clock advance is guaranteed to
// include this worker's updates.
func (h *handle) Clock() {
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
			panic(fmt.Sprintf("ssp: flush failed: %v", err))
		}
		// Fold the flushed deltas into existing local replicas, as
		// Petuum's process cache does: the worker's own writes stay
		// visible locally even though the write buffer is now empty
		// (read-your-writes across clocks). Later genuine refreshes
		// overwrite these values with server state that already
		// includes the flushed updates, because the flush was
		// acknowledged before any subsequent fetch can be issued.
		h.nd.repMu.Lock()
		for k, c := range h.writeCache {
			if r, ok := h.nd.replicas[k]; ok {
				for i, x := range c {
					r.vals[i] += x
				}
			}
		}
		h.nd.repMu.Unlock()
		h.writeCache = make(map[kv.Key][]float32)
	}
	h.clock++
	for n := 0; n < h.sys.cl.Nodes(); n++ {
		m := &msg.SspClock{Worker: int32(h.WorkerID()), Clock: h.clock}
		h.nd.srv.Send(n, m)
	}
}

var (
	_ kv.KV         = (*handle)(nil)
	_ server.Router = (*handle)(nil)
)
