package server

import (
	"fmt"
	"unsafe"

	"lapse/internal/kv"
	"lapse/internal/metrics"
)

// Handle implements the variant-independent portion of a kv.KV client:
// identity, the cluster barrier, the outstanding-future tracking behind
// WaitAll, and the worker-side operation dispatch (DispatchOp) with its
// per-handle reusable scratch. Variants embed it and add their operation
// methods. Like any kv.KV handle, it is bound to one worker thread and must
// not be shared between goroutines — which is exactly what lets the dispatch
// scratch go lock-free.
type Handle struct {
	// A worker writes its handle on every operation (dispatch scratch, opSeq),
	// and the handles of co-located workers are often allocated back to back
	// in a size class that is no multiple of a cache line. The pads keep one
	// worker's writes off the lines another's handle lives on: without them
	// mf_blocking lost 15 % when the scratch shrank from 504 to 416 bytes.
	// The buffers the handle points to are kept apart by ownLines.
	_           [64]byte
	nd          *Node
	worker      int
	outstanding []*kv.Future
	ds          dispatchScratch
	// lat is this worker's private latency stripe (see Node.latFor); opSeq
	// drives the fast-path latency sampling in DispatchOp, one counter per
	// op kind so a workload alternating pushes and pulls in lockstep with
	// the sampling period cannot alias one kind out of the sample stream.
	lat   *metrics.OpLat
	opSeq [2]uint32
	_     [64]byte
}

// NewHandle returns a handle for the given worker bound to nd's node. The
// node must be hosted by this process: a handle issues Sends with the node
// as source, which only local nodes may do.
func NewHandle(nd *Node, worker int) Handle {
	if !nd.g.cl.Local(nd.node) {
		panic(fmt.Sprintf("server: handle for worker %d of non-local node %d", worker, nd.node))
	}
	return Handle{nd: nd, worker: worker, lat: nd.latFor(worker)}
}

// Lat returns the worker's operation-latency stripe. Variants record
// latencies of operations they build outside DispatchOp (e.g. Localize)
// into it; its histograms are merged into Group.Latencies snapshots.
func (h *Handle) Lat() *metrics.OpLat { return h.lat }

// NodeID implements kv.KV.
func (h *Handle) NodeID() int { return h.nd.node }

// WorkerID implements kv.KV.
func (h *Handle) WorkerID() int { return h.worker }

// Barrier implements kv.KV.
func (h *Handle) Barrier() { h.nd.g.cl.Barrier().Wait(h.nd.node) }

// Clock implements kv.KV as a no-op; the stale PS overrides it.
func (h *Handle) Clock() {}

// WaitAll implements kv.KV: it blocks until all tracked asynchronous
// operations completed and returns the first error.
func (h *Handle) WaitAll() error {
	var first error
	for _, f := range h.outstanding {
		if err := f.Wait(); err != nil && first == nil {
			first = err
		}
	}
	h.outstanding = h.outstanding[:0]
	return first
}

// Track registers an asynchronous operation with WaitAll. Already-completed
// futures are skipped, and the tracking list is compacted once it grows
// large so long-running fully-asynchronous workers don't accumulate it
// unboundedly. The list grows through ownLines, like the dispatch scratch.
func (h *Handle) Track(f *kv.Future) {
	if done, _ := f.TryWait(); done {
		return
	}
	if len(h.outstanding) == cap(h.outstanding) {
		grown := ownLines[*kv.Future](2*len(h.outstanding) + 1)
		h.outstanding = grown[:copy(grown, h.outstanding)]
	}
	h.outstanding = append(h.outstanding, f)
	if len(h.outstanding) > 4096 {
		kept := h.outstanding[:0]
		for _, f := range h.outstanding {
			if done, _ := f.TryWait(); !done {
				kept = append(kept, f)
			}
		}
		h.outstanding = kept
	}
}

// cacheLine is the line size the per-worker buffers are rounded up to.
const cacheLine = 64

// ownLines returns a slice of length n whose backing array fills whole cache
// lines, at least one: its capacity is rounded up to a multiple of 64 bytes.
// Every Go size class from 512 bytes up, and every smaller one the rounding
// can select, is a multiple of 64, and objects sit at multiples of their size
// class from a page boundary, so no other object shares the array's lines.
// A plain make of a few bytes is served from the allocator's 16-byte tiny
// blocks instead, which pack the buffers of workers created one after the
// other side by side — and every operation of each then writes the other's
// line. T's size must divide 64.
func ownLines[T any](n int) []T {
	per := cacheLine / int(unsafe.Sizeof(*new(T)))
	return make([]T, n, max(1, (n+per-1)/per)*per)
}
