package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/msg"
)

// nowFunc is stubbed in tests that exercise completion timing.
var nowFunc = time.Now

// Agg aggregates the parts of one worker operation into a single future. A
// multi-key operation whose keys span several server shards registers one
// pending slot per shard, and a localize one waiter per key on the key's
// relocation queue (internal/core); each holds a reference to the shared Agg
// and releases its keys as they complete. The Agg completes — at most once —
// when every key of every part is done AND the registration phase has been
// sealed, so a fast first shard cannot complete the future while later shards
// are still registering.
//
// The reference count starts at 1 (the seal token); Seal releases it. The
// future is embedded, which saves every operation that leaves the fast path
// an allocation; whoever holds the future keeps the whole aggregate alive.
type Agg struct {
	fut       kv.Future
	remaining atomic.Int64
	// timers are the elapsed-time recorders attached with Time: the
	// operation's end-to-end latency and, for a localize that sent a request,
	// the relocation time.
	timers [2]struct {
		h     *metrics.Histogram
		start time.Time
	}
}

// NewAgg returns an aggregate open for registration.
func NewAgg() *Agg {
	a := new(Agg)
	a.fut.Init()
	a.remaining.Store(1)
	return a
}

// Time attaches an elapsed-time recorder (at most two): when the aggregate
// completes, the time since start is observed on h. It must be called from the
// registering goroutine before Seal — the seal token's release orders the
// write for whichever goroutine completes the aggregate (atomic operations on
// `remaining` are the synchronization).
func (a *Agg) Time(h *metrics.Histogram, start time.Time) {
	t := &a.timers[0]
	if t.h != nil {
		t = &a.timers[1]
	}
	t.h, t.start = h, start
}

// Add accounts n more keys (or replies) to wait for. Like Time, it belongs to
// the registration phase.
func (a *Agg) Add(n int) { a.remaining.Add(int64(n)) }

// Finish accounts n completions and completes the future when none remain.
func (a *Agg) Finish(n int) {
	if a.remaining.Add(int64(-n)) > 0 {
		return
	}
	if a.timers[0].h != nil {
		now := nowFunc()
		for _, t := range a.timers {
			if t.h != nil {
				t.h.Observe(now.Sub(t.start))
			}
		}
	}
	a.fut.Complete(nil)
}

// Seal ends the registration phase and returns the aggregate's future. If
// every registered key already completed (or none were registered), the
// future completes here.
func (a *Agg) Seal() *kv.Future {
	a.Finish(1)
	return &a.fut
}

// Pending matches the responses of one server shard to the operations that
// wait for them: its keys' pulls and pushes (possibly split across several
// responders) and, in the stale PS, replica fetches — an operation part
// without a buffer, one reply counting as one key. Operation IDs are allocated
// from a node-wide counter, so an ID names exactly one slot in exactly one
// shard table — the shard that all of the operation part's keys belong to,
// which is also the shard whose inbox the matching responses arrive on.
type Pending struct {
	mu   sync.Mutex
	next *atomic.Uint64 // shared across the node's shards
	ops  map[uint64]*pendingOp
	// claims is CompleteResp's reusable claim list. CompleteResp only runs
	// on the owning shard's goroutine (responses demux to the shard that
	// registered the part), so the scratch needs no lock of its own.
	claims []*OpEntry
}

// OpEntry maps one key occurrence of a multi-key pull to the offset of its
// value region in the operation's destination buffer. Offsets are tracked
// per occurrence — not per key — so an operation that names the same key
// twice fills both regions (a key→offset map would silently collapse them
// onto the last occurrence).
type OpEntry struct {
	Key kv.Key
	Off int32
	// done marks the occurrence's region as filled by a response.
	done bool
}

type pendingOp struct {
	agg       *Agg
	remaining int
	dst       []float32
	// entries lists the pull's key occurrences of this shard in dispatch
	// order (nil for pushes). Occurrences that complete without a response
	// are claimed eagerly by offset (fast-path keys served after
	// registration, queue drains applied locally); responses claim the
	// remaining occurrences first-to-last per key. Claim marks are guarded
	// by the table mutex: responses claim on the shard goroutine, offset
	// claims come from workers.
	entries []OpEntry
	scan    int // first possibly-unclaimed entry
}

// claimLocked returns the first unclaimed occurrence of k, marking it
// claimed, or nil if every occurrence of k has been answered already. The
// table mutex must be held.
func (op *pendingOp) claimLocked(k kv.Key) *OpEntry {
	for i := op.scan; i < len(op.entries); i++ {
		e := &op.entries[i]
		if !e.done && e.Key == k {
			e.done = true
			op.advanceScan()
			return e
		}
	}
	return nil
}

// claimOffsetLocked marks the specific occurrence (k, off) claimed, so a
// later response for another occurrence of the same key cannot be
// misdirected onto its buffer region. The table mutex must be held.
func (op *pendingOp) claimOffsetLocked(k kv.Key, off int32) {
	for i := op.scan; i < len(op.entries); i++ {
		e := &op.entries[i]
		if !e.done && e.Key == k && e.Off == off {
			e.done = true
			op.advanceScan()
			return
		}
	}
}

func (op *pendingOp) advanceScan() {
	for op.scan < len(op.entries) && op.entries[op.scan].done {
		op.scan++
	}
}

// NewPending returns an empty pending-operation table with its own ID
// allocator (single-shard and test use; the runtime's tables share a
// node-wide allocator).
func NewPending() *Pending { return newPending(&atomic.Uint64{}) }

func newPending(next *atomic.Uint64) *Pending {
	return &Pending{next: next, ops: make(map[uint64]*pendingOp)}
}

// RegisterOpPart allocates a slot for the part of a pull/push whose nKeys
// keys belong to this shard, tied to the operation's aggregate. For pulls,
// dst and entries describe where each key occurrence's response values land
// (dst is shared read-only across parts; distinct occurrences fill distinct
// sub-slices). A part without a buffer only counts: the stale PS registers a
// replica fetch that way, nKeys the replies it expects.
func (p *Pending) RegisterOpPart(a *Agg, nKeys int, dst []float32, entries []OpEntry) uint64 {
	a.Add(nKeys)
	id := p.next.Add(1)
	p.mu.Lock()
	p.ops[id] = &pendingOp{agg: a, remaining: nKeys, dst: dst, entries: entries}
	p.mu.Unlock()
	return id
}

// RegisterOp allocates a single-part slot for a pull/push expecting nKeys
// key answers and returns its future directly.
func (p *Pending) RegisterOp(nKeys int, dst []float32, entries []OpEntry) (uint64, *kv.Future) {
	a := NewAgg()
	id := p.RegisterOpPart(a, nKeys, dst, entries)
	return id, a.Seal()
}

// CompleteResp applies a pull/push response, filling the destination buffer
// and completing the operation's future once all keys are answered.
func (p *Pending) CompleteResp(layout kv.Layout, m *msg.OpResp) {
	p.mu.Lock()
	op, ok := p.ops[m.ID]
	p.mu.Unlock()
	if !ok {
		panic(fmt.Sprintf("server: response for unknown op %d", m.ID))
	}
	// Fill the caller's buffer before accounting the keys as answered, so
	// the future can only complete after all copies finished. All of the
	// response's occurrences are claimed under one mutex acquisition
	// (workers claim served occurrences concurrently); the copies then run
	// unlocked — each occurrence's region has exactly one writer.
	if m.Type == msg.OpPull && op.dst != nil {
		claims := p.claims[:0]
		p.mu.Lock()
		for _, k := range m.Keys {
			e := op.claimLocked(k)
			if e == nil {
				p.mu.Unlock()
				panic(fmt.Sprintf("server: response for op %d answers key %d more often than requested", m.ID, k))
			}
			claims = append(claims, e)
		}
		p.mu.Unlock()
		p.claims = claims // keep grown capacity
		src := 0
		for i, k := range m.Keys {
			l := layout.Len(k)
			e := claims[i]
			copy(op.dst[e.Off:int(e.Off)+l], m.Vals[src:src+l])
			src += l
		}
	}
	p.FinishKeys(m.ID, len(m.Keys))
}

// ClaimOffset marks the pull occurrence (k, off) of operation id as
// completed without a response — a fast-path serve or a local queue-drain
// apply that happened after the part was registered — so response claims for
// other occurrences of the same key cannot be misdirected onto its buffer
// region. It must be called before the occurrence is accounted done through
// FinishKeys. No-op for pushes (no entries) and unknown ids.
func (p *Pending) ClaimOffset(id uint64, k kv.Key, off int32) {
	p.mu.Lock()
	if op, ok := p.ops[id]; ok {
		op.claimOffsetLocked(k, off)
	}
	p.mu.Unlock()
}

// FinishKeys accounts n keys of operation id as done, completing the
// operation's future when no keys of any part remain.
func (p *Pending) FinishKeys(id uint64, n int) {
	p.mu.Lock()
	op, ok := p.ops[id]
	if !ok {
		p.mu.Unlock()
		panic(fmt.Sprintf("server: completion for unknown op %d", id))
	}
	op.remaining -= n
	if op.remaining <= 0 {
		delete(p.ops, id)
	}
	p.mu.Unlock()
	op.agg.Finish(n)
}
