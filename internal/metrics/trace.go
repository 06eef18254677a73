package metrics

import (
	"sync"
	"time"

	"lapse/internal/kv"
)

// Trace event kinds. The control-plane trace is a decision ledger: every
// entry records *what* the cluster's management machinery did and *why*
// (classifier inputs ride along in Detail), so controller behaviour can be
// read as a story instead of reconstructed from counters.
const (
	// TraceRelocStart: a home node received a Localize and instructed the
	// current owner to transfer the key (From = owner, To = requester).
	TraceRelocStart = "reloc_start"
	// TraceRelocFinish: a relocated key arrived and its queue drained
	// (From = previous owner, To = this node).
	TraceRelocFinish = "reloc_finish"
	// TracePromote: the adaptive controller promoted a key to replication.
	TracePromote = "promote"
	// TraceDemote: the adaptive controller demoted a replicated key back to
	// single-owner state (To = the node the key settles on).
	TraceDemote = "demote"
	// TraceAdaptRelocate: the controller relocated a key to its dominant
	// origin (To = destination node).
	TraceAdaptRelocate = "adapt_relocate"
	// TraceQueueAdopt: a node entering replica state adopted the pending
	// relocation queue of an in-flight localize for the promoted key.
	TraceQueueAdopt = "queue_adopt"
	// TraceTransportFallback: a same-host peer link fell back from the
	// shared-memory ring transport to TCP at establishment time.
	TraceTransportFallback = "transport_fallback"
	// TraceReportSetAside: a classifier set an origin's report aside because
	// its window held too little evidence to judge any key (From = origin,
	// Key = the report's first key; Detail carries the evidence). Rate-limited
	// per origin.
	TraceReportSetAside = "report_set_aside"
)

// TraceEvent is one control-plane event. Node is the node that recorded the
// event; From/To name peer nodes where the event describes movement (-1 when
// not applicable), Key the affected parameter key (-1 when not key-scoped).
// Detail is free-form context (classifier shares, streaks, fallback reason).
type TraceEvent struct {
	Seq    uint64    `json:"seq"`
	Time   time.Time `json:"time"`
	Node   int       `json:"node"`
	Shard  int       `json:"shard"`
	Kind   string    `json:"kind"`
	Key    kv.Key    `json:"key"`
	From   int       `json:"from"`
	To     int       `json:"to"`
	Detail string    `json:"detail,omitempty"`
}

// TraceRing is a bounded, concurrency-safe ring buffer of control-plane
// events. When full, new events overwrite the oldest — the ring always holds
// the most recent Cap events. Control-plane events are rare (relocations,
// controller transitions) so a mutex is fine here; the data plane never
// touches the ring. A nil *TraceRing is a valid no-op sink, so call sites
// record unconditionally.
type TraceRing struct {
	mu  sync.Mutex
	buf []TraceEvent
	seq uint64 // total events ever added
}

// DefaultTraceCap is the ring capacity used when callers pass cap <= 0.
const DefaultTraceCap = 4096

// NewTraceRing returns a ring holding the most recent capacity events.
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &TraceRing{buf: make([]TraceEvent, 0, capacity)}
}

// Add records one event, stamping its sequence number and (if unset) its
// time. Safe from any goroutine; no-op on a nil ring.
func (r *TraceRing) Add(ev TraceEvent) {
	if r == nil {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	r.mu.Lock()
	ev.Seq = r.seq
	r.seq++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[ev.Seq%uint64(cap(r.buf))] = ev
	}
	r.mu.Unlock()
}

// Record is the convenience form of Add for key-scoped events.
func (r *TraceRing) Record(node, shard int, kind string, key kv.Key, from, to int, detail string) {
	r.Add(TraceEvent{Node: node, Shard: shard, Kind: kind, Key: key, From: from, To: to, Detail: detail})
}

// Events returns the buffered events, oldest first. The slice is a copy.
// Nil-safe (returns nil).
func (r *TraceRing) Events() []TraceEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceEvent, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	// Full ring: the oldest event sits right after the most recently
	// overwritten slot.
	start := int(r.seq % uint64(cap(r.buf)))
	out = append(out, r.buf[start:]...)
	return append(out, r.buf[:start]...)
}

// Len returns the number of buffered events (≤ Cap). Nil-safe.
func (r *TraceRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Total returns the number of events ever added, including overwritten ones.
// Nil-safe.
func (r *TraceRing) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}
