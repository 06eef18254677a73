package msg

import (
	"math"
	"sync"
	"sync/atomic"

	"lapse/internal/kv"
)

// Buffer and scratch pooling for the allocation-free message path.
//
// Ownership protocol (see DESIGN.md "Allocation-free message path"):
//
//   - Encode buffers: a sender takes a buffer with GetBuf, fills it via
//     AppendTo, and returns it with PutBuf once the encoded bytes are no
//     longer referenced — after the transport copied or wrote them. Nothing
//     downstream may retain a view into a released buffer.
//   - Decode scratch: a receiver takes a Scratch with GetScratch and decodes
//     into it; the decoded message and its Keys/Vals are views into the
//     scratch and stay valid until Release. The consumer that finishes
//     processing the message calls Release; a consumer that must retain data
//     past that point copies it first (or simply never releases the scratch,
//     which degrades to the old allocate-per-message behaviour).
//
// Poison mode (SetPoison, tests only) overwrites released buffers and
// scratch arenas with recognizable junk, so any use-after-release surfaces
// as PoisonKey/PoisonVal values instead of silent corruption.

// poisonEnabled gates poison-on-release (a test/debug mode; the release
// paths are branch-free on the hot path when disabled).
var poisonEnabled atomic.Bool

// SetPoison toggles poison-on-release for encode buffers and decode
// scratch. Enable it in tests that hunt retention bugs: any decoded value
// observed as PoisonVal (or key observed as PoisonKey) after a release is a
// use-after-release.
func SetPoison(enabled bool) { poisonEnabled.Store(enabled) }

// Poison patterns written by PutBuf/Release in poison mode. Every poisoned
// byte is 0xDB, so the patterns are visible at any alignment.
const (
	poisonByte = 0xDB
	// PoisonKey is the key value a poisoned scratch arena reads back as.
	PoisonKey = kv.Key(0xDBDBDBDBDBDBDBDB)
)

// PoisonVal is the float32 a poisoned buffer or value arena reads back as.
var PoisonVal = math.Float32frombits(0xDBDBDBDB)

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// GetBuf returns a pooled encode buffer with length zero. Append the
// encoding with AppendTo(*bp, m) (storing the result back through the
// pointer keeps the grown capacity), and release it with PutBuf when the
// bytes are no longer referenced.
func GetBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuf resets and returns an encode buffer to the pool. In poison mode the
// buffer's whole capacity is overwritten first, so a reader that kept a view
// into it observes poison instead of the next message's bytes.
func PutBuf(bp *[]byte) {
	b := (*bp)[:cap(*bp)]
	if poisonEnabled.Load() {
		for i := range b {
			b[i] = poisonByte
		}
	}
	*bp = b[:0]
	bufPool.Put(bp)
}

// Scratch is a reusable decode arena: one message struct per wire kind plus
// shared Keys/Vals backing. Scratch.Decode returns a message whose struct
// and slices are views into the arena; they remain valid until Release. A
// Scratch serves one decoded message at a time.
type Scratch struct {
	op         Op
	opResp     OpResp
	localize   Localize
	instruct   RelocInstruct
	transfer   RelocTransfer
	sspClock   SspClock
	sspSync    SspSync
	barrier    Barrier
	block      Block
	repSync    ReplicaSync
	repRefresh ReplicaRefresh
	manage     Manage

	keys []kv.Key
	vals []float32
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a pooled decode arena.
func GetScratch() *Scratch {
	return scratchPool.Get().(*Scratch)
}

// Decode parses one encoded message into the scratch arena. It has exactly
// the semantics of Decode except that the returned message, its Keys, and
// its Vals are owned by the scratch and are overwritten by the next Decode
// (and poisoned by Release in poison mode).
func (s *Scratch) Decode(buf []byte) (any, int, error) {
	return decodeMsg(buf, s)
}

// Release returns the scratch to the pool. The message last decoded into it
// — and its Keys/Vals — must no longer be referenced. In poison mode the
// arena is overwritten first so retained views read back PoisonKey /
// PoisonVal.
func (s *Scratch) Release() {
	if poisonEnabled.Load() {
		keys := s.keys[:cap(s.keys)]
		for i := range keys {
			keys[i] = PoisonKey
		}
		vals := s.vals[:cap(s.vals)]
		for i := range vals {
			vals[i] = PoisonVal
		}
		// Zero the message structs too, keeping the arenas, so a retained
		// struct pointer cannot quietly resurrect old field values.
		*s = Scratch{keys: s.keys, vals: s.vals}
	}
	scratchPool.Put(s)
}
