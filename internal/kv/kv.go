// Package kv defines the core types shared by all parameter-server
// implementations in this repository: parameter keys, value layouts, the
// client-facing KV interface, and asynchronous operation futures.
//
// The interface mirrors Table 2 of the paper: pull and push (both cumulative),
// each available synchronously and asynchronously, plus the localize primitive
// added by Lapse. Implementations that do not support dynamic parameter
// allocation (the classic and stale parameter servers) return ErrUnsupported
// from Localize.
package kv

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Key identifies a single parameter (a fixed-length vector of float32).
type Key uint64

// ErrUnsupported is returned by primitives a parameter-server variant does not
// implement (e.g. Localize on a classic PS).
var ErrUnsupported = errors.New("kv: primitive not supported by this parameter server")

// KV is the client (worker-thread) view of a parameter server. A KV handle is
// bound to one worker thread and must not be shared between goroutines;
// the underlying server is shared.
type KV interface {
	// Pull retrieves the current values of keys into dst. dst must have
	// room for the concatenated values of all keys (in keys order).
	Pull(keys []Key, dst []float32) error
	// Push sends cumulative updates for keys. vals holds the concatenated
	// update terms in keys order; the server adds them to the current values.
	Push(keys []Key, vals []float32) error
	// PullAsync is Pull without waiting. dst must stay valid until the
	// returned future completes. It keeps no reference to keys, which the
	// caller may reuse once it returns.
	PullAsync(keys []Key, dst []float32) *Future
	// PushAsync is Push without waiting for the server acknowledgement.
	// vals must stay unmodified until the returned future completes: a push
	// that waits behind a relocation is queued with the caller's slice. It
	// keeps no reference to keys, which the caller may reuse once it returns.
	PushAsync(keys []Key, vals []float32) *Future
	// Localize requests relocation of keys to the caller's node and waits
	// until the keys are local (Lapse only).
	Localize(keys []Key) error
	// LocalizeAsync requests relocation without waiting. It keeps no
	// reference to keys, which the caller may reuse once it returns.
	LocalizeAsync(keys []Key) *Future
	// PullIfLocal retrieves values only if every key is currently allocated
	// at the caller's node; it returns false without network communication
	// otherwise. Used by latency-hiding applications (Appendix A).
	PullIfLocal(keys []Key, dst []float32) (bool, error)
	// WaitAll blocks until all of this handle's outstanding asynchronous
	// operations have completed and returns the first error, if any.
	WaitAll() error
	// Barrier blocks until every worker thread in the cluster reaches it.
	Barrier()
	// Clock advances this worker's clock (stale PSs only; no-op elsewhere).
	Clock()
	// NodeID returns the cluster node this handle is bound to.
	NodeID() int
	// WorkerID returns the global worker index of this handle.
	WorkerID() int
}

// Future tracks one asynchronous operation. A future completes exactly once.
//
// Completion is published twice: Complete stores the error, then sets an
// atomic flag, then closes the channel. Wait and TryWait load the flag first,
// so a future that is already complete — the shared CompletedFuture(nil) of
// every all-local operation, above all — costs them one atomic load and takes
// no lock: workers checking completed futures share nothing but a read-only
// line. Only a Wait that finds the flag unset blocks on the channel, which
// also stays for Done, so select loops keep working.
//
// A Future may be embedded by value in a longer-lived struct (server.Agg
// does, saving an allocation per operation); such a future must be prepared
// with Init before use and must not be copied afterwards.
type Future struct {
	done  chan struct{}
	fired atomic.Bool // set by Complete after err, before done closes
	err   error
}

// NewFuture returns an incomplete future.
func NewFuture() *Future {
	f := new(Future)
	f.Init()
	return f
}

// Init prepares an embedded zero Future as an incomplete future.
func (f *Future) Init() { f.done = make(chan struct{}) }

// completedNil is the shared already-successful future. A completed future
// is immutable (Complete may not be called again), so every error-free
// CompletedFuture call can return this one instance — which keeps fully
// local operations allocation-free.
var completedNil = func() *Future {
	f := NewFuture()
	f.Complete(nil)
	return f
}()

// CompletedFuture returns a future that is already complete with err.
func CompletedFuture(err error) *Future {
	if err == nil {
		return completedNil
	}
	f := NewFuture()
	f.Complete(err)
	return f
}

// Complete marks the future done with the given error. It must be called at
// most once.
func (f *Future) Complete(err error) {
	f.err = err
	f.fired.Store(true)
	close(f.done)
}

// Wait blocks until the operation completes and returns its error.
func (f *Future) Wait() error {
	if !f.fired.Load() {
		<-f.done
	}
	return f.err
}

// TryWait reports whether the operation has completed, without blocking. The
// flag is set before the channel closes, so an unset flag is the whole answer:
// a Complete racing with the load may be reported on the next call.
func (f *Future) TryWait() (bool, error) {
	if !f.fired.Load() {
		return false, nil
	}
	return true, f.err
}

// Done exposes the completion channel for select loops.
func (f *Future) Done() <-chan struct{} { return f.done }

// Layout describes the value length of each key and the packed offsets used
// by dense stores and by multi-key operation buffers.
type Layout interface {
	// NumKeys returns the number of keys; valid keys are [0, NumKeys).
	NumKeys() Key
	// Len returns the number of float32 values of key k.
	Len(k Key) int
	// Offset returns the index of k's first value in a packed array that
	// concatenates all keys' values in key order.
	Offset(k Key) int64
	// TotalLen returns the total number of float32 values across all keys.
	TotalLen() int64
}

// UniformLayout is a Layout in which every key has the same value length.
type UniformLayout struct {
	Keys   Key
	ValLen int
}

// NewUniformLayout returns a layout with keys keys of length valLen each.
func NewUniformLayout(keys Key, valLen int) UniformLayout {
	if valLen <= 0 {
		panic("kv: value length must be positive")
	}
	return UniformLayout{Keys: keys, ValLen: valLen}
}

// NumKeys implements Layout.
func (l UniformLayout) NumKeys() Key { return l.Keys }

// Len implements Layout.
func (l UniformLayout) Len(Key) int { return l.ValLen }

// Offset implements Layout.
func (l UniformLayout) Offset(k Key) int64 { return int64(k) * int64(l.ValLen) }

// TotalLen implements Layout.
func (l UniformLayout) TotalLen() int64 { return int64(l.Keys) * int64(l.ValLen) }

// RangeLayout is a Layout composed of consecutive key ranges, each with its
// own uniform value length. It supports heterogeneous models such as RESCAL,
// where entity embeddings have length d and relation embeddings length d².
type RangeLayout struct {
	bounds  []Key // bounds[i] = first key of range i; bounds[len-1] = NumKeys
	lens    []int
	offsets []int64 // packed offset of bounds[i]
}

// NewRangeLayout builds a RangeLayout from range sizes and value lengths.
// counts[i] keys of length lens[i] each, ranges laid out consecutively.
func NewRangeLayout(counts []Key, lens []int) *RangeLayout {
	if len(counts) != len(lens) || len(counts) == 0 {
		panic("kv: counts and lens must be non-empty and equal length")
	}
	l := &RangeLayout{
		bounds:  make([]Key, len(counts)+1),
		lens:    append([]int(nil), lens...),
		offsets: make([]int64, len(counts)+1),
	}
	for i, c := range counts {
		if lens[i] <= 0 {
			panic("kv: value length must be positive")
		}
		l.bounds[i+1] = l.bounds[i] + c
		l.offsets[i+1] = l.offsets[i] + int64(c)*int64(lens[i])
	}
	return l
}

func (l *RangeLayout) rangeOf(k Key) int {
	lo, hi := 0, len(l.lens)
	for lo < hi {
		mid := (lo + hi) / 2
		if k >= l.bounds[mid+1] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(l.lens) {
		panic(fmt.Sprintf("kv: key %d out of range (num keys %d)", k, l.NumKeys()))
	}
	return lo
}

// NumKeys implements Layout.
func (l *RangeLayout) NumKeys() Key { return l.bounds[len(l.bounds)-1] }

// Len implements Layout.
func (l *RangeLayout) Len(k Key) int { return l.lens[l.rangeOf(k)] }

// Offset implements Layout.
func (l *RangeLayout) Offset(k Key) int64 {
	r := l.rangeOf(k)
	return l.offsets[r] + int64(k-l.bounds[r])*int64(l.lens[r])
}

// TotalLen implements Layout.
func (l *RangeLayout) TotalLen() int64 { return l.offsets[len(l.offsets)-1] }

// BufferLen returns the total value length of keys under layout, i.e. the
// required dst/vals length for a multi-key pull or push.
func BufferLen(layout Layout, keys []Key) int {
	n := 0
	for _, k := range keys {
		n += layout.Len(k)
	}
	return n
}

// Fits reports whether n values are exactly what keys hold under layout, and
// every key is one the layout knows: the check a handler makes before
// slicing a wire message's values by key.
func Fits(layout Layout, keys []Key, n int) bool {
	for _, k := range keys {
		if k >= layout.NumKeys() {
			return false
		}
		n -= layout.Len(k)
	}
	return n == 0
}

// Grow extends s by n elements, reallocating (with capacity doubling) only
// when capacity is short, and returns the extended slice. The new elements
// are reservation space the caller must overwrite — the scratch-buffer
// growth primitive of the allocation-free message path.
func Grow[T any](s []T, n int) []T {
	if need := len(s) + n; need > cap(s) {
		next := make([]T, len(s), max(need, 2*cap(s), 64))
		copy(next, s)
		s = next
	}
	return s[:len(s)+n]
}
