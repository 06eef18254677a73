// Package store provides the local parameter store used by all
// parameter-server variants: a dense array over the whole key space that
// guarantees per-key atomic reads and writes via a striped list of latches
// (locks held only for the duration of one operation), exactly as Section
// 3.7 of the paper describes. Node-local copies of remote keys (leases and
// replicas) live in internal/replication's copy table instead.
package store

import (
	"fmt"
	"math/bits"
	"sync"

	"lapse/internal/kv"
)

// DefaultLatches is the default number of latches in a store's latch list.
// The paper reports that 1000 worked well in its experiments.
const DefaultLatches = 1000

// latchList is a fixed pool of mutexes with a one-to-many mapping from
// latches to keys. Keys map to latches by Fibonacci-multiply hashing rather
// than a plain modulo: workloads overwhelmingly touch *contiguous* key
// blocks (range-partitioned shards, embedding rows), and under modulo those
// adjacent keys land on adjacent mutexes — eight of which share one cache
// line, so independent per-key latches still ping-pong the same line
// between cores (false sharing). Multiplying by the 64-bit golden-ratio
// constant first scatters adjacent keys across the whole pool
// (BenchmarkLatchAdjacentKeysContendedAdd quantifies the win). The pool
// size is rounded up to a power of two so the hash reduces with a shift.
type latchList struct {
	latches []sync.Mutex
	shift   uint
}

// fibMult is 2^64 / φ, the Fibonacci-hashing multiplier.
const fibMult = 0x9E3779B97F4A7C15

func newLatchList(n int) *latchList {
	if n <= 0 {
		n = DefaultLatches
	}
	// Round up to a power of two (DefaultLatches 1000 -> 1024).
	size := 1
	for size < n {
		size <<= 1
	}
	return &latchList{latches: make([]sync.Mutex, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

func (l *latchList) lock(k kv.Key) *sync.Mutex {
	m := &l.latches[(uint64(k)*fibMult)>>l.shift]
	m.Lock()
	return m
}

// Dense is a node-local parameter store backed by one contiguous float32
// array covering the whole key space of its layout, plus a presence bitmap
// (the paper: "using dense storage"). It is safe for concurrent use by worker
// threads and the server thread.
type Dense struct {
	layout  kv.Layout
	vals    []float32
	present []bool
	latches *latchList
}

// NewDense returns an empty dense store for layout with nLatches latches
// (DefaultLatches if nLatches <= 0).
func NewDense(layout kv.Layout, nLatches int) *Dense {
	return &Dense{
		layout:  layout,
		vals:    make([]float32, layout.TotalLen()),
		present: make([]bool, layout.NumKeys()),
		latches: newLatchList(nLatches),
	}
}

// Read copies the current value of k into dst and reports whether the key is
// present. dst must have k's layout length. If the key is absent, dst is
// untouched and Read returns false.
func (d *Dense) Read(k kv.Key, dst []float32) bool {
	l := d.latches.lock(k)
	defer l.Unlock()
	if !d.present[k] {
		return false
	}
	off := d.layout.Offset(k)
	copy(dst, d.vals[off:off+int64(d.layout.Len(k))])
	return true
}

// Add atomically adds delta to the value of k and reports whether the key is
// present. Absent keys are not created.
func (d *Dense) Add(k kv.Key, delta []float32) bool {
	l := d.latches.lock(k)
	defer l.Unlock()
	if !d.present[k] {
		return false
	}
	off := d.layout.Offset(k)
	v := d.vals[off : off+int64(d.layout.Len(k))]
	if len(delta) != len(v) {
		panic(fmt.Sprintf("store: Add length mismatch for key %d: %d != %d", k, len(delta), len(v)))
	}
	for i, x := range delta {
		v[i] += x
	}
	return true
}

// Set inserts or replaces the value of k.
func (d *Dense) Set(k kv.Key, vals []float32) {
	l := d.latches.lock(k)
	defer l.Unlock()
	off := d.layout.Offset(k)
	v := d.vals[off : off+int64(d.layout.Len(k))]
	if len(vals) != len(v) {
		panic(fmt.Sprintf("store: Set length mismatch for key %d: %d != %d", k, len(vals), len(v)))
	}
	copy(v, vals)
	d.present[k] = true
}

// Take removes k from the store and returns its value, or nil if the key is
// absent. Used by the relocation protocol ("remove the parameter from its
// local storage and transfer it").
func (d *Dense) Take(k kv.Key) []float32 {
	l := d.latches.lock(k)
	defer l.Unlock()
	if !d.present[k] {
		return nil
	}
	off := d.layout.Offset(k)
	v := d.vals[off : off+int64(d.layout.Len(k))]
	out := make([]float32, len(v))
	copy(out, v)
	for i := range v {
		v[i] = 0
	}
	d.present[k] = false
	return out
}
