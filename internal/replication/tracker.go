package replication

import (
	"cmp"
	"slices"
	"sync"

	"lapse/internal/kv"
)

// DefaultSampleEvery is the default sampling rate of a Tracker: one in every
// DefaultSampleEvery fast-path key accesses is recorded.
const DefaultSampleEvery = 16

const (
	// WindowObservations is the evidence that closes a tracker window: once
	// this many observations were recorded since the last close (a sampled
	// fast-path access and an unsampled slow-path access are one recorded
	// observation each), Roll halves every count. The window is therefore a
	// fixed amount of evidence, not a fixed span of time: a worker capped by
	// network round trips and a worker on the shared-memory fast path both
	// judge their keys on the last four to eight thousand recorded accesses.
	WindowObservations = 4096
	// WindowMaxAge is how many consecutive Rolls without a single new
	// observation close a window regardless. A node whose traffic stopped
	// still forgets — its counts halve every WindowMaxAge idle Rolls until
	// they drop out — while one that merely slowed down keeps its window
	// open until the evidence is in.
	WindowMaxAge = 64
	// residueFloor is the decayed count below which a key is dropped.
	// Counts are fractional, so a key seen once per window converges to a
	// count of one instead of being rounded away on its first halving.
	residueFloor = 1.0 / 64
)

// Tracker is the access-frequency evidence of the adaptive controller
// (internal/adaptive), one per node, and exists only while the controller
// runs. Worker threads observe every key access through a per-worker Handle.
// Fast-path accesses are sampled: only every Nth takes the lock and adds N to
// the key's count, so the overhead on the operation fast path is one private
// increment. Slow-path accesses — each already costs a network round trip —
// are recorded unsampled under the same lock. Counts estimate total accesses
// either way.
//
// Roll turns the counters into an exponentially decayed window clocked by
// evidence (see WindowObservations); without Roll they are all-time totals.
type Tracker struct {
	every uint64
	mu    sync.Mutex
	count map[kv.Key]tally
	// evidence is the recorded observations the whole window holds, waiting
	// the access estimate of the keys whose accesses currently take the slow
	// path.
	evidence, waiting float64
	// fresh counts the observations recorded into the open window, rolled
	// its value when Roll last returned, idle the consecutive Rolls that saw
	// no new observation.
	fresh, rolled, idle int
	top                 []KeyCount // Window scratch
}

// tally is a decayed count in its two units: n estimates accesses (a sampled
// fast-path observation stands for `every` of them), seen counts the
// recorded observations behind that estimate — its statistical weight. slow
// is the path of the key's latest recorded observation.
type tally struct {
	n, seen float64
	slow    bool
}

// KeyCount is one key of a tracker window: its decayed access estimate and
// the recorded observations the estimate rests on.
type KeyCount struct {
	Key   kv.Key
	Count float32
	Seen  float32
}

// WindowSum describes a whole tracker window. Waiting is the access estimate
// of the keys the node currently reaches over the slow path — the traffic it
// waits for, and the denominator that says how much of that waiting one key
// accounts for. A key that became local (replicated, relocated here) leaves
// it with its first fast-path observation, so the keys still waited for
// stand out the more the fewer they are. Evidence is the recorded
// observations the window holds.
type WindowSum struct {
	Waiting  float32
	Evidence float32
	Floor    float32
}

// NewTracker returns a tracker sampling one in every `every` fast-path
// accesses (DefaultSampleEvery if every <= 0).
func NewTracker(every int) *Tracker {
	if every <= 0 {
		every = DefaultSampleEvery
	}
	return &Tracker{every: uint64(every), count: make(map[kv.Key]tally)}
}

// observeLocked adds seen recorded observations standing for n accesses of k
// over the given path to the open window. t.mu must be held.
func (t *Tracker) observeLocked(k kv.Key, n, seen float64, slow bool) {
	c := t.count[k]
	if c.slow != slow {
		// The key changed path: its whole count moves with it.
		if slow {
			t.waiting += c.n
		} else {
			t.waiting -= c.n
		}
		c.slow = slow
	}
	c.n, c.seen = c.n+n, c.seen+seen
	t.count[k] = c
	t.evidence += seen
	if slow {
		t.waiting += n
	}
	t.fresh += int(seen)
}

// Handle is a per-worker view of a Tracker: it samples with a plain private
// counter, so tracking adds no cross-core write to the operation fast path. A
// Handle must only be used by the single worker thread it was created for. A
// nil Handle — a nil Tracker's — observes nothing: a node without the
// controller gathers no evidence.
type Handle struct {
	t *Tracker
	n uint64
}

// Handle returns a new per-worker handle, nil for a nil tracker. The handle
// records its very first fast-path observation and every Nth after: its
// private counter restarts at zero on every handle (one per worker per Run
// phase), so a pure stride would make phases shorter than the sampling
// interval invisible to the tracker. The first-sample extrapolation error is
// bounded by one stride per handle lifetime.
func (t *Tracker) Handle() *Handle {
	if t == nil {
		return nil
	}
	return &Handle{t: t, n: t.every - 1}
}

// Observe records one fast-path access of k, subject to the tracker's
// sampling rate.
func (h *Handle) Observe(k kv.Key) {
	if h == nil {
		return
	}
	h.n++
	if h.n%h.t.every != 0 {
		return
	}
	h.t.record(k)
}

// record adds one sampled fast-path observation of k, standing for `every`
// accesses. Out of line, so Observe stays small enough to inline.
func (t *Tracker) record(k kv.Key) {
	t.mu.Lock()
	t.observeLocked(k, float64(t.every), 1, false)
	t.mu.Unlock()
}

// ObserveRemote records one slow-path access of k — one that is about to
// wait for the network or a relocation — unsampled, under the tracker's lock.
// A worker limited by round trips issues few accesses per unit of time, so
// each of them is kept; the cost is one lock acquisition and a map update
// next to a round trip.
func (h *Handle) ObserveRemote(k kv.Key) {
	if h == nil {
		return
	}
	h.t.mu.Lock()
	h.t.observeLocked(k, 1, 1, true)
	h.t.mu.Unlock()
}

// Roll advances the tracker's window by one controller tick: if the open
// window has gathered WindowObservations (or nothing at all for
// WindowMaxAge Rolls), it closes it by halving every count. It reports
// whether the window changed since the previous Roll — an idle tracker
// between closes does not.
func (t *Tracker) Roll() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	changed := t.fresh != t.rolled
	if changed {
		t.idle = 0
	} else {
		t.idle++
	}
	if t.fresh >= WindowObservations || t.idle >= WindowMaxAge {
		changed = changed || len(t.count) > 0
		t.evidence, t.waiting = 0, 0
		for k, c := range t.count {
			c.n, c.seen = c.n/2, c.seen/2
			if c.n < residueFloor {
				delete(t.count, k)
				continue
			}
			t.count[k] = c
			t.evidence += c.seen
			if c.slow {
				t.waiting += c.n
			}
		}
		t.fresh, t.idle = 0, 0
	}
	t.rolled = t.fresh
	return changed
}

// Window returns the keys of the current window whose access estimate is at
// least minCount and at least minShare of the node's waiting — at most topK
// of them, the hottest — together with the window's sums. Floor in the sums
// is the estimate below which a key may be missing from the slice: the
// larger of the two minimums, or the hottest key cut off by topK. The slice
// is the tracker's scratch: it is valid until the next Window call and
// unordered unless it had to be cut to topK.
func (t *Tracker) Window(topK int, minCount float32, minShare float64) ([]KeyCount, WindowSum) {
	t.mu.Lock()
	defer t.mu.Unlock()
	floor := max(float64(minCount), minShare*t.waiting)
	top := t.top[:0]
	for k, c := range t.count {
		if c.n >= floor {
			top = append(top, KeyCount{Key: k, Count: float32(c.n), Seen: float32(c.seen)})
		}
	}
	t.top = top
	if topK = max(topK, 0); len(top) > topK {
		slices.SortFunc(top, func(a, b KeyCount) int {
			if a.Count != b.Count {
				return cmp.Compare(b.Count, a.Count)
			}
			return cmp.Compare(a.Key, b.Key)
		})
		floor = float64(top[topK].Count)
		top = top[:topK]
	}
	return top, WindowSum{Waiting: float32(t.waiting), Evidence: float32(t.evidence), Floor: float32(floor)}
}
