package metrics

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry: durations are recorded in nanoseconds into
// log-scaled buckets with 16 sub-buckets per power of two, which bounds the
// relative quantile error at ~±3%. Values below 2^histExactBits ns get one
// exact bucket each; values at or above 2^histMaxExp ns share one overflow
// bucket (2^40 ns ≈ 18 minutes — far beyond any per-op latency here).
const (
	histExactBits = 5  // values < 2^5 = 32 ns are bucketed exactly
	histMaxExp    = 40 // values >= 2^40 ns land in the overflow bucket
	histSubBits   = 4  // 2^4 = 16 sub-buckets per octave
	histSub       = 1 << histSubBits
	histExact     = 1 << histExactBits

	// HistBuckets is the fixed bucket count of every Histogram/HistSnapshot:
	// the exact region, 16 sub-buckets for each octave in (2^5, 2^40), and
	// one overflow bucket.
	HistBuckets = histExact + (histMaxExp-histExactBits)*histSub + 1
)

// histBucket maps a non-negative nanosecond value to its bucket index.
func histBucket(ns int64) int {
	u := uint64(ns)
	if u < histExact {
		return int(u)
	}
	e := bits.Len64(u) // >= histExactBits+1
	if e > histMaxExp {
		return HistBuckets - 1
	}
	// The top bit selects the octave; the next histSubBits bits below it
	// select the sub-bucket.
	sub := int((u >> (uint(e) - 1 - histSubBits)) & (histSub - 1))
	return histExact + (e-histExactBits-1)*histSub + sub
}

// histBucketMid returns a representative (midpoint) nanosecond value for
// bucket b, used for quantile and mean reconstruction.
func histBucketMid(b int) int64 {
	if b < histExact {
		return int64(b)
	}
	i := b - histExact
	e := i/histSub + histExactBits + 1 // octave: values in [2^(e-1), 2^e)
	sub := int64(i % histSub)          // sub-bucket within the octave
	width := int64(1) << (uint(e) - 1 - histSubBits)
	lo := int64(1)<<(uint(e)-1) + sub*width
	if b == HistBuckets-1 {
		return lo // overflow bucket: report its lower bound
	}
	return lo + width/2
}

// Histogram is a lock-free log-bucket latency histogram. The zero value is
// ready to use, so it embeds directly in zero-value-constructed stats
// structs. Observe is a single atomic add (~2–5 ns uncontended) and never
// allocates; per-observation sums are reconstructed from bucket midpoints at
// snapshot time (±~3% relative error), which is what keeps the record path
// down to one atomic.
//
// Concurrent Observe calls are safe from any goroutine; for hot paths, give
// each worker its own Histogram stripe and merge the snapshots (see OpLat).
type Histogram struct {
	counts [HistBuckets]atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveN(d, 1) }

// ObserveN records a duration with weight n — used by sampled call sites
// that record 1-in-N observations with weight N to keep merged quantiles
// unbiased against always-recorded paths.
func (h *Histogram) ObserveN(d time.Duration, n uint64) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(ns)].Add(n)
}

// Snapshot returns a point-in-time copy of the histogram. Concurrent
// observes may or may not be included; the snapshot is internally consistent
// enough for monitoring (each bucket is read once, atomically).
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Reset zeroes all buckets. Not atomic with respect to concurrent observes
// (a racing observation may survive the reset); intended for quiescent
// stats resets like ServerStats.Reset.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
}

// HistSnapshot is an immutable bucket-count snapshot of a Histogram. It is
// plain data (exported array) so it serializes through encoding/json — bench
// child processes report windowed snapshots to the parent — and windows
// bucket-wise: Sub yields a snapshot of exactly the observations between two
// captures, from which quantiles, min, and max are all derived, so windowed
// views carry no whole-run ramp-up outliers.
type HistSnapshot struct {
	Counts [HistBuckets]uint64 `json:"counts"`
}

// Count returns the total (weighted) number of observations.
func (s HistSnapshot) Count() int64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return int64(n)
}

// Sum returns the approximate total of all observed durations, reconstructed
// from bucket midpoints.
func (s HistSnapshot) Sum() time.Duration {
	var sum int64
	for i, c := range s.Counts {
		if c != 0 {
			sum += int64(c) * histBucketMid(i)
		}
	}
	return time.Duration(sum)
}

// Mean returns the approximate mean observed duration.
func (s HistSnapshot) Mean() time.Duration {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(int64(s.Sum()) / n)
}

// Quantile returns the approximate q-quantile (0 ≤ q ≤ 1) of the observed
// durations: the midpoint of the bucket containing the q·count-th
// observation. Returns 0 when the snapshot is empty.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	n := s.Count()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(n-1))
	var seen uint64
	for i, c := range s.Counts {
		seen += c
		if c != 0 && seen > rank {
			return time.Duration(histBucketMid(i))
		}
	}
	return time.Duration(histBucketMid(HistBuckets - 1))
}

// Min returns the approximate smallest observation (midpoint of the lowest
// nonempty bucket), or 0 when empty.
func (s HistSnapshot) Min() time.Duration {
	for i, c := range s.Counts {
		if c != 0 {
			return time.Duration(histBucketMid(i))
		}
	}
	return 0
}

// Max returns the approximate largest observation (midpoint of the highest
// nonempty bucket), or 0 when empty.
func (s HistSnapshot) Max() time.Duration {
	for i := HistBuckets - 1; i >= 0; i-- {
		if s.Counts[i] != 0 {
			return time.Duration(histBucketMid(i))
		}
	}
	return 0
}

// Merge adds o's buckets into s.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
}

// Sub returns the observations recorded after base was captured, bucket by
// bucket. Buckets saturate at zero so a reset between captures cannot
// produce wrapped counts.
func (s HistSnapshot) Sub(base HistSnapshot) HistSnapshot {
	d := s
	for i := range d.Counts {
		if d.Counts[i] >= base.Counts[i] {
			d.Counts[i] -= base.Counts[i]
		} else {
			d.Counts[i] = 0
		}
	}
	return d
}

func (s HistSnapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		s.Count(), s.Mean(), s.Quantile(0.5), s.Quantile(0.99), s.Max())
}

// OpLat is one worker's latency stripe: end-to-end operation latencies split
// by operation and serving path. Fast-path buckets receive sampled
// observations (1-in-N with weight N, see server.DispatchOp); slow-path and
// localize buckets record every operation. The zero value is ready to use.
type OpLat struct {
	// PullFast/PushFast: operations whose keys were all served through the
	// shared-memory fast path (local store or replica).
	PullFast Histogram
	PushFast Histogram
	// PullSlow/PushSlow: operations that touched the network or a
	// relocation queue, measured dispatch-to-future-completion.
	PullSlow Histogram
	PushSlow Histogram
	// Localize: Localize/LocalizeAsync calls that had work to do.
	Localize Histogram
}

// Snapshot captures all five histograms.
func (l *OpLat) Snapshot() LatencySnapshot {
	return LatencySnapshot{
		PullFast: l.PullFast.Snapshot(),
		PushFast: l.PushFast.Snapshot(),
		PullSlow: l.PullSlow.Snapshot(),
		PushSlow: l.PushSlow.Snapshot(),
		Localize: l.Localize.Snapshot(),
	}
}

// LatencySnapshot is a point-in-time view of merged OpLat stripes. Plain
// data; serializes through encoding/json.
type LatencySnapshot struct {
	PullFast HistSnapshot `json:"pull_fast"`
	PushFast HistSnapshot `json:"push_fast"`
	PullSlow HistSnapshot `json:"pull_slow"`
	PushSlow HistSnapshot `json:"push_slow"`
	Localize HistSnapshot `json:"localize"`
}

// Merge adds o into s.
func (s *LatencySnapshot) Merge(o LatencySnapshot) {
	s.PullFast.Merge(o.PullFast)
	s.PushFast.Merge(o.PushFast)
	s.PullSlow.Merge(o.PullSlow)
	s.PushSlow.Merge(o.PushSlow)
	s.Localize.Merge(o.Localize)
}

// Pull returns the merged fast+slow pull distribution — the end-to-end pull
// latency an application worker sees, the p50/p99/p999 bench columns.
func (s LatencySnapshot) Pull() HistSnapshot {
	m := s.PullFast
	m.Merge(s.PullSlow)
	return m
}

// Push returns the merged fast+slow push distribution.
func (s LatencySnapshot) Push() HistSnapshot {
	m := s.PushFast
	m.Merge(s.PushSlow)
	return m
}
