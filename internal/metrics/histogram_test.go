package metrics

import (
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketRoundTrip(t *testing.T) {
	// Every bucket's midpoint must map back to that bucket, and a value's
	// bucket midpoint must be within the geometry's relative-error bound.
	for b := 0; b < HistBuckets; b++ {
		mid := histBucketMid(b)
		if got := histBucket(mid); got != b {
			t.Fatalf("bucket %d: mid %d maps to bucket %d", b, mid, got)
		}
	}
	prev := -1
	for v := int64(1); v < int64(1)<<42; v = v*11/10 + 1 {
		b := histBucket(v)
		if b < prev {
			t.Fatalf("bucket index not monotone at %d: %d < %d", v, b, prev)
		}
		prev = b
		if v < histExact || b == HistBuckets-1 {
			continue
		}
		mid := histBucketMid(b)
		rel := float64(mid-v) / float64(v)
		if rel < -0.04 || rel > 0.04 {
			t.Fatalf("value %d: bucket midpoint %d off by %.1f%%", v, mid, rel*100)
		}
	}
	if histBucket(0) != 0 || histBucket(-5) < 0 {
		t.Fatal("non-positive values must be bucketable")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 observations: 1µs ×900, 100µs ×90, 10ms ×10.
	for i := 0; i < 900; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count() != 1000 {
		t.Fatalf("count = %d", s.Count())
	}
	near(t, "p50", s.Quantile(0.5), time.Microsecond)
	near(t, "p95", s.Quantile(0.95), 100*time.Microsecond)
	near(t, "p999", s.Quantile(0.999), 10*time.Millisecond)
	near(t, "min", s.Min(), time.Microsecond)
	near(t, "max", s.Max(), 10*time.Millisecond)
	if s.Quantile(0) != s.Min() || s.Quantile(1) != s.Max() {
		t.Fatalf("q0/q1 = %v/%v, want min/max %v/%v", s.Quantile(0), s.Quantile(1), s.Min(), s.Max())
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count() != 0 || s.Mean() != 0 || s.Quantile(0.99) != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatalf("empty snapshot: %v", s.String())
	}
}

func TestHistogramObserveN(t *testing.T) {
	var h Histogram
	h.ObserveN(time.Microsecond, 8)
	h.Observe(time.Millisecond)
	s := h.Snapshot()
	if s.Count() != 9 {
		t.Fatalf("weighted count = %d", s.Count())
	}
	near(t, "weighted p50", s.Quantile(0.5), time.Microsecond)
}

func TestHistSnapshotSubSaturates(t *testing.T) {
	var a, b HistSnapshot
	a.Counts[3] = 5
	b.Counts[3] = 7 // base ahead of current (reset in between)
	b.Counts[9] = 1
	d := a.Sub(b)
	if d.Counts[3] != 0 || d.Counts[9] != 0 {
		t.Fatalf("sub did not saturate: %v", d.Counts[:16])
	}
}

func TestHistogramConcurrentObserveSnapshot(t *testing.T) {
	var h Histogram
	const workers, perWorker = 8, 5000
	var observers, snapshotter sync.WaitGroup
	stop := make(chan struct{})
	snapshotter.Add(1)
	go func() { // concurrent snapshotting while observers run
		defer snapshotter.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				_ = s.Quantile(0.99)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		observers.Add(1)
		go func(seed int64) {
			defer observers.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Duration(r.Int63n(int64(time.Millisecond))))
			}
		}(int64(w))
	}
	observers.Wait()
	close(stop)
	snapshotter.Wait()
	if got := h.Snapshot().Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
}

func TestHistogramObserveZeroAllocs(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(1234 * time.Nanosecond)
	}); n != 0 {
		t.Fatalf("Observe allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		h.ObserveN(5*time.Microsecond, 8)
	}); n != 0 {
		t.Fatalf("ObserveN allocates %v per op, want 0", n)
	}
}

// TestHistogramObserveFast pins the observe fast path's cost. The real
// budget is ~2–5 ns (one atomic add, see BenchmarkHistogramObserve); the
// gate is deliberately loose so shared CI runners don't flake, while still
// catching an accidental lock or allocation on the path.
func TestHistogramObserveFast(t *testing.T) {
	if raceEnabled {
		t.Skip("timing is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("timing gate skipped in -short")
	}
	var h Histogram
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Observe(time.Duration(i) * time.Nanosecond)
		}
	})
	nsOp := float64(res.T.Nanoseconds()) / float64(res.N)
	t.Logf("Observe: %.2f ns/op", nsOp)
	if nsOp > 50 {
		t.Fatalf("Observe = %.1f ns/op, want well under 50", nsOp)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * time.Nanosecond)
	}
}

func TestHistSnapshotJSONRoundTrip(t *testing.T) {
	var l OpLat
	l.PullFast.ObserveN(time.Microsecond, 8)
	l.PullSlow.Observe(time.Millisecond)
	l.Localize.Observe(2 * time.Millisecond)
	s := l.Snapshot()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back LatencySnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Pull().Count() != s.Pull().Count() {
		t.Fatalf("round-trip count = %d, want %d", back.Pull().Count(), s.Pull().Count())
	}
	if back.Localize.Quantile(0.5) != s.Localize.Quantile(0.5) {
		t.Fatal("round-trip quantile mismatch")
	}
}

func TestLatencySnapshotMergeSub(t *testing.T) {
	var a, b LatencySnapshot
	a.PullFast.Counts[10] = 4
	b.PullFast.Counts[10] = 1
	b.PushSlow.Counts[20] = 2
	a.Merge(b)
	if a.PullFast.Counts[10] != 5 || a.PushSlow.Counts[20] != 2 {
		t.Fatal("merge lost counts")
	}
	if d := a.PullFast.Sub(b.PullFast); d.Counts[10] != 4 {
		t.Fatal("sub wrong")
	}
	if p := a.Pull(); p.Count() != 5 {
		t.Fatalf("merged pull count = %d", p.Count())
	}
}
