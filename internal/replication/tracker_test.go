package replication

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"testing"

	"lapse/internal/kv"
)

// hot returns the tracker's n hottest keys, hottest first.
func hot(tr *Tracker, n int) []KeyCount {
	top, _ := tr.Window(n, 0, 0)
	slices.SortFunc(top, func(a, b KeyCount) int { return cmp.Compare(b.Count, a.Count) })
	return top
}

func TestTrackerRanksHotKeys(t *testing.T) {
	tr := NewTracker(1) // sample every access for determinism
	h := tr.Handle()
	for i := 0; i < 100; i++ {
		h.Observe(kv.Key(7))
	}
	for i := 0; i < 50; i++ {
		h.Observe(kv.Key(3))
	}
	h.Observe(kv.Key(9))
	top := hot(tr, 2)
	if len(top) != 2 || top[0].Key != 7 || top[1].Key != 3 {
		t.Fatalf("hottest 2 = %v, want keys 7 then 3", top)
	}
	if top[0].Count != 100 || top[1].Count != 50 {
		t.Fatalf("hottest 2 counts = %v, want 100 and 50", top)
	}
}

// TestTrackerSamplingExtrapolates: a sampled observation stands for a whole
// stride of accesses, so a handle's estimate is exact on whole strides. A
// handle records its first access, so phases shorter than the stride stay
// visible, each over-counted by less than one stride.
func TestTrackerSamplingExtrapolates(t *testing.T) {
	tr := NewTracker(4)
	h := tr.Handle()
	for i := 0; i < 400; i++ {
		h.Observe(kv.Key(1))
	}
	for phase := 0; phase < 10; phase++ {
		tr.Handle().Observe(kv.Key(2)) // one access per handle
	}
	top := hot(tr, 1)
	if len(top) != 1 || top[0].Key != 1 || top[0].Count != 400 || top[0].Seen != 100 {
		t.Fatalf("hottest = %v, want key 1: 400 accesses on 100 observations", top)
	}
	if top := hot(tr, 2); len(top) != 2 || top[1].Key != 2 || top[1].Count != 40 {
		t.Fatalf("hottest 2 = %v, want key 2 second: 10 one-access phases, 4 each", top)
	}
}

// TestTrackerHandleSamples: a handle samples on its private counter, and a
// nil tracker — a node without the adaptive controller — hands out nil
// handles that observe nothing.
func TestTrackerHandleSamples(t *testing.T) {
	tr := NewTracker(4)
	h := tr.Handle()
	for i := 0; i < 400; i++ {
		h.Observe(kv.Key(2))
	}
	if top := hot(tr, 1); len(top) != 1 || top[0].Key != 2 || top[0].Count != 400 {
		t.Fatalf("hottest via handle = %v, want key 2 count 400", top)
	}
	var none *Tracker
	nh := none.Handle()
	if nh != nil {
		t.Fatalf("nil tracker handed out handle %p", nh)
	}
	nh.Observe(kv.Key(2))
	nh.ObserveRemote(kv.Key(2))
}

// closeWindow rolls a tracker that was just observed, and is idle from here
// on, until its window closes by age.
func closeWindow(tr *Tracker) {
	for i := 0; i <= WindowMaxAge; i++ {
		tr.Roll()
	}
}

func TestTrackerWindowAgesOutFormerlyHotKeys(t *testing.T) {
	tr := NewTracker(1)
	h := tr.Handle()
	for i := 0; i < 64; i++ {
		h.Observe(kv.Key(7)) // hot in the first phase
	}
	// The workload phase changes: key 7 goes cold, key 3 heats up. 64 halves
	// below the residue floor within 16 windows, so key 7 must be gone
	// entirely.
	for window := 0; window < 16; window++ {
		closeWindow(tr)
		for i := 0; i < 64; i++ {
			h.Observe(kv.Key(3))
		}
	}
	if top := hot(tr, 2); len(top) != 1 || top[0].Key != 3 {
		t.Fatalf("window after phase change = %v, want key 3 alone", top)
	}
}

// TestTrackerKeepsSubUnitResidue pins the decay arithmetic: a key seen once
// per window must accumulate — 1, 1.5, 1.75, … → 2 before each close — and
// not be rounded to zero and dropped by its first halving, which made any
// key slower than one sample per window invisible however long it ran.
func TestTrackerKeepsSubUnitResidue(t *testing.T) {
	tr := NewTracker(1)
	h := tr.Handle()
	const windows = 20
	for w := 0; w < windows; w++ {
		h.Observe(kv.Key(5))
		closeWindow(tr)
	}
	top, sum := tr.Window(8, 0, 0)
	if len(top) != 1 || top[0].Key != 5 {
		t.Fatalf("window after %d single-observation windows = %v, want key 5 alone", windows, top)
	}
	// After each close the count is (previous+1)/2, converging to 1.
	if got := top[0].Count; got < 0.999 || got > 1 {
		t.Fatalf("decayed count = %v, want → 1", got)
	}
	if top[0].Seen != top[0].Count || sum.Evidence != top[0].Count {
		t.Fatalf("unsampled tracker: seen %v and window evidence %v must equal the count %v", top[0].Seen, sum.Evidence, top[0].Count)
	}
}

// TestTrackerWindowClosesOnEvidence: the window halves once
// WindowObservations were recorded, however many Rolls that took — an open
// window with a trickle of traffic is not closed by time.
func TestTrackerWindowClosesOnEvidence(t *testing.T) {
	total := func(tr *Tracker) float32 {
		_, sum := tr.Window(1, 0, 0)
		return sum.Evidence
	}
	const trickle = 8 // observations per Roll, far more Rolls than WindowMaxAge
	tr := NewTracker(1)
	h := tr.Handle()
	for roll := 1; roll <= WindowObservations/trickle; roll++ {
		for i := 0; i < trickle; i++ {
			h.ObserveRemote(kv.Key(i))
		}
		if !tr.Roll() {
			t.Fatalf("roll %d: Roll reported no change", roll)
		}
		want := float32(roll * trickle)
		if roll == WindowObservations/trickle {
			want /= 2 // this roll brought the evidence in
		}
		if got := total(tr); got != want {
			t.Fatalf("roll %d: window holds %v observations, want %v", roll, got, want)
		}
	}
	// A burst beyond a whole window in one Roll still closes only once: the
	// window never shrinks below one tick of traffic.
	burst := NewTracker(1)
	bh := burst.Handle()
	for i := 0; i < 3*WindowObservations; i++ {
		bh.Observe(kv.Key(i % 9))
	}
	burst.Roll()
	if got := total(burst); got != 3*WindowObservations/2 {
		t.Fatalf("burst: window holds %v observations, want %v", got, 3*WindowObservations/2)
	}
}

// TestTrackerSlowPathUnsampled: slow-path observations are all kept, fast-
// path ones sampled, and both estimate accesses; Seen tells them apart, and
// Waiting covers the keys currently reached over the slow path only.
func TestTrackerSlowPathUnsampled(t *testing.T) {
	tr := NewTracker(16)
	h := tr.Handle()
	for i := 0; i < 160; i++ {
		h.Observe(kv.Key(1))
	}
	for i := 0; i < 5; i++ {
		h.ObserveRemote(kv.Key(2))
	}
	for i := 0; i < 40; i++ {
		h.ObserveRemote(kv.Key(3))
	}
	if tr.Roll() != true || tr.Roll() != false {
		t.Fatal("Roll must report the new observations once, then no change")
	}
	window := func(topK int, minCount float32, minShare float64) (map[kv.Key]KeyCount, WindowSum) {
		top, sum := tr.Window(topK, minCount, minShare)
		got := map[kv.Key]KeyCount{}
		for _, f := range top {
			got[f.Key] = f
		}
		return got, sum
	}
	got, sum := window(8, 0, 0)
	if f := got[1]; f.Count != 160 || f.Seen != 10 {
		t.Fatalf("fast-path key: %+v, want 160 accesses on 10 observations", f)
	}
	if f := got[2]; f.Count != 5 || f.Seen != 5 {
		t.Fatalf("slow-path key: %+v, want 5 accesses on 5 observations", f)
	}
	if sum != (WindowSum{Waiting: 45, Evidence: 55}) {
		t.Fatalf("window sums %+v, want 45 accesses waited for, 55 observations, nothing left out", sum)
	}
	// The minimums select on the access estimate and its share of the
	// waiting; topK keeps the hottest. Floor says what may be missing.
	if got, sum := window(8, 6, 0); len(got) != 2 || got[2].Count != 0 || sum.Floor != 6 {
		t.Fatalf("Window(minCount 6) = %v floor %v, want keys 1 and 3, floor 6", got, sum.Floor)
	}
	if got, sum := window(8, 0, 0.5); len(got) != 2 || got[2].Count != 0 || sum.Floor != 22.5 {
		t.Fatalf("Window(minShare 0.5) = %v floor %v, want keys 1 and 3, floor 22.5", got, sum.Floor)
	}
	if got, sum := window(1, 0, 0); len(got) != 1 || got[1].Count != 160 || sum.Floor != 40 {
		t.Fatalf("Window(topK 1) = %v floor %v, want key 1 only, floor 40 (the hottest key cut)", got, sum.Floor)
	}
	// Key 3 becomes local (replicated, say): with its first fast-path
	// observation its whole count leaves the waiting. The handle's counter
	// stands at 160 + 15, so the first of these 16 is the one sampled.
	for i := 0; i < 16; i++ {
		h.Observe(kv.Key(3))
	}
	tr.Roll()
	if got, sum := window(8, 0, 0); got[3].Count != 56 || got[3].Seen != 41 || sum.Waiting != 5 {
		t.Fatalf("key 3 after going local: %+v, waiting %v; want 56 accesses on 41 observations, waiting 5", got[3], sum.Waiting)
	}
	// And back: one slow-path observation returns it.
	h.ObserveRemote(kv.Key(3))
	tr.Roll()
	if _, sum := window(8, 0, 0); sum.Waiting != 62 {
		t.Fatalf("waiting after key 3 went remote again = %v, want 62", sum.Waiting)
	}
}

// TestTrackerHandlesConcurrentWithRoll drives fast- and slow-path
// observations from several workers while the controller rolls and reads the
// window.
func TestTrackerHandlesConcurrentWithRoll(t *testing.T) {
	tr := NewTracker(4)
	var wg sync.WaitGroup
	const workers, each = 4, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := tr.Handle()
			for i := 0; i < each; i++ {
				h.Observe(kv.Key(i % 7))
				h.ObserveRemote(kv.Key(i % 11))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		tr.Roll()
		tr.Window(4, 1, 0.01)
	}
}

// BenchmarkTrackerHandleObserveParallel measures the tracking cost on the
// fast path: each worker samples through its private Handle counter,
// contending only on the rare recorded sample.
func BenchmarkTrackerHandleObserveParallel(b *testing.B) {
	tr := NewTracker(0)
	var mu sync.Mutex
	handles := make(map[int]*Handle)
	var next int
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		h := tr.Handle()
		handles[next] = h
		next++
		mu.Unlock()
		k := kv.Key(0)
		for pb.Next() {
			h.Observe(k)
			k = (k + 1) % 1024
		}
	})
	runtime.KeepAlive(handles)
}
