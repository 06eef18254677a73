package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
			c.Add(5)
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8*1005 {
		t.Fatalf("counter = %d, want %d", got, 8*1005)
	}
	c.Reset()
	if c.Load() != 0 {
		t.Fatal("counter not reset")
	}
}

// near asserts got is within 5% of want (histogram buckets carry ~±3%
// relative error).
func near(t *testing.T, what string, got, want time.Duration) {
	t.Helper()
	lo := time.Duration(float64(want) * 0.95)
	hi := time.Duration(float64(want) * 1.05)
	if got < lo || got > hi {
		t.Fatalf("%s = %v, want ~%v", what, got, want)
	}
}

func TestSumTotals(t *testing.T) {
	a := &ServerStats{}
	b := &ServerStats{}
	a.LocalReads.Add(10)
	b.LocalReads.Add(5)
	a.RemoteReads.Add(2)
	a.Relocations.Add(7)
	a.RelocationTime.Observe(time.Millisecond)
	b.RelocationTime.Observe(3 * time.Millisecond)
	tot := Sum([]*ServerStats{a, b})
	if tot.LocalReads != 15 || tot.RemoteReads != 2 || tot.Relocations != 7 {
		t.Fatalf("totals = %+v", tot)
	}
	if tot.TotalReads() != 17 {
		t.Fatalf("TotalReads = %d", tot.TotalReads())
	}
	if tot.RelocationCalls() != 2 {
		t.Fatalf("RelocationCalls = %d", tot.RelocationCalls())
	}
	near(t, "mean RT", tot.MeanRelocationTime(), 2*time.Millisecond)
	near(t, "min RT", tot.RelocationTime.Min(), time.Millisecond)
	near(t, "max RT", tot.RelocationTime.Max(), 3*time.Millisecond)
}

func TestTotalsSinceWindowsHistograms(t *testing.T) {
	s := &ServerStats{}
	// Ramp-up: a pathological outlier before the measurement window opens.
	s.RelocationTime.Observe(time.Second)
	s.LocalReads.Add(3)
	base := Sum([]*ServerStats{s})
	// Measured window: two well-behaved observations.
	s.RelocationTime.Observe(time.Millisecond)
	s.RelocationTime.Observe(2 * time.Millisecond)
	s.LocalReads.Add(4)
	win := Sum([]*ServerStats{s}).Since(base)
	if win.LocalReads != 4 {
		t.Fatalf("windowed LocalReads = %d", win.LocalReads)
	}
	if win.RelocationCalls() != 2 {
		t.Fatalf("windowed RelocationCalls = %d", win.RelocationCalls())
	}
	// The whole-run max (1s) must not leak into the windowed extrema.
	near(t, "windowed max RT", win.RelocationTime.Max(), 2*time.Millisecond)
	near(t, "windowed min RT", win.RelocationTime.Min(), time.Millisecond)
	near(t, "windowed mean RT", win.MeanRelocationTime(), 1500*time.Microsecond)
}

func TestSumEmpty(t *testing.T) {
	tot := Sum(nil)
	if tot.MeanRelocationTime() != 0 {
		t.Fatal("mean RT on empty should be 0")
	}
}

func TestServerStatsReset(t *testing.T) {
	s := &ServerStats{}
	s.LocalReads.Inc()
	s.RelocationTime.Observe(time.Second)
	s.Reset()
	snap := s.RelocationTime.Snapshot()
	if s.LocalReads.Load() != 0 || snap.Count() != 0 {
		t.Fatal("reset incomplete")
	}
}
