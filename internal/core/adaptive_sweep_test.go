package core

import (
	"testing"
	"time"

	"lapse/internal/adaptive"
	"lapse/internal/kv"
)

// TestAdaptiveIdleSweepDemotes drives a key hot from every node until the
// online controller promotes it into replication, then stops ALL traffic.
// With no accesses anywhere the trackers' idle windows age out and retract
// the key, and then no reports flow at all: without the idle sweep the
// classifier's epoch clock would freeze with them and the replica survive
// forever; the ManageSweep must keep the clock moving and demote the key
// within the deadline. At the controller's thresholds the idle windows take a
// few seconds to age out, and the cold streak after that 40 ms.
func TestAdaptiveIdleSweepDemotes(t *testing.T) {
	_, sys := newTestSystem(t, 2, 1, 8, 1, Config{Adaptive: &adaptive.Config{}})
	h0, h1 := sys.Handle(0), sys.Handle(1)
	keys := []kv.Key{2} // homed at node 0
	buf := make([]float32, 1)
	deadline := time.Now().Add(15 * time.Second)
	for sys.Stats()[0].AdaptPromotions.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("key never promoted: stats %+v", sys.Stats()[0])
		}
		for i := 0; i < 64; i++ {
			if err := h0.Pull(keys, buf); err != nil {
				t.Fatal(err)
			}
			if err := h1.Pull(keys, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Traffic stops dead. Only the controller's self-addressed sweeps can
	// drive the demotion now.
	deadline = time.Now().Add(15 * time.Second)
	for sys.Stats()[0].AdaptDemotions.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("replicated key never demoted after traffic stopped: stats %+v", sys.Stats()[0])
		}
		time.Sleep(2 * time.Millisecond)
	}
}
