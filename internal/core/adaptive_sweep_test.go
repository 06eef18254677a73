package core

import (
	"testing"
	"time"

	"lapse/internal/adaptive"
	"lapse/internal/kv"
	"lapse/internal/msg"
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
	_, sys := newTestSystem(t, 2, 1, 8, 1, Config{Adaptive: true})
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

// TestImmatureRetractionIsRepeated: node 1 waits on key 3, homed at node 0,
// until the controller replicates it, and on key 40, its own; then it stops.
// Its idle window halves every WindowMaxAge (64) ticks. At the fifth close
// key 3 falls below the cold floors (64 → 2) while key 40 keeps the window
// judgeable (512 → 16 observations): node 0 gets a retraction on a window of
// 18 observations, far from the 3,200 that let a missing key count as absent.
// The classifier cannot tell it from a report that merely failed to show the
// key, so the key stays unsure at its home. The reporter owes node 0 a
// retraction that proves absence and sends it when the window empties, at the
// sixteenth close, once key 40's 512 have halved below the residue floor
// (tick 1,024); eight cold epochs later, at tick 1,032, the key is demoted. A
// reporter that retracts once leaves it replicated for good.
func TestImmatureRetractionIsRepeated(t *testing.T) {
	net, sys := newHeldSystem(t, 2, 1, 64, Config{Adaptive: true})
	nd0, nd1 := sys.nodes[0], sys.nodes[1]
	const k = kv.Key(3)
	h := nd1.tracker.Handle()
	for i := 0; i < 64; i++ {
		h.ObserveRemote(k)
	}
	for i := 0; i < 512; i++ {
		h.ObserveRemote(40) // homed at node 1: reported there, not to node 0
	}
	nd1.reportTick()
	net.pump()
	if nd0.state[k].Load() != stateReplicated || nd1.state[k].Load() != stateReplicated {
		t.Fatalf("key %d not replicated after node 1's report", k)
	}
	tick := 0
	for ; nd0.state[k].Load() == stateReplicated; tick++ {
		if tick == 2000 {
			t.Fatalf("key %d still replicated after 2,000 idle ticks", k)
		}
		nd1.reportTick()
		nd0.reportTick()
		net.pump()
	}
	if tick > 1032 {
		t.Fatalf("key %d demoted at idle tick %d, want by 1,032", k, tick)
	}
}

// TestStaticReplicationIsPinned: key 3, homed at node 0, is in
// Config.Replicate, and the controller promotes key 5, also homed there, when
// node 1 waits on it. Then node 1 stops, and the ticks run by hand until the
// controller demotes key 5, and a hundred more, far beyond the eight-epoch
// cold streak. Key 3 is still replicated on both nodes: no classifier
// promoted it, so none demotes it.
func TestStaticReplicationIsPinned(t *testing.T) {
	const static, promoted = kv.Key(3), kv.Key(5)
	net, sys := newHeldSystem(t, 2, 1, 64, Config{Replicate: []kv.Key{static}, Adaptive: true})
	nd0, nd1 := sys.nodes[0], sys.nodes[1]
	h := nd1.tracker.Handle()
	for i := 0; i < 64; i++ {
		h.ObserveRemote(promoted)
	}
	for i := 0; i < 512; i++ {
		h.ObserveRemote(40) // homed at node 1, as in TestImmatureRetractionIsRepeated
	}
	tick := func() {
		nd1.reportTick()
		nd0.reportTick()
		net.pump()
	}
	tick()
	if nd0.state[promoted].Load() != stateReplicated {
		t.Fatalf("key %d not promoted after node 1's report", promoted)
	}
	for n := 0; nd0.state[promoted].Load() == stateReplicated; n++ {
		if n == 2000 {
			t.Fatalf("key %d still replicated after 2,000 idle ticks", promoted)
		}
		tick()
	}
	for range 100 {
		tick()
	}
	for _, nd := range sys.nodes {
		if s := nd.state[static].Load(); s != stateReplicated {
			t.Fatalf("static key %d in state %d at node %d after the idle ticks, want Replicated", static, s, nd.id)
		}
	}
}

// TestLocalizeAfterPromotionGetsOneInstall: node 1 localizes key 3, homed at
// node 0, and the home promotes the key before node 1's Localize reaches it.
// The home drops the Localize. Node 1 receives one ManageReplicate for the
// key, the promotion's broadcast, which installs the replica into node 1's
// queue and completes the Localize.
func TestLocalizeAfterPromotionGetsOneInstall(t *testing.T) {
	const k = kv.Key(3)
	net, sys := newHeldSystem(t, 2, 1, 64, Config{Adaptive: true})
	fut := sys.Handle(1).LocalizeAsync([]kv.Key{k}) // held on its way to node 0
	sys.nodes[0].shardOf(k).execute(adaptive.Action{Kind: adaptive.ActReplicate, Key: k})
	net.pump()
	installs := 0
	for _, d := range net.since(0) { // all delivered: pump leaves nothing held
		if m, ok := d.m.(*msg.Manage); ok && m.Kind == msg.ManageReplicate && d.dst == 1 && m.Keys[0] == k {
			installs++
		}
	}
	if installs != 1 {
		t.Fatalf("node 1 received %d installs of key %d, want 1", installs, k)
	}
	if done, err := fut.TryWait(); !done || err != nil {
		t.Fatalf("node 1's localize: done %t, err %v; want completed", done, err)
	}
	if s := sys.nodes[1].state[k].Load(); s != stateReplicated {
		t.Fatalf("key %d in state %d at node 1, want Replicated", k, s)
	}
}
