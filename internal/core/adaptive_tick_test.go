package core

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/msg"
	"lapse/internal/replication"
)

// manualTicks builds a two-node adaptive system and stops its background
// loops, so tests drive reportTick by hand.
func manualTicks(t *testing.T) *System {
	t.Helper()
	_, sys := newTestSystem(t, 2, 1, 64, 1, Config{Adaptive: true})
	sys.stopLoops()
	return sys
}

// waitFor polls cond until it holds (messages sent by a tick are handled on
// the shard goroutines).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestControllerTickAllocations gates the controller's own garbage. A tick
// on a node with nothing to report and nothing managed sends nothing and
// allocates nothing. A tick that reports a changed window, and one that
// sweeps a managing classifier, reuse their messages and the tracker's and
// classifier's scratch; what is left is the message path re-growing a pooled
// buffer now and then (a few more under the race detector), far from the
// maps, sorted slices and messages a tick used to build afresh.
func TestControllerTickAllocations(t *testing.T) {
	sys := manualTicks(t)
	nd := sys.nodes[1]
	if n := testing.AllocsPerRun(100, func() { nd.reportTick() }); n != 0 {
		t.Errorf("idle tick: %v allocs, want 0", n)
	}

	// Node 1 waits for a handful of node 0's keys; node 0's classifier
	// replicates them, so it manages keys and is swept.
	h := nd.tracker.Handle()
	observe := func() {
		for i := 0; i < 512; i++ {
			h.ObserveRemote(kv.Key(i % 8))
		}
	}
	for i := 0; i < 4; i++ {
		observe()
		nd.reportTick()
		sys.nodes[0].reportTick()
	}
	waitFor(t, "promotions", func() bool { return sys.Stats()[0].AdaptPromotions.Load() == 8 })
	if got := sys.Stats()[0].AdaptManaged.Load(); got != 8 {
		t.Fatalf("AdaptManaged gauge = %d, want 8", got)
	}
	if n := testing.AllocsPerRun(50, func() {
		observe()
		nd.reportTick()           // a changed window: one report to node 0
		sys.nodes[0].reportTick() // nothing to report: one sweep
	}); n > 12 {
		t.Errorf("reporting and sweeping ticks: %v allocs, want at most the message path's dozen", n)
	}
}

// TestReportGaugesAndSetAsideTrace: what a classifier knows about an origin
// is readable from outside — the evidence behind the origin's latest report
// and the report's age — and a report set aside for insufficient evidence
// leaves a (rate-limited) record in the control-plane trace.
func TestReportGaugesAndSetAsideTrace(t *testing.T) {
	sys := manualTicks(t)
	nd, home := sys.nodes[1], sys.Stats()[0]
	h := nd.tracker.Handle()
	for i := 0; i < 5; i++ { // fewer observations than HotCount
		h.ObserveRemote(kv.Key(3))
	}
	nd.reportTick()
	waitFor(t, "the report", func() bool { return len(home.AdaptReportEvidence.Snapshot()) == 2 })
	if ev := home.AdaptReportEvidence.Snapshot(); ev[0] != -1 || ev[1] != 5 {
		t.Fatalf("evidence gauges = %v, want [-1 5]: node 0 never reported, node 1 on 5 observations", ev)
	}
	setAside := func() (n int, detail string) {
		for _, e := range sys.cl.Trace().Events() {
			if e.Kind == metrics.TraceReportSetAside {
				n, detail = n+1, e.Detail
				if e.Node != 0 || e.From != 1 || e.Key != 3 {
					t.Fatalf("set-aside record %+v, want node 0 about origin 1, key 3", e)
				}
			}
		}
		return n, detail
	}
	// The handler sets the gauge first and records the trace event after it.
	waitFor(t, "the set-aside record", func() bool { n, _ := setAside(); return n > 0 })
	if n, detail := setAside(); n != 1 || !strings.Contains(detail, "evidence=5") {
		t.Fatalf("%d set-aside records (%q), want one with evidence=5", n, detail)
	}
	// Still insufficient a tick later: rate-limited, no second record. The
	// home's ticker ages the report it holds.
	h.ObserveRemote(kv.Key(3))
	nd.reportTick()
	waitFor(t, "the second report", func() bool { return home.AdaptReportEvidence.Snapshot()[1] == 6 })
	if n, _ := setAside(); n != 1 {
		t.Fatalf("%d set-aside records after two insufficient reports within the rate limit, want 1", n)
	}
	for i := 0; i < 3; i++ {
		sys.nodes[0].reportTick()
	}
	if age := home.AdaptReportAge.Snapshot(); age[1] != 3 {
		t.Fatalf("report age gauges = %v, want node 1's report 3 epochs old", age)
	}
	if acts := home.AdaptPromotions.Load() + home.AdaptRelocations.Load(); acts != 0 {
		t.Fatalf("%d transitions on insufficient evidence", acts)
	}
}

// TestReportOfRejectsMalformedVals: a report's Vals must hold the three
// window numbers and two numbers per key; anything else is not a report.
func TestReportOfRejectsMalformedVals(t *testing.T) {
	good := &msg.Manage{Kind: msg.ManageReport, Keys: []kv.Key{4, 9}, Vals: []float32{100, 40, 2, 30, 10, 30, 5}}
	rep, ok := reportOf(good)
	if !ok || rep.Waiting != 100 || rep.Evidence != 40 || rep.Floor != 2 ||
		len(rep.Counts) != 2 || rep.Counts[1] != 10 || len(rep.Seen) != 2 || rep.Seen[1] != 5 {
		t.Fatalf("reportOf(good) = %+v, %v", rep, ok)
	}
	for _, vals := range [][]float32{nil, {100, 40, 2}, {100, 40, 2, 30, 10, 30}, {100, 40, 2, 30, 10, 30, 5, 1}} {
		if _, ok := reportOf(&msg.Manage{Kind: msg.ManageReport, Keys: good.Keys, Vals: vals}); ok {
			t.Errorf("reportOf accepted %d values for 2 keys", len(vals))
		}
	}
}

// TestFinishedTrackerHandlesAreCollected runs 50 handle phases of node 1's
// worker, each pulling 500 keys homed at node 0, and checks that the tracker
// keeps no finished phase's handle alive. Without the controller the node has
// no tracker and the handles observe nothing. With it, a handle records its
// accesses straight into the tracker, which refers to no handle: after two
// idle ticks every finished handle can be collected.
func TestFinishedTrackerHandlesAreCollected(t *testing.T) {
	keys := make([]kv.Key, 500)
	for i := range keys {
		keys[i] = kv.Key(i)
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"static", Config{}}, {"adaptive", Config{Adaptive: true}}} {
		t.Run(c.name, func(t *testing.T) {
			_, sys := newTestSystem(t, 2, 1, 1024, 1, c.cfg)
			nd := sys.nodes[1]
			sys.stopLoops() // a no-op without the controller
			var tracked int
			var collected atomic.Int32
			buf := make([]float32, len(keys))
			for phase := 0; phase < 50; phase++ {
				h := sys.Handle(1).(*handle)
				if err := h.Pull(keys, buf); err != nil {
					t.Fatal(err)
				}
				if h.trk != nil {
					tracked++
					runtime.SetFinalizer(h.trk, func(*replication.Handle) { collected.Add(1) })
				}
			}
			if !c.cfg.Adaptive {
				if nd.tracker != nil || tracked != 0 {
					t.Fatalf("node 1 runs no controller, but has a tracker that %d of its 50 handles fed", tracked)
				}
				return
			}
			if tracked != 50 {
				t.Fatalf("%d of 50 handles feed node 1's tracker", tracked)
			}
			nd.reportTick()
			nd.reportTick()
			waitFor(t, "the finished handles to be collected", func() bool {
				runtime.GC()
				return int(collected.Load()) == tracked
			})
		})
	}
}
