package core

import (
	"testing"
	"time"

	"lapse/internal/cluster"
	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/simnet"
)

// TestChainedRelocation forces the instruct-overtakes-transfer case: node 2
// localizes a key while its transfer to node 0 is still in flight, so the
// instruct is queued at node 0 and the key chains onward when it arrives.
func TestChainedRelocation(t *testing.T) {
	f := newFixture(t)
	k := f.key()
	f.sys.Handle(4).PushAsync([]kv.Key{k}, []float32{11})
	f.ownedAt(4, k)
	a, _ := f.localize(0, k)
	c := f.chain(k)
	f.net.pump()
	f.done("node 0's localize", a)
	f.done("node 2's localize", c)
	// The value is intact and reachable, and node 2 owns the key again.
	f.pulls(0, k, 11)
	if o := f.sys.OwnerOf(k); o != 2 {
		t.Fatalf("owner = %d, want 2", o)
	}
	if got := metrics.Sum(f.sys.Stats()).Relocations; got != 3 {
		t.Fatalf("relocations = %d, want 3: to node 2, to node 0 and on to node 2", got)
	}
}

// TestQueuedOpsBehindChainedInstructRerouted verifies that a local operation
// queued behind a chained-away key is re-issued through the home node and
// still completes with the correct value.
func TestQueuedOpsBehindChainedInstructRerouted(t *testing.T) {
	f := newFixture(t)
	k := f.key()
	f.ownedAt(4, k)
	loc, _ := f.localize(0, k)
	f.chain(k)
	push := f.sys.Handle(0).PushAsync([]kv.Key{k}, []float32{5}) // queued behind the instruct
	f.net.pump()
	f.done("localize", loc)
	f.done("push", push)
	f.pulls(0, k, 5) // the queued push must not be lost
	if got := f.sys.Stats()[0].RemoteWrites.Load(); got != 1 {
		t.Fatalf("%d remote writes at node 0, want 1: the queued push re-issued", got)
	}
}

// TestManyKeysHeterogeneousLayout exercises Lapse under a RangeLayout with
// very different value sizes per range (the RESCAL shape).
func TestManyKeysHeterogeneousLayout(t *testing.T) {
	layout := kv.NewRangeLayout([]kv.Key{12, 4}, []int{2, 9})
	cl := cluster.New(cluster.Config{Nodes: 2, WorkersPerNode: 2})
	sys := New(cl, layout, Config{})
	defer func() { cl.Close(); sys.Shutdown() }()

	cl.RunWorkers(func(node, worker int) {
		h := sys.Handle(worker)
		keys := []kv.Key{kv.Key(worker), kv.Key(12 + worker)}
		vals := make([]float32, 2+9)
		for i := range vals {
			vals[i] = float32(worker + 1)
		}
		if err := h.Localize(keys); err != nil {
			t.Error(err)
			return
		}
		if err := h.Push(keys, vals); err != nil {
			t.Error(err)
			return
		}
		got := make([]float32, 11)
		if err := h.Pull(keys, got); err != nil {
			t.Error(err)
			return
		}
		for i := range got {
			if got[i] != float32(worker+1) {
				t.Errorf("worker %d: got[%d] = %v", worker, i, got[i])
				return
			}
		}
	})
}

// TestComputeOverlap checks that cluster.Compute sleeps overlap across
// workers: 4 workers sleeping 20ms each in parallel must finish in far less
// than 80ms.
func TestComputeOverlap(t *testing.T) {
	cl := cluster.New(cluster.Config{
		Nodes: 2, WorkersPerNode: 2,
		Net: simnet.Config{Latency: time.Millisecond},
	})
	defer cl.Close()
	start := time.Now()
	cl.RunWorkers(func(node, worker int) {
		cl.Compute(20 * time.Millisecond)
	})
	got := time.Since(start)
	if got > 60*time.Millisecond {
		t.Fatalf("4 overlapping 20ms computes took %v", got)
	}
	if got < 18*time.Millisecond {
		t.Fatalf("compute returned too early: %v", got)
	}
}
