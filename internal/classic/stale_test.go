package classic

import (
	"testing"
	"time"

	"lapse/internal/cluster"
	"lapse/internal/kv"
	"lapse/internal/msg"
	"lapse/internal/simnet"
)

// newStaleSystem builds a stale PS on a zero-latency cluster.
func newStaleSystem(t *testing.T, nodes, workers int, keys kv.Key, vlen int, cfg StaleConfig) (*cluster.Cluster, *System) {
	t.Helper()
	cl := cluster.New(cluster.Config{Nodes: nodes, WorkersPerNode: workers})
	sys := NewStale(cl, kv.NewUniformLayout(keys, vlen), cfg)
	t.Cleanup(func() {
		cl.Close()
		sys.Shutdown()
	})
	return cl, sys
}

func TestReadYourWrites(t *testing.T) {
	_, sys := newStaleSystem(t, 2, 1, 8, 2, StaleConfig{Staleness: 1})
	h := sys.Handle(0)
	if err := h.Push([]kv.Key{6}, []float32{3, 4}); err != nil {
		t.Fatal(err)
	}
	// The update is still buffered, but the worker must see it.
	got := make([]float32, 2)
	if err := h.Pull([]kv.Key{6}, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 4 {
		t.Fatalf("read-your-writes violated: %v", got)
	}
	// The server has NOT seen the update yet.
	srv := make([]float32, 2)
	sys.ReadParameter(6, srv)
	if srv[0] != 0 {
		t.Fatalf("buffered update leaked to server: %v", srv)
	}
}

func TestClockFlushesUpdates(t *testing.T) {
	_, sys := newStaleSystem(t, 2, 1, 8, 1, StaleConfig{Staleness: 1})
	h := sys.Handle(0)
	if err := h.Push([]kv.Key{5}, []float32{7}); err != nil {
		t.Fatal(err)
	}
	h.Clock()
	got := make([]float32, 1)
	sys.ReadParameter(5, got)
	if got[0] != 7 {
		t.Fatalf("server value after clock = %v, want 7", got[0])
	}
}

func TestStaleReadWithinBound(t *testing.T) {
	// With staleness 1, a worker at clock c can read replicas from c-1
	// without contacting the server.
	cl, sys := newStaleSystem(t, 2, 2, 8, 1, StaleConfig{Staleness: 1})
	h0 := sys.Handle(0)
	buf := make([]float32, 1)
	// Establish a replica at clock 0.
	if err := h0.Pull([]kv.Key{6}, buf); err != nil {
		t.Fatal(err)
	}
	before := cl.Net().Stats().RemoteMessages + cl.Net().Stats().LoopbackMessages
	// Re-read: replica is fresh, no messages.
	if err := h0.Pull([]kv.Key{6}, buf); err != nil {
		t.Fatal(err)
	}
	after := cl.Net().Stats().RemoteMessages + cl.Net().Stats().LoopbackMessages
	if after != before {
		t.Fatalf("fresh replica read sent %d messages", after-before)
	}
}

func TestBlockedReadWaitsForStragglers(t *testing.T) {
	// A worker two clocks ahead must block reading until the straggler
	// advances (staleness 1).
	_, sys := newStaleSystem(t, 1, 2, 4, 1, StaleConfig{Staleness: 1})
	fast := sys.Handle(0)
	slow := sys.Handle(1)

	fast.Clock() // fast at 1
	fast.Clock() // fast at 2; global clock still 0 (slow at 0)

	done := make(chan error, 1)
	go func() {
		buf := make([]float32, 1)
		// required = 2-1 = 1 > global 0: must block.
		done <- fast.Pull([]kv.Key{0}, buf)
	}()
	select {
	case err := <-done:
		t.Fatalf("read returned before straggler advanced (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	slow.Clock() // global advances to 1, releasing the read
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read still blocked after straggler advanced")
	}
	if sys.Stats()[0].SyncWaits.Load() == 0 {
		t.Fatal("expected a recorded sync wait")
	}
}

func TestUpdatesVisibleAfterClocks(t *testing.T) {
	// After all workers clock, a sufficiently fresh read sees all updates.
	cl, sys := newStaleSystem(t, 2, 2, 8, 1, StaleConfig{Staleness: 1})
	cl.RunWorkers(func(node, worker int) {
		h := sys.Handle(worker)
		if err := h.Push([]kv.Key{3}, []float32{1}); err != nil {
			t.Error(err)
			return
		}
		h.Clock()
		h.Barrier()
		h.Clock() // advance to clock 2 so required = 1 forces fresh read
		buf := make([]float32, 1)
		if err := h.Pull([]kv.Key{3}, buf); err != nil {
			t.Error(err)
			return
		}
		if buf[0] != 4 {
			t.Errorf("worker %d read %v, want 4 (all workers' updates)", worker, buf[0])
		}
	})
}

func TestServerSyncPushesReplicas(t *testing.T) {
	// In SSPPush mode, after a global clock advance the server pushes
	// subscribed keys; a subsequent stale read needs no fetch.
	cl, sys := newStaleSystem(t, 2, 1, 8, 1, StaleConfig{Staleness: 0, ServerSync: true})
	h0, h1 := sys.Handle(0), sys.Handle(1)
	buf := make([]float32, 1)
	// Subscribe node 0 to key 6 (homed at node 1).
	if err := h0.Pull([]kv.Key{6}, buf); err != nil {
		t.Fatal(err)
	}
	// Node 1 updates key 6 and both workers clock.
	if err := h1.Push([]kv.Key{6}, []float32{9}); err != nil {
		t.Fatal(err)
	}
	h0.Clock()
	h1.Clock()
	// Wait until the eager push lands (replica clock 1 at node 0).
	deadline := time.Now().Add(2 * time.Second)
	got := false
	for time.Now().Before(deadline) {
		if ok, _ := h0.PullIfLocal([]kv.Key{6}, buf); ok && buf[0] == 9 {
			got = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !got {
		t.Fatal("eager push did not refresh the replica")
	}
	// The fresh read must not have fetched.
	before := cl.Net().Stats().RemoteMessages
	if err := h0.Pull([]kv.Key{6}, buf); err != nil {
		t.Fatal(err)
	}
	if cl.Net().Stats().RemoteMessages != before {
		t.Fatal("read after eager push still fetched from server")
	}
	if buf[0] != 9 {
		t.Fatalf("value = %v, want 9", buf[0])
	}
}

func TestEventualConsistencyTotalSum(t *testing.T) {
	for _, serverSync := range []bool{false, true} {
		name := "client"
		if serverSync {
			name = "server"
		}
		t.Run(name, func(t *testing.T) {
			cl, sys := newStaleSystem(t, 4, 2, 16, 1, StaleConfig{Staleness: 2, ServerSync: serverSync})
			const rounds = 10
			cl.RunWorkers(func(node, worker int) {
				h := sys.Handle(worker)
				buf := make([]float32, 1)
				for r := 0; r < rounds; r++ {
					k := kv.Key((worker + r) % 16)
					if err := h.Push([]kv.Key{k}, []float32{1}); err != nil {
						t.Error(err)
						return
					}
					h.Pull([]kv.Key{k}, buf)
					h.Clock()
				}
				h.Barrier()
			})
			var sum float32
			buf := make([]float32, 1)
			for k := kv.Key(0); k < 16; k++ {
				sys.ReadParameter(k, buf)
				sum += buf[0]
			}
			if want := float32(8 * rounds); sum != want {
				t.Fatalf("total = %v, want %v", sum, want)
			}
		})
	}
}

func TestStaleLocalizeUnsupported(t *testing.T) {
	_, sys := newStaleSystem(t, 2, 1, 8, 1, StaleConfig{Staleness: 1})
	h := sys.Handle(0)
	if err := h.Localize([]kv.Key{1}); err != kv.ErrUnsupported {
		t.Fatalf("Localize = %v, want ErrUnsupported", err)
	}
	if err := h.LocalizeAsync([]kv.Key{1}).Wait(); err != kv.ErrUnsupported {
		t.Fatalf("LocalizeAsync = %v, want ErrUnsupported", err)
	}
}

func TestGlobalClockView(t *testing.T) {
	_, sys := newStaleSystem(t, 1, 2, 4, 1, StaleConfig{Staleness: 1})
	h0, h1 := sys.Handle(0), sys.Handle(1)
	h0.Clock()
	h1.Clock()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if sys.GlobalClock(0) == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("global clock = %d, want 1", sys.GlobalClock(0))
}

func TestMonotonicReplicaClocks(t *testing.T) {
	// applyRefresh must ignore older refreshes.
	_, sys := newStaleSystem(t, 1, 1, 4, 1, StaleConfig{Staleness: 0})
	nd := sys.nodes[0]
	nd.applyRefresh(&msg.SspSync{Clock: 2, Keys: []kv.Key{1}, Vals: []float32{5}})
	nd.applyRefresh(&msg.SspSync{Clock: 1, Keys: []kv.Key{1}, Vals: []float32{3}}) // older: ignored
	buf := make([]float32, 1)
	h := sys.Handle(0).(*staleHandle)
	if !h.readReplica(1, 2, buf) || buf[0] != 5 {
		t.Fatalf("replica regressed: %v", buf)
	}
}

func TestPullAsyncCapturesIssueState(t *testing.T) {
	// The fetch is still in flight (1 ms links) when the caller reuses its
	// key slice and pushes again: the pull returns the value at issue time,
	// and its completion touches neither the keys nor the write cache.
	cl := cluster.New(cluster.Config{Nodes: 2, WorkersPerNode: 1, Net: simnet.Config{Latency: time.Millisecond}})
	sys := NewStale(cl, kv.NewUniformLayout(8, 1), StaleConfig{})
	defer func() { cl.Close(); sys.Shutdown() }()
	h := sys.Handle(0)
	if err := h.Push([]kv.Key{6}, []float32{2}); err != nil {
		t.Fatal(err)
	}
	keys := []kv.Key{6}
	got := []float32{-1}
	f := h.PullAsync(keys, got)
	keys[0] = 1
	if err := h.Push([]kv.Key{6}, []float32{100}); err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Fatalf("PullAsync = %v, want [2] (the value when it was issued)", got)
	}
}
