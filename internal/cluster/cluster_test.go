package cluster

import (
	"sync"
	"sync/atomic"
	"testing"

	"lapse/internal/msg"
	"lapse/internal/simnet"
)

func TestTopologyMapping(t *testing.T) {
	c := New(Config{Nodes: 4, WorkersPerNode: 3})
	defer c.Close()
	if c.TotalWorkers() != 12 {
		t.Fatalf("TotalWorkers = %d, want 12", c.TotalWorkers())
	}
	for w := 0; w < 12; w++ {
		node := c.NodeOfWorker(w)
		local := c.LocalWorker(w)
		if node != w/3 || local != w%3 {
			t.Fatalf("worker %d mapped to (%d, %d)", w, node, local)
		}
		if c.GlobalWorker(node, local) != w {
			t.Fatalf("GlobalWorker(%d, %d) != %d", node, local, w)
		}
	}
}

func TestRunWorkersRunsAll(t *testing.T) {
	c := New(Config{Nodes: 3, WorkersPerNode: 2})
	defer c.Close()
	var seen [6]atomic.Bool
	c.RunWorkers(func(node, worker int) {
		if node != worker/2 {
			t.Errorf("worker %d got node %d", worker, node)
		}
		seen[worker].Store(true)
	})
	for w := range seen {
		if !seen[w].Load() {
			t.Fatalf("worker %d did not run", w)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const workers = 8
	const rounds = 50
	b := NewBarrier(workers)
	var phase atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				cur := phase.Load()
				// All workers must observe the same phase value
				// between barriers.
				if cur < int64(r) {
					t.Errorf("phase regressed: %d < %d", cur, r)
				}
				b.Wait(0)
				phase.CompareAndSwap(int64(r), int64(r+1))
				b.Wait(0)
			}
		}()
	}
	wg.Wait()
	if phase.Load() != rounds {
		t.Fatalf("phase = %d, want %d", phase.Load(), rounds)
	}
}

func TestBarrierReusable(t *testing.T) {
	b := NewBarrier(2)
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			b.Wait(0)
		}
		close(done)
	}()
	for i := 0; i < 100; i++ {
		b.Wait(0)
	}
	<-done
}

func TestClusterUsesNetworkConfig(t *testing.T) {
	c := New(Config{Nodes: 2, WorkersPerNode: 1, Net: simnet.Config{Shards: 2}})
	defer c.Close()
	if c.Net().Nodes() != 2 || c.Net().Shards() != 2 {
		t.Fatalf("network has %d nodes × %d shards, want 2 × 2", c.Net().Nodes(), c.Net().Shards())
	}
	c.Net().Send(0, 1, &msg.Barrier{Enter: true, Seq: 7, Worker: 1})
	env := <-c.Net().Inbox(1, 0)
	if b, ok := env.Msg.(*msg.Barrier); !ok || b.Seq != 7 {
		t.Fatalf("got %v", env.Msg)
	}
}

func TestInvalidTopologyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Nodes: 0, WorkersPerNode: 1})
}
