package lapse_test

import (
	"fmt"
	"testing"
	"time"

	"lapse"
)

// servingDeployments returns the three ways an in-process test cluster of n
// nodes can be wired: the simulated network, shared-memory rings, and
// loopback TCP.
func servingDeployments(n int) map[string]*lapse.TCPDeployment {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	return map[string]*lapse.TCPDeployment{
		"simnet": nil,
		"shm":    {Addrs: addrs, Node: -1},
		"tcp":    {Addrs: addrs, Node: -1, DisableSHM: true},
	}
}

// pollMultiGet re-reads keys through the serving tier until the first value
// equals want. The 5s bound is 6x under the scenarios' 30s lease TTL, so a
// value that arrives in time was carried by the coherence protocol, never by
// expiry.
func pollMultiGet(w *lapse.Worker, keys []lapse.Key, want float32) error {
	buf := make([]float32, len(keys))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := w.MultiGet(keys, buf); err != nil {
			return err
		}
		if buf[0] == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("lease holder still reads %v, want %v", buf[0], want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServingLeaseInvalidationAcrossTransports pins the serving tier's
// cross-node consistency contract on every transport. A write at a key's
// owner must reach a node holding a cached lease well within the test
// deadline — far inside the 30s lease TTL, so the freshness can only come
// from the coherence protocol (the owner's ReplicaRefresh in its refresh or
// drop form), never from expiry — and the writer reads its own write. The
// scenarios below add what update-in-place must hold on top: concurrent
// writers' refreshes land in value order, an idle holder stops costing
// messages when its lease runs out, and the copies are still dropped when the
// value leaves its owner. Runs under -race in CI for all three transports.
func TestServingLeaseInvalidationAcrossTransports(t *testing.T) {
	for name := range servingDeployments(2) {
		t.Run(name, func(t *testing.T) {
			newCluster := func(t *testing.T, nodes int, cfg lapse.Config) *lapse.Cluster {
				t.Helper()
				cfg.Nodes, cfg.WorkersPerNode, cfg.ValueLength = nodes, 1, 1
				cfg.TCP = servingDeployments(nodes)[name]
				if cfg.Serving == nil {
					cfg.Serving = &lapse.ServingConfig{TTL: 30 * time.Second}
				}
				cl, err := lapse.NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(cl.Close)
				return cl
			}
			servingWriteReachesHolder(t, newCluster(t, 2, lapse.Config{Keys: 8}))
			t.Run("concurrent-writers", func(t *testing.T) {
				servingConcurrentWriters(t, newCluster(t, 3, lapse.Config{Keys: 9}))
			})
			t.Run("idle-holder", func(t *testing.T) {
				const ttl = 150 * time.Millisecond
				servingIdleHolder(t, newCluster(t, 2, lapse.Config{Keys: 8,
					Serving: &lapse.ServingConfig{TTL: ttl}}), ttl)
			})
			t.Run("relocation-drops", func(t *testing.T) {
				servingRelocationDrops(t, newCluster(t, 3, lapse.Config{Keys: 9}))
			})
			t.Run("promotion-drops", func(t *testing.T) {
				servingPromotionDrops(t, newCluster(t, 2, lapse.Config{Keys: 8,
					Adaptive: true}))
			})
		})
	}
}

// servingWriteReachesHolder: both workers read key 6 (worker 1 its own node's
// key, worker 0 through a cross-node lease), the owner's worker writes it and
// reads its own write, and the lease holder must see the write in time.
func servingWriteReachesHolder(t *testing.T, cl *lapse.Cluster) {
	keys := []lapse.Key{6} // homed at node 1
	err := cl.Run(func(w *lapse.Worker) error {
		buf := make([]float32, 1)
		if err := w.MultiGet(keys, buf); err != nil {
			return err
		}
		if buf[0] != 0 {
			return fmt.Errorf("initial MultiGet = %v, want [0]", buf)
		}
		w.Barrier()
		if w.Node() == 1 {
			if err := w.Push(keys, []float32{3}); err != nil {
				return err
			}
			if err := w.MultiGet(keys, buf); err != nil {
				return err
			}
			if buf[0] != 3 {
				return fmt.Errorf("writer read-your-writes: MultiGet = %v, want [3]", buf)
			}
			return nil
		}
		return pollMultiGet(w, keys, 3)
	})
	if err != nil {
		t.Fatal(err)
	}
	st := cl.Stats()
	if st.LeaseGrants == 0 || st.LeaseRefreshes+st.LeaseInvalidations == 0 {
		t.Fatalf("serving counters show no lease traffic: %+v", st)
	}
}

// servingConcurrentWriters: the owner's own worker (a worker thread) and a
// third node (through the owner's shard goroutine) push a leased key
// concurrently, round after round. Each push sends the holder a refresh; were
// one carrying an older value to land after one carrying a newer, the holder
// would sit on the wrong sum for the rest of its 30s lease. The owner's
// worker pushes a burst per round so that the third node's one push lands
// inside it. After every round the holder must read the exact total, and it
// must get there without a second remote read.
func servingConcurrentWriters(t *testing.T, cl *lapse.Cluster) {
	const rounds, burst = 100, 8
	keys := []lapse.Key{4} // homed at node 1 of 3
	err := cl.Run(func(w *lapse.Worker) error {
		if w.Node() == 0 {
			if err := w.MultiGet(keys, make([]float32, 1)); err != nil {
				return err
			}
		}
		pushes := map[int]int{1: burst, 2: 1}[w.Node()]
		// A worker that failed keeps meeting the others at the barriers, or
		// they would wait for it forever; it only stops checking.
		var failed error
		for r := 1; r <= rounds; r++ {
			w.Barrier()
			for i := 0; i < pushes && failed == nil; i++ {
				failed = w.Push(keys, []float32{1})
			}
			w.Barrier()
			if w.Node() == 0 && failed == nil {
				if err := pollMultiGet(w, keys, float32((burst+1)*r)); err != nil {
					failed = fmt.Errorf("round %d: %w", r, err)
				}
			}
		}
		return failed
	})
	if err != nil {
		t.Fatal(err)
	}
	st := cl.Stats()
	if st.RemoteReads != 1 || st.LeaseInvalidations != 0 || st.LeaseRefreshes == 0 {
		t.Fatalf("holder did not follow the writes in place (want 1 remote read, 0 dropped entries, refreshes > 0): %+v", st)
	}
}

// servingIdleHolder: node 0 takes a lease and never reads again while both
// nodes keep writing the key. Refreshes flow while the lease lives; they do
// not renew it, so once it has run out the owner must send nothing more.
func servingIdleHolder(t *testing.T, cl *lapse.Cluster, ttl time.Duration) {
	keys := []lapse.Key{6} // homed at node 1
	var during, expired, end int64
	err := cl.Run(func(w *lapse.Worker) error {
		if w.Node() == 0 {
			if err := w.MultiGet(keys, make([]float32, 1)); err != nil {
				return err
			}
		}
		w.Barrier()
		start := time.Now()
		for time.Since(start) < 3*ttl {
			if err := w.Push(keys, []float32{1}); err != nil {
				return err
			}
			if w.Node() == 1 {
				switch sent := cl.Stats().LeaseRevokes; {
				case time.Since(start) < ttl/2:
					during = sent
				case time.Since(start) > 2*ttl && expired == 0:
					expired = sent
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
		w.Barrier()
		if w.Node() == 1 {
			end = cl.Stats().LeaseRevokes
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if during == 0 {
		t.Fatal("owner sent the holder nothing while its lease was live")
	}
	if end != expired {
		t.Fatalf("owner kept sending to an idle holder after its lease ran out: %d messages at 2×TTL, %d at 3×TTL", expired, end)
	}
}

// servingRelocationDrops: a third node localizes a leased key. The value
// leaves its owner, so the holder's copy is dropped, not refreshed, and its
// next read finds the key at the new owner.
func servingRelocationDrops(t *testing.T, cl *lapse.Cluster) {
	keys := []lapse.Key{4} // homed at node 1 of 3
	err := cl.Run(func(w *lapse.Worker) error {
		if w.Node() == 0 {
			if err := w.MultiGet(keys, make([]float32, 1)); err != nil {
				return err
			}
		}
		w.Barrier()
		if w.Node() == 2 {
			if err := w.Localize(keys); err != nil {
				return err
			}
			if err := w.Push(keys, []float32{5}); err != nil {
				return err
			}
		}
		w.Barrier()
		if w.Node() == 0 {
			return pollMultiGet(w, keys, 5)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := cl.Stats(); st.Relocations == 0 || st.LeaseInvalidations == 0 {
		t.Fatalf("relocating a leased key dropped no cached copy: %+v", st)
	}
}

// servingPromotionDrops: both nodes pull a leased key until the adaptive
// controller promotes it into replication. From then on the replica is the
// node-local copy, and the lease holder's serving-cache entry must go.
func servingPromotionDrops(t *testing.T, cl *lapse.Cluster) {
	keys := []lapse.Key{6} // homed at node 1
	err := cl.Run(func(w *lapse.Worker) error {
		buf := make([]float32, 1)
		if w.Node() == 0 {
			if err := w.MultiGet(keys, buf); err != nil {
				return err
			}
		}
		w.Barrier()
		deadline := time.Now().Add(15 * time.Second)
		for cl.Stats().AdaptPromotions == 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("key never promoted: %+v", cl.Stats())
			}
			for i := 0; i < 64; i++ {
				if err := w.Pull(keys, buf); err != nil {
					return err
				}
			}
		}
		// The drop rides the next replica refresh broadcast.
		for cl.Stats().LeaseInvalidations == 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("promotion dropped no cached copy: %+v", cl.Stats())
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
