package classic

import (
	"math/rand"
	"sync"
	"testing"

	"lapse/internal/cluster"
	"lapse/internal/kv"
	"lapse/internal/partition"
)

// newTestSystem builds a classic PS on a zero-latency cluster.
func newTestSystem(t *testing.T, nodes, workers int, keys kv.Key, vlen int, cfg Config) (*cluster.Cluster, *System) {
	t.Helper()
	cl := cluster.New(cluster.Config{Nodes: nodes, WorkersPerNode: workers})
	sys := New(cl, kv.NewUniformLayout(keys, vlen), cfg)
	t.Cleanup(func() {
		cl.Close()
		sys.Shutdown()
	})
	return cl, sys
}

func variants() map[string]Config {
	return map[string]Config{
		"pslite":    {},
		"fastlocal": {FastLocalAccess: true},
		"hashpart":  {Partitioner: nil}, // replaced below
	}
}

func TestPushThenPullSingleKey(t *testing.T) {
	for name, cfg := range variants() {
		t.Run(name, func(t *testing.T) {
			if name == "hashpart" {
				cfg.Partitioner = partition.NewHash(2)
			}
			_, sys := newTestSystem(t, 2, 2, 16, 3, cfg)
			h := sys.Handle(0)
			if err := h.Push([]kv.Key{5}, []float32{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			got := make([]float32, 3)
			if err := h.Pull([]kv.Key{5}, got); err != nil {
				t.Fatal(err)
			}
			if got[0] != 1 || got[1] != 2 || got[2] != 3 {
				t.Fatalf("Pull = %v", got)
			}
		})
	}
}

func TestPushIsCumulative(t *testing.T) {
	_, sys := newTestSystem(t, 2, 1, 8, 2, Config{})
	h0 := sys.Handle(0)
	h1 := sys.Handle(1)
	for i := 0; i < 5; i++ {
		if err := h0.Push([]kv.Key{3}, []float32{1, 10}); err != nil {
			t.Fatal(err)
		}
		if err := h1.Push([]kv.Key{3}, []float32{2, 20}); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]float32, 2)
	if err := h0.Pull([]kv.Key{3}, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 15 || got[1] != 150 {
		t.Fatalf("Pull = %v, want [15 150]", got)
	}
}

func TestMultiKeyOpsSpanningServers(t *testing.T) {
	for _, fast := range []bool{false, true} {
		name := "pslite"
		if fast {
			name = "fastlocal"
		}
		t.Run(name, func(t *testing.T) {
			_, sys := newTestSystem(t, 4, 1, 16, 2, Config{FastLocalAccess: fast})
			h := sys.Handle(0)
			// Keys 0..15 range-partitioned over 4 nodes: mix of local and remote.
			keys := []kv.Key{0, 4, 8, 12, 1, 15}
			vals := []float32{0, 1, 10, 11, 20, 21, 30, 31, 40, 41, 50, 51}
			if err := h.Push(keys, vals); err != nil {
				t.Fatal(err)
			}
			got := make([]float32, len(vals))
			if err := h.Pull(keys, got); err != nil {
				t.Fatal(err)
			}
			for i := range vals {
				if got[i] != vals[i] {
					t.Fatalf("Pull = %v, want %v", got, vals)
				}
			}
		})
	}
}

func TestAsyncProgramOrderSameKey(t *testing.T) {
	// Asynchronous pushes followed by an async pull from the same worker
	// must observe all prior pushes (sequential consistency property 1).
	_, sys := newTestSystem(t, 2, 1, 4, 1, Config{})
	h := sys.Handle(0)
	k := []kv.Key{3} // on node 1, remote for worker 0
	const n = 100
	for i := 0; i < n; i++ {
		h.PushAsync(k, []float32{1})
	}
	got := make([]float32, 1)
	f := h.PullAsync(k, got)
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	if got[0] != n {
		t.Fatalf("async pull after %d async pushes = %v", n, got[0])
	}
	if err := h.WaitAll(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentWorkersNoLostUpdates(t *testing.T) {
	for name, cfg := range variants() {
		t.Run(name, func(t *testing.T) {
			if name == "hashpart" {
				cfg.Partitioner = partition.NewHash(4)
			}
			cl, sys := newTestSystem(t, 4, 2, 32, 2, cfg)
			const pushes = 200
			cl.RunWorkers(func(node, worker int) {
				h := sys.Handle(worker)
				rng := rand.New(rand.NewSource(int64(worker)))
				for i := 0; i < pushes; i++ {
					k := kv.Key(rng.Intn(32))
					h.PushAsync([]kv.Key{k}, []float32{1, 2})
				}
				if err := h.WaitAll(); err != nil {
					t.Error(err)
				}
			})
			// Sum over all keys must equal total pushes.
			var sum0, sum1 float32
			buf := make([]float32, 2)
			for k := kv.Key(0); k < 32; k++ {
				sys.ReadParameter(k, buf)
				sum0 += buf[0]
				sum1 += buf[1]
			}
			want := float32(8 * pushes)
			if sum0 != want || sum1 != 2*want {
				t.Fatalf("sums = (%v, %v), want (%v, %v)", sum0, sum1, want, 2*want)
			}
		})
	}
}

func TestLocalizeUnsupported(t *testing.T) {
	_, sys := newTestSystem(t, 2, 1, 8, 1, Config{})
	h := sys.Handle(0)
	if err := h.Localize([]kv.Key{1}); err != kv.ErrUnsupported {
		t.Fatalf("Localize = %v, want ErrUnsupported", err)
	}
	if err := h.LocalizeAsync([]kv.Key{1}).Wait(); err != kv.ErrUnsupported {
		t.Fatalf("LocalizeAsync = %v, want ErrUnsupported", err)
	}
}

func TestPullIfLocal(t *testing.T) {
	_, sys := newTestSystem(t, 2, 1, 8, 1, Config{FastLocalAccess: true})
	h0 := sys.Handle(0) // node 0 owns keys 0..3
	buf := make([]float32, 1)
	ok, err := h0.PullIfLocal([]kv.Key{2}, buf)
	if err != nil || !ok {
		t.Fatalf("PullIfLocal(local key) = (%v, %v)", ok, err)
	}
	ok, err = h0.PullIfLocal([]kv.Key{6}, buf)
	if err != nil || ok {
		t.Fatalf("PullIfLocal(remote key) = (%v, %v), want false", ok, err)
	}
	ok, err = h0.PullIfLocal([]kv.Key{2, 6}, buf)
	if err != nil || ok {
		t.Fatalf("PullIfLocal(mixed) = (%v, %v), want false", ok, err)
	}
}

func TestInitAndReadParameter(t *testing.T) {
	_, sys := newTestSystem(t, 2, 1, 8, 2, Config{})
	sys.Init(func(k kv.Key, v []float32) {
		v[0] = float32(k)
		v[1] = float32(k) * 10
	})
	buf := make([]float32, 2)
	for k := kv.Key(0); k < 8; k++ {
		sys.ReadParameter(k, buf)
		if buf[0] != float32(k) || buf[1] != float32(k)*10 {
			t.Fatalf("key %d = %v", k, buf)
		}
	}
	// Workers observe initialized values too.
	h := sys.Handle(1)
	if err := h.Pull([]kv.Key{7}, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 7 || buf[1] != 70 {
		t.Fatalf("pull after init = %v", buf)
	}
}

func TestBufferLengthValidation(t *testing.T) {
	_, sys := newTestSystem(t, 1, 1, 8, 3, Config{})
	h := sys.Handle(0)
	if err := h.Pull([]kv.Key{0}, make([]float32, 2)); err == nil {
		t.Fatal("short pull buffer accepted")
	}
	if err := h.Push([]kv.Key{0}, make([]float32, 4)); err == nil {
		t.Fatal("long push buffer accepted")
	}
}

func TestEmptyOps(t *testing.T) {
	_, sys := newTestSystem(t, 1, 1, 8, 1, Config{})
	h := sys.Handle(0)
	if err := h.Pull(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.Push(nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatsLocalVsRemote(t *testing.T) {
	_, sys := newTestSystem(t, 2, 1, 8, 1, Config{FastLocalAccess: true})
	h := sys.Handle(0)
	buf := make([]float32, 1)
	if err := h.Pull([]kv.Key{0}, buf); err != nil { // local (node 0 owns 0..3)
		t.Fatal(err)
	}
	if err := h.Pull([]kv.Key{5}, buf); err != nil { // remote
		t.Fatal(err)
	}
	st := sys.Stats()[0]
	if st.LocalReads.Load() != 1 {
		t.Fatalf("LocalReads = %d, want 1", st.LocalReads.Load())
	}
	if st.RemoteReads.Load() != 1 {
		t.Fatalf("RemoteReads = %d, want 1", st.RemoteReads.Load())
	}
}

func TestBarrierThroughHandle(t *testing.T) {
	cl, sys := newTestSystem(t, 2, 2, 8, 1, Config{})
	var mu sync.Mutex
	order := []int{}
	cl.RunWorkers(func(node, worker int) {
		h := sys.Handle(worker)
		mu.Lock()
		order = append(order, 0) // phase 0 marker
		mu.Unlock()
		h.Barrier()
		mu.Lock()
		order = append(order, 1)
		mu.Unlock()
	})
	// All phase-0 markers must precede all phase-1 markers.
	for i := 0; i < 4; i++ {
		if order[i] != 0 {
			t.Fatalf("barrier violated: %v", order)
		}
	}
	for i := 4; i < 8; i++ {
		if order[i] != 1 {
			t.Fatalf("barrier violated: %v", order)
		}
	}
}

// TestLoopbackVsSharedMemoryAccounting verifies that without fast local
// access, even node-local operations generate loopback network traffic
// (modeling PS-Lite's IPC path), while fast local access avoids it.
func TestLoopbackVsSharedMemoryAccounting(t *testing.T) {
	cl, sys := newTestSystem(t, 1, 1, 4, 1, Config{})
	h := sys.Handle(0)
	buf := make([]float32, 1)
	if err := h.Pull([]kv.Key{0}, buf); err != nil {
		t.Fatal(err)
	}
	if got := cl.Net().Stats().LoopbackMessages; got != 2 { // request + response
		t.Fatalf("loopback messages = %d, want 2", got)
	}

	cl2, sys2 := newTestSystem(t, 1, 1, 4, 1, Config{FastLocalAccess: true})
	h2 := sys2.Handle(0)
	if err := h2.Pull([]kv.Key{0}, buf); err != nil {
		t.Fatal(err)
	}
	if got := cl2.Net().Stats().LoopbackMessages; got != 0 {
		t.Fatalf("fast-local loopback messages = %d, want 0", got)
	}
}
