package core

import (
	"sync"
	"testing"

	"lapse/internal/cluster"
	"lapse/internal/kv"
)

// BenchmarkFastPathTwoWorkers times the shared-memory fast path with two
// workers at once, one on each of two nodes: in every iteration each worker
// issues a 2-key Pull and a 2-key PushAsync on keys its own node holds. The
// workers share nothing by design, so whatever they do contend for — a lock,
// a cache line — shows as ns/op above the cost of one worker alone. Both
// handles run their first operation on the benchmark goroutine, so their
// scratch is allocated side by side, as it is whenever workers start on one P.
func BenchmarkFastPathTwoWorkers(b *testing.B) {
	const nKeys, vlen = 1024, 16 // vlen is mf_blocking's rank
	cl := cluster.New(cluster.Config{Nodes: 2, WorkersPerNode: 1})
	sys := New(cl, kv.NewUniformLayout(nKeys, vlen), Config{})
	defer func() {
		cl.Close()
		sys.Shutdown()
	}()
	const half = nKeys / 2 // node n homes keys [n·half, (n+1)·half)
	type worker struct {
		h          kv.KV
		keys       []kv.Key
		buf, delta []float32
	}
	ws := make([]*worker, 2)
	for n := range ws {
		w := &worker{h: sys.Handle(n), keys: make([]kv.Key, 2), buf: make([]float32, 2*vlen), delta: make([]float32, 2*vlen)}
		for _, k := range []kv.Key{kv.Key(n * half), kv.Key((n+1)*half - 1)} {
			if sys.OwnerOf(k) != n {
				b.Fatalf("key %d is owned by node %d, want %d", k, sys.OwnerOf(k), n)
			}
		}
		ws[n] = w
	}
	step := func(n, i int) error {
		w := ws[n]
		base := kv.Key(n * half)
		w.keys[0], w.keys[1] = base+kv.Key(2*i%half), base+kv.Key((2*i+1)%half)
		if err := w.h.Pull(w.keys, w.buf); err != nil {
			return err
		}
		w.h.PushAsync(w.keys, w.delta)
		return nil
	}
	for n := range ws {
		if err := step(n, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for n := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				if err := step(n, i); err != nil {
					b.Error(err)
					return
				}
			}
			if err := ws[n].h.WaitAll(); err != nil {
				b.Error(err)
			}
		}()
	}
	wg.Wait()
}
