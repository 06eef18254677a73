package consistency

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lapse/internal/classic"
	"lapse/internal/cluster"
	"lapse/internal/core"
	"lapse/internal/kv"
)

// This file reproduces Table 1 of the paper as executable checks: it drives
// each parameter-server architecture with concurrent workloads, records the
// operation histories, and verifies the guarantees the table claims.
//
//	Classic PS   (sync, async):           sequential consistency
//	Lapse        (sync, async, no cache): sequential consistency
//	Lapse        (async, caches on):      eventual only (see the Theorem 3
//	                                      test in package core)
//	Stale PS     (sync, async):           eventual + client-centric
//
// All runs use a zero-latency network; FIFO ordering (the assumption of the
// paper's proofs) is still guaranteed by the simulated links.

const (
	t1Keys    = 4
	t1Rounds  = 8
	t1Workers = 2 // per node
	t1Nodes   = 2
)

// t1Delta is what worker w adds per push: 16^w, so a value read decodes into
// one count of pushes per worker (a hex digit each; 8 rounds never carry, and
// the sums stay exact in float32 at 4 workers). A pull that saw another
// worker's push in place of its worker's own preceding one then shows as the
// read-your-writes violation it is, where equal deltas would hide it behind
// "read >= own pushes".
func t1Delta(worker int) float32 { return float32(int(1) << (4 * worker)) }

// runCounterWorkload has every worker repeatedly add to a shared key and
// read it, recording the history. The key is chosen to be remote for half the
// workers; relocate, if set, localizes keys between rounds to stir DPA.
func runCounterWorkload(t *testing.T, cl *cluster.Cluster, handleOf func(worker int) kv.KV,
	async bool, relocate bool) (*Recorder, History) {
	t.Helper()
	rec := NewRecorder(cl.TotalWorkers())
	cl.RunWorkers(func(node, worker int) {
		h := handleOf(worker)
		rng := rand.New(rand.NewSource(int64(worker)))
		buf := make([]float32, 1)
		delta := []float32{t1Delta(worker)}
		for r := 0; r < t1Rounds; r++ {
			k := kv.Key(rng.Intn(t1Keys))
			if relocate && rng.Intn(2) == 0 {
				if err := h.Localize([]kv.Key{k}); err != nil {
					t.Error(err)
					return
				}
			}
			// Record in program (issue) order.
			rec.Push(worker, k, float64(delta[0]))
			if async {
				h.PushAsync([]kv.Key{k}, delta)
			} else {
				if err := h.Push([]kv.Key{k}, delta); err != nil {
					t.Error(err)
					return
				}
			}
			if err := h.Pull([]kv.Key{k}, buf); err != nil {
				t.Error(err)
				return
			}
			rec.Pull(worker, k, float64(buf[0]))
		}
		if err := h.WaitAll(); err != nil {
			t.Error(err)
		}
	})
	return rec, rec.History()
}

// dumpHistory renders a t1Delta history for a failure report.
func dumpHistory(h History) string {
	var b strings.Builder
	for k := kv.Key(0); k < t1Keys; k++ {
		for w, ops := range h.PerKey()[k].Workers {
			fmt.Fprintf(&b, "key %d worker %d:", k, w)
			for _, op := range ops {
				if op.Type == Push {
					fmt.Fprintf(&b, " +%d", w)
				} else {
					fmt.Fprintf(&b, " =%04x", int(op.Value))
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func checkSequentialAndEventual(t *testing.T, h History, read func(k kv.Key) float64) {
	t.Helper()
	defer func() {
		if t.Failed() {
			t.Log("history, per key and worker in program order (+w: push by worker w; =abcd: pull that saw a, b, c, d pushes of workers 3, 2, 1, 0):\n" + dumpHistory(h))
		}
	}()
	if err := CheckSequential(h); err != nil {
		t.Errorf("sequential consistency violated: %v", err)
	}
	for k := kv.Key(0); k < t1Keys; k++ {
		if err := CheckEventual(h, k, read(k)); err != nil {
			t.Errorf("eventual consistency violated: %v", err)
		}
	}
	if err := CheckReadYourWrites(h); err != nil {
		t.Errorf("read-your-writes violated: %v", err)
	}
	// Decoded: a worker's pull holds exactly as many of its own pushes as it
	// issued before it — a sum that merely is large enough does not do.
	for w, ops := range h.Workers {
		own := make(map[kv.Key]int)
		for i, op := range ops {
			if op.Type == Push {
				own[op.Key]++
			} else if saw := int(op.Value) >> (4 * w) & 15; saw != own[op.Key] {
				t.Errorf("read-your-writes violated: worker %d op %d: pull of key %d saw %d of its %d preceding pushes",
					w, i, op.Key, saw, own[op.Key])
			}
		}
	}
	if err := CheckMonotonicReads(h); err != nil {
		t.Errorf("monotonic reads violated: %v", err)
	}
}

func TestTable1ClassicSequential(t *testing.T) {
	for _, async := range []bool{false, true} {
		name := map[bool]string{false: "sync", true: "async"}[async]
		t.Run(name, func(t *testing.T) {
			cl := cluster.New(cluster.Config{Nodes: t1Nodes, WorkersPerNode: t1Workers})
			sys := classic.New(cl, kv.NewUniformLayout(t1Keys, 1), classic.Config{FastLocalAccess: true})
			defer func() { cl.Close(); sys.Shutdown() }()
			_, h := runCounterWorkload(t, cl, sys.Handle, async, false)
			checkSequentialAndEventual(t, h, func(k kv.Key) float64 {
				buf := make([]float32, 1)
				sys.ReadParameter(k, buf)
				return float64(buf[0])
			})
		})
	}
}

func TestTable1LapseSequential(t *testing.T) {
	for _, async := range []bool{false, true} {
		name := map[bool]string{false: "sync", true: "async-nocache"}[async]
		t.Run(name, func(t *testing.T) {
			cl := cluster.New(cluster.Config{Nodes: t1Nodes, WorkersPerNode: t1Workers})
			sys := core.New(cl, kv.NewUniformLayout(t1Keys, 1), core.Config{})
			defer func() { cl.Close(); sys.Shutdown() }()
			// relocate=true: guarantees hold in the presence of
			// relocations (Theorems 1 and 2).
			_, h := runCounterWorkload(t, cl, sys.Handle, async, true)
			checkSequentialAndEventual(t, h, func(k kv.Key) float64 {
				buf := make([]float32, 1)
				sys.ReadParameter(k, buf)
				return float64(buf[0])
			})
		})
	}
}

func TestTable1LapseCachedSyncSequential(t *testing.T) {
	// With location caches, synchronous operations remain sequentially
	// consistent (Table 1: Lapse, caches on, sync column).
	cl := cluster.New(cluster.Config{Nodes: t1Nodes, WorkersPerNode: t1Workers})
	sys := core.New(cl, kv.NewUniformLayout(t1Keys, 1), core.Config{LocationCaches: true})
	defer func() { cl.Close(); sys.Shutdown() }()
	_, h := runCounterWorkload(t, cl, sys.Handle, false, true)
	checkSequentialAndEventual(t, h, func(k kv.Key) float64 {
		buf := make([]float32, 1)
		sys.ReadParameter(k, buf)
		return float64(buf[0])
	})
}

func TestTable1LapseCachedAsyncEventual(t *testing.T) {
	// With location caches and asynchronous operations, Lapse only
	// guarantees eventual consistency (Theorem 3). We verify the eventual
	// guarantee here; the deterministic program-order violation is
	// constructed in package core's Theorem 3 test.
	cl := cluster.New(cluster.Config{Nodes: t1Nodes, WorkersPerNode: t1Workers})
	sys := core.New(cl, kv.NewUniformLayout(t1Keys, 1), core.Config{LocationCaches: true})
	defer func() { cl.Close(); sys.Shutdown() }()
	_, h := runCounterWorkload(t, cl, sys.Handle, true, true)
	for k := kv.Key(0); k < t1Keys; k++ {
		buf := make([]float32, 1)
		sys.ReadParameter(k, buf)
		if err := CheckEventual(h, k, float64(buf[0])); err != nil {
			t.Error(err)
		}
	}
}

func TestTable1StaleClientCentric(t *testing.T) {
	// The stale PS provides eventual consistency and the client-centric
	// session guarantees, but not sequential consistency.
	cl := cluster.New(cluster.Config{Nodes: t1Nodes, WorkersPerNode: t1Workers})
	sys := classic.NewStale(cl, kv.NewUniformLayout(t1Keys, 1), classic.StaleConfig{Staleness: 1})
	defer func() { cl.Close(); sys.Shutdown() }()
	rec := NewRecorder(cl.TotalWorkers())
	cl.RunWorkers(func(node, worker int) {
		h := sys.Handle(worker)
		rng := rand.New(rand.NewSource(int64(worker)))
		buf := make([]float32, 1)
		for r := 0; r < t1Rounds; r++ {
			k := kv.Key(rng.Intn(t1Keys))
			rec.Push(worker, k, 1)
			if err := h.Push([]kv.Key{k}, []float32{1}); err != nil {
				t.Error(err)
				return
			}
			if err := h.Pull([]kv.Key{k}, buf); err != nil {
				t.Error(err)
				return
			}
			rec.Pull(worker, k, float64(buf[0]))
			h.Clock()
		}
		h.Barrier()
	})
	h := rec.History()
	if err := CheckReadYourWrites(h); err != nil {
		t.Errorf("read-your-writes violated: %v", err)
	}
	if err := CheckMonotonicReads(h); err != nil {
		t.Errorf("monotonic reads violated: %v", err)
	}
	for k := kv.Key(0); k < t1Keys; k++ {
		buf := make([]float32, 1)
		sys.ReadParameter(k, buf)
		if err := CheckEventual(h, k, float64(buf[0])); err != nil {
			t.Error(err)
		}
	}
}
