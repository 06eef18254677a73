package lapse_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"lapse"
)

// TestReplicateFacade drives the hot-key replication subsystem through the
// public API: replicated keys serve locally, stats surface the replica
// counters, and replicas converge to the merged value.
func TestReplicateFacade(t *testing.T) {
	hot := []lapse.Key{0, 1, 2, 3}
	cl, err := lapse.NewCluster(lapse.Config{
		Nodes: 2, WorkersPerNode: 2, Keys: 16, ValueLength: 2,
		Replicate: hot,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ones := make([]float32, len(hot)*2)
	for i := range ones {
		ones[i] = 1
	}
	err = cl.Run(func(w *lapse.Worker) error {
		if err := w.Push(hot, ones); err != nil {
			return err
		}
		buf := make([]float32, len(hot)*2)
		return w.Pull(hot, buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	st := cl.Stats()
	if st.ReplicaHits == 0 {
		t.Fatalf("ReplicaHits = 0 after pulling replicated keys; stats %+v", st)
	}
	if st.RemoteReads != 0 {
		t.Fatalf("RemoteReads = %d for replicated-only workload, want 0", st.RemoteReads)
	}

	// The background sync converges every replica; verify through worker
	// pulls on each node (eventual: poll with a deadline).
	want := float32(cl.Workers())
	deadline := time.Now().Add(5 * time.Second)
	for {
		cl.SyncReplicas()
		var diverged atomic.Bool
		err = cl.Run(func(w *lapse.Worker) error {
			buf := make([]float32, len(hot)*2)
			if err := w.Pull(hot, buf); err != nil {
				return err
			}
			for _, v := range buf {
				if v != want {
					diverged.Store(true)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !diverged.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas did not converge")
		}
		time.Sleep(time.Millisecond)
	}
	if st := cl.Stats(); st.ReplicaSyncMessages == 0 {
		t.Fatal("ReplicaSyncMessages = 0 after convergence")
	}
}

func TestReplicateRejectsOutOfRangeKey(t *testing.T) {
	_, err := lapse.NewCluster(lapse.Config{
		Nodes: 1, WorkersPerNode: 1, Keys: 4, ValueLength: 1,
		Replicate: []lapse.Key{99},
	})
	if err == nil {
		t.Fatal("NewCluster accepted a replicated key outside the layout")
	}
}

// TestAsyncTryWait pins the Async completion API: TryWait surfaces the
// operation's error, which Done (by design) discards.
func TestAsyncTryWait(t *testing.T) {
	cl, err := lapse.NewCluster(lapse.Config{Nodes: 1, WorkersPerNode: 1, Keys: 4, ValueLength: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(w *lapse.Worker) error {
		// A buffer-size mismatch fails the operation immediately.
		bad := w.PullAsync([]lapse.Key{0}, make([]float32, 1))
		done, err := bad.TryWait()
		if !done {
			return errors.New("failed op not done")
		}
		if err == nil {
			return errors.New("TryWait returned nil error for failed op")
		}
		if !bad.Done() {
			return errors.New("Done disagrees with TryWait")
		}
		// A successful operation completes with nil error.
		good := w.PullAsync([]lapse.Key{0}, make([]float32, 2))
		if err := good.Wait(); err != nil {
			return err
		}
		done, err = good.TryWait()
		if !done || err != nil {
			return errors.New("TryWait after Wait should be (true, nil)")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
