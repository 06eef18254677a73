package lapse_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"lapse"
)

// perKey issues op once over all of keys (one multi-key operation), or — the
// unbatched reference — once per key, as single-key operations over the
// key's slice of buf.
func perKey(single bool, keys []lapse.Key, buf []float32, op func([]lapse.Key, []float32) error) error {
	if !single {
		return op(keys, buf)
	}
	l := len(buf) / len(keys)
	for i := range keys {
		if err := op(keys[i:i+1], buf[i*l:(i+1)*l]); err != nil {
			return err
		}
	}
	return nil
}

// pullRemote pulls keys homed at nodes 1 and 2 from worker 0 (node 0), in one
// multi-key Pull or key by key, and returns the number of remote network
// messages that took.
func pullRemote(t *testing.T, single bool) int64 {
	t.Helper()
	cl, err := lapse.NewCluster(lapse.Config{
		Nodes:          3,
		WorkersPerNode: 1,
		Keys:           99, // range-partitioned: node 1 homes 33–65, node 2 homes 66–98
		ValueLength:    2,
		ServerShards:   1, // exact message counts assume one message per destination
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	keys := []lapse.Key{40, 41, 42, 43, 70, 71, 72, 73}
	err = cl.Run(func(w *lapse.Worker) error {
		if w.ID() != 0 {
			return nil
		}
		return perKey(single, keys, make([]float32, 2*len(keys)), w.Pull)
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl.Stats().NetworkMessages
}

// TestMultiKeyPullBatchesPerDestination asserts the batching contract of the
// unified server runtime: a multi-key remote Pull produces one request
// message per destination node (and one grouped response back per node), not
// one message per key.
func TestMultiKeyPullBatchesPerDestination(t *testing.T) {
	batched := pullRemote(t, false)
	// 8 remote keys across 2 destination nodes: 2 requests + 2 responses.
	if batched != 4 {
		t.Fatalf("batched multi-key pull used %d remote messages, want 4 (one per destination each way)", batched)
	}
	unbatched := pullRemote(t, true)
	// The same keys as single-key pulls: 8 requests + 8 responses.
	if unbatched != 16 {
		t.Fatalf("unbatched multi-key pull used %d remote messages, want 16 (one per key each way)", unbatched)
	}
	if batched >= unbatched {
		t.Fatalf("batching did not reduce message count: batched=%d unbatched=%d", batched, unbatched)
	}
}

// TestBatchedPushMatchesUnbatchedValues asserts batching changes message
// counts only, never results: the same push workload converges to identical
// parameter values issued as multi-key operations and key by key.
func TestBatchedPushMatchesUnbatchedValues(t *testing.T) {
	run := func(single bool) ([]float32, int64) {
		cl, err := lapse.NewCluster(lapse.Config{
			Nodes:          2,
			WorkersPerNode: 2,
			Keys:           20,
			ValueLength:    2,
			ServerShards:   1, // message-count comparison assumes one message per destination
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		keys := make([]lapse.Key, 20)
		vals := make([]float32, 40)
		for i := range keys {
			keys[i] = lapse.Key(i)
			vals[2*i] = float32(i)
			vals[2*i+1] = 1
		}
		err = cl.Run(func(w *lapse.Worker) error {
			for iter := 0; iter < 3; iter++ {
				if err := perKey(single, keys, vals, w.Push); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float32, 40)
		for i := range keys {
			cl.Read(keys[i], got[2*i:2*i+2])
		}
		return got, cl.Stats().NetworkMessages
	}
	bVals, bMsgs := run(false)
	uVals, uMsgs := run(true)
	for i := range bVals {
		if bVals[i] != uVals[i] {
			t.Fatalf("value %d differs: batched %v, unbatched %v", i, bVals[i], uVals[i])
		}
		// 4 workers × 3 iterations of the same push.
		want := float32(12) * func() float32 {
			if i%2 == 0 {
				return float32(i / 2)
			}
			return 1
		}()
		if bVals[i] != want {
			t.Fatalf("value %d = %v, want %v", i, bVals[i], want)
		}
	}
	if bMsgs >= uMsgs {
		t.Fatalf("batching did not reduce push messages: batched=%d unbatched=%d", bMsgs, uMsgs)
	}
}

// localizeThenForward measures the remote messages of (a) a multi-key
// Localize of keys homed at node 1 issued from node 0 and (b) a subsequent
// multi-key Pull of those keys from node 2, which the home must forward to
// the new owner. Both phases exercise batching paths that Pull/Push alone do
// not: the localize request/transfer grouping and the server-side forward
// grouping. With single set, both phases run key by key.
func localizeThenForward(t *testing.T, single bool) (locMsgs, fwdMsgs int64) {
	t.Helper()
	cl, err := lapse.NewCluster(lapse.Config{
		Nodes:          3,
		WorkersPerNode: 1,
		Keys:           99, // range-partitioned: node 1 homes 33–65
		ValueLength:    2,
		ServerShards:   1, // exact message counts assume one message per destination
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	keys := []lapse.Key{40, 41, 42, 43}
	var afterLocalize int64
	err = cl.Run(func(w *lapse.Worker) error {
		if w.Node() == 0 {
			localize := func(ks []lapse.Key, _ []float32) error { return w.Localize(ks) }
			if err := perKey(single, keys, make([]float32, len(keys)), localize); err != nil {
				return err
			}
			afterLocalize = cl.Stats().NetworkMessages
		}
		w.Barrier()
		if w.Node() == 2 {
			return perKey(single, keys, make([]float32, 2*len(keys)), w.Pull)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := cl.Stats().NetworkMessages
	return afterLocalize, total - afterLocalize
}

// TestLocalizeAndForwardBatchPerDestination covers the two batching paths
// beyond worker pull/push dispatch: relocation requests group per home node
// (with the transfer coming back as one message), and a home node groups the
// keys it forwards to an owner into one message.
func TestLocalizeAndForwardBatchPerDestination(t *testing.T) {
	locB, fwdB := localizeThenForward(t, false)
	// Localize: 1 request (0→1; the instruct is home-local) + 1 transfer
	// (1→0). Forwarded pull: 1 request (2→1) + 1 forward (1→0) + 1
	// grouped response (0→2).
	if locB != 2 || fwdB != 3 {
		t.Fatalf("batched localize/forward used %d/%d remote messages, want 2/3", locB, fwdB)
	}
	locU, fwdU := localizeThenForward(t, true)
	// Key by key: 4 localizes + 4 transfers; 4 pulls + 4 forwards + 4
	// responses.
	if locU != 8 || fwdU != 12 {
		t.Fatalf("unbatched localize/forward used %d/%d remote messages, want 8/12", locU, fwdU)
	}
}

// TestDuplicateKeyOperations pins the per-occurrence offset handling of the
// dispatch path through the whole stack: a pull or push that names the same
// remote key twice must read/write both buffer regions (the old key→offset
// map collapsed the occurrences, leaving the first pull region unfilled and
// applying the wrong push region twice).
func TestDuplicateKeyOperations(t *testing.T) {
	cl, err := lapse.NewCluster(lapse.Config{
		Nodes:          2,
		WorkersPerNode: 1,
		Keys:           20, // range-partitioned: node 1 homes 10–19
		ValueLength:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(w *lapse.Worker) error {
		if w.ID() != 0 {
			return nil
		}
		keys := []lapse.Key{15, 15, 12} // 15 twice, all homed remotely
		if err := w.Push(keys, []float32{1, 2, 4, 8, 16, 32}); err != nil {
			return err
		}
		dst := []float32{-1, -1, -1, -1, -1, -1}
		if err := w.Pull(keys, dst); err != nil {
			return err
		}
		want := []float32{5, 10, 5, 10, 16, 32} // both pushes applied, both regions filled
		for i := range want {
			if dst[i] != want[i] {
				return fmt.Errorf("duplicate-key pull = %v, want %v", dst, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunJoinsAllWorkerErrors asserts Cluster.Run reports every failed
// worker, not just the first one.
func TestRunJoinsAllWorkerErrors(t *testing.T) {
	cl, err := lapse.NewCluster(lapse.Config{Nodes: 2, WorkersPerNode: 2, Keys: 4, ValueLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sentinel := errors.New("deliberate failure")
	err = cl.Run(func(w *lapse.Worker) error {
		if w.ID()%2 == 1 {
			return fmt.Errorf("id %d: %w", w.ID(), sentinel)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run error = %v, want wrapped sentinel", err)
	}
	for _, id := range []string{"worker 1", "worker 3"} {
		if !strings.Contains(err.Error(), id) {
			t.Fatalf("Run error %q does not mention %s", err, id)
		}
	}
	if err := cl.Run(func(w *lapse.Worker) error { return nil }); err != nil {
		t.Fatalf("clean Run returned %v", err)
	}
}
