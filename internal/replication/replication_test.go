package replication

import (
	"sync"
	"testing"

	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/msg"
	"lapse/internal/partition"
)

// testFabric wires managers together through an explicit message queue so
// tests control delivery order and can observe messages in flight.
type testFabric struct {
	managers []*Manager
	queue    []fabricMsg
}

type fabricMsg struct {
	dest int
	m    any
}

func newTestFabric(nodes int, layout kv.Layout, keys []kv.Key) *testFabric {
	return newShardedFabric(nodes, 1, layout, keys)
}

// newShardedFabric builds the fabric for a runtime of the given shard count,
// with keys entered at zero the way a promotion enters them: EnterHomeKey at
// each key's home, EnterKey everywhere else. Like a transport, it carries a
// decoded copy of every message, so senders may reuse theirs once Send
// returns.
func newShardedFabric(nodes, shards int, layout kv.Layout, keys []kv.Key) *testFabric {
	f := &testFabric{}
	home := partition.NewRange(layout.NumKeys(), nodes)
	for n := 0; n < nodes; n++ {
		stats := make([]*metrics.ServerStats, shards)
		for s := range stats {
			stats[s] = &metrics.ServerStats{}
		}
		m := NewManager(Config{
			Node: n, Nodes: nodes, Layout: layout, Home: home, Stats: stats,
			Send: func(dest int, m any) {
				c, _, err := msg.Decode(msg.Encode(m))
				if err != nil {
					panic(err)
				}
				f.queue = append(f.queue, fabricMsg{dest, c})
			},
		})
		for _, k := range keys {
			if zero := make([]float32, layout.Len(k)); home.NodeOf(k) == n {
				m.EnterHomeKey(k, zero)
			} else {
				m.EnterKey(k, zero)
			}
		}
		f.managers = append(f.managers, m)
	}
	return f
}

// deliverAll drains the queue (including messages enqueued while draining).
func (f *testFabric) deliverAll() {
	for len(f.queue) > 0 {
		fm := f.queue[0]
		f.queue = f.queue[1:]
		switch t := fm.m.(type) {
		case *msg.ReplicaSync:
			f.managers[fm.dest].HandleSync(t)
		case *msg.ReplicaRefresh:
			f.managers[fm.dest].HandleRefresh(t)
		default:
			panic("unexpected message type")
		}
	}
}

func (f *testFabric) flushAll() {
	for _, m := range f.managers {
		m.Flush()
	}
}

func replicaOf(t *testing.T, m *Manager, k kv.Key, l int) []float32 {
	t.Helper()
	dst := make([]float32, l)
	m.ReadReplica(k, dst)
	return dst
}

func TestConvergenceAfterPushesStop(t *testing.T) {
	layout := kv.NewUniformLayout(8, 2)
	keys := []kv.Key{0, 3, 7} // homed at nodes 0, 1, 3 (8 keys over 4 nodes)
	f := newTestFabric(4, layout, keys)

	// Every node pushes a distinct delta to every replicated key.
	for n, m := range f.managers {
		for _, k := range keys {
			m.Push(k, []float32{float32(n + 1), 1})
		}
	}
	// Local replica reflects own writes immediately (read-your-writes).
	for n, m := range f.managers {
		for _, k := range keys {
			got := replicaOf(t, m, k, 2)
			if got[0] != float32(n+1) || got[1] != 1 {
				t.Fatalf("node %d replica of %d = %v before sync, want own delta", n, k, got)
			}
		}
	}
	// Two sync rounds with full delivery: deltas reach homes, refreshes fan
	// back out.
	for i := 0; i < 2; i++ {
		f.flushAll()
		f.deliverAll()
	}
	want := []float32{1 + 2 + 3 + 4, 4}
	for n, m := range f.managers {
		for _, k := range keys {
			if got := replicaOf(t, m, k, 2); got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("node %d replica of key %d = %v, want %v", n, k, got, want)
			}
		}
	}
	// Quiescence: with nothing dirty, another round sends no messages.
	f.flushAll()
	if len(f.queue) != 0 {
		t.Fatalf("quiescent sync round sent %d messages, want 0", len(f.queue))
	}
}

// TestRefreshPreservesUnmergedDeltas pins the read-your-writes invariant
// across a refresh install: deltas that are in flight (sent but not yet
// acknowledged) or pending (not yet sent) must stay visible in the local
// replica when a refresh overwrites it.
func TestRefreshPreservesUnmergedDeltas(t *testing.T) {
	layout := kv.NewUniformLayout(4, 1)
	k := kv.Key(0) // homed at node 0
	f := newTestFabric(2, layout, []kv.Key{k})
	home, rep := f.managers[0], f.managers[1]

	// Node 1 pushes 5 and syncs: the delta is now in flight.
	rep.Push(k, []float32{5})
	rep.Flush()
	if len(f.queue) != 1 {
		t.Fatalf("queue has %d messages, want 1 sync", len(f.queue))
	}
	// Meanwhile the home merges a push of its own and broadcasts a refresh
	// that does NOT include node 1's in-flight delta.
	home.Push(k, []float32{100})
	home.Flush() // merges own delta, broadcasts refresh with Ack=0
	// Deliver the refresh first (it skipped ahead of the sync in this
	// fabric; on per-link FIFO transports the two travel different links,
	// so this ordering is realizable).
	var refresh *msg.ReplicaRefresh
	for i, fm := range f.queue {
		if r, ok := fm.m.(*msg.ReplicaRefresh); ok {
			refresh = r
			f.queue = append(f.queue[:i], f.queue[i+1:]...)
			break
		}
	}
	rep.HandleRefresh(refresh)
	// Node 1 must still see its own 5: 100 (merged) + 5 (in flight).
	if got := replicaOf(t, rep, k, 1); got[0] != 105 {
		t.Fatalf("replica after early refresh = %v, want 105", got[0])
	}
	// Node 1 pushes 2 more (pending) — still visible.
	rep.Push(k, []float32{2})
	if got := replicaOf(t, rep, k, 1); got[0] != 107 {
		t.Fatalf("replica after pending push = %v, want 107", got[0])
	}
	// Let everything drain: sync applies at home, second round refreshes
	// with the ack, retiring the in-flight delta exactly once.
	f.deliverAll()
	for i := 0; i < 2; i++ {
		f.flushAll()
		f.deliverAll()
	}
	for n, m := range f.managers {
		if got := replicaOf(t, m, k, 1); got[0] != 107 {
			t.Fatalf("node %d converged to %v, want 107", n, got[0])
		}
	}
}

// TestSyncRoundIsONodesMessages pins the batching of a sync round: one
// message per (destination, dirty shard), however many keys are dirty, and
// every message shard-pure so it travels on its keys' stream.
func TestSyncRoundIsONodesMessages(t *testing.T) {
	const nodes, shards, numKeys = 4, 4, 256
	layout := kv.NewUniformLayout(numKeys, 1)
	keys := make([]kv.Key, numKeys)
	for i := range keys {
		keys[i] = kv.Key(i)
	}
	f := newShardedFabric(nodes, shards, layout, keys)
	// Every node dirties every key.
	for _, m := range f.managers {
		for _, k := range keys {
			m.Push(k, []float32{1})
		}
	}
	pure := func() {
		t.Helper()
		for _, fm := range f.queue {
			if err := msg.CheckShardPure(fm.m, shards); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.flushAll()
	// Phase 1: each node's stripes send at most nodes-1 syncs plus nodes-1
	// refreshes each (its self-homed keys are dirty) — O(nodes × shards),
	// not O(keys).
	if max := nodes * shards * 2 * (nodes - 1); len(f.queue) > max {
		t.Fatalf("sync round sent %d messages for %d dirty keys, want <= %d", len(f.queue), numKeys, max)
	}
	pure()
	f.deliverAll()
	f.flushAll()
	if max := nodes * shards * (nodes - 1); len(f.queue) > max {
		t.Fatalf("refresh round sent %d messages, want <= %d", len(f.queue), max)
	}
	pure()
	f.deliverAll()
	for n, m := range f.managers {
		for _, k := range keys {
			if got := replicaOf(t, m, k, 1); got[0] != nodes {
				t.Fatalf("node %d key %d = %v, want %d", n, k, got[0], nodes)
			}
		}
		// Each stripe counted its own sends.
		for s, st := range m.cfg.Stats {
			if st.ReplicaSyncMessages.Load() == 0 {
				t.Fatalf("node %d shard %d counted no sync messages", n, s)
			}
		}
	}
}

func TestInitKeySeedsReplicaAndAuthority(t *testing.T) {
	layout := kv.NewUniformLayout(2, 2)
	f := newTestFabric(2, layout, []kv.Key{0, 1})
	for _, m := range f.managers {
		m.InitKey(0, []float32{3, 4})
		m.InitKey(1, []float32{5, 6})
	}
	for n, m := range f.managers {
		if got := replicaOf(t, m, 0, 2); got[0] != 3 || got[1] != 4 {
			t.Fatalf("node %d replica of 0 = %v after init", n, got)
		}
	}
	auth := make([]float32, 2)
	f.managers[1].ReadAuthoritative(1, auth) // key 1 homed at node 1
	if auth[0] != 5 || auth[1] != 6 {
		t.Fatalf("authority of key 1 = %v after init", auth)
	}
	// Init values merge with later pushes.
	f.managers[0].Push(1, []float32{1, 1})
	for i := 0; i < 2; i++ {
		f.flushAll()
		f.deliverAll()
	}
	for n, m := range f.managers {
		if got := replicaOf(t, m, 1, 2); got[0] != 6 || got[1] != 7 {
			t.Fatalf("node %d replica of 1 = %v, want [6 7]", n, got)
		}
	}
}

// TestSeqAfterWrapsAround pins the serial-number comparison: sync rounds
// stay ordered across uint32 wraparound, so long-running clusters keep
// retiring in-flight deltas.
func TestSeqAfterWrapsAround(t *testing.T) {
	const max = ^uint32(0)
	cases := []struct {
		a, b uint32
		want bool
	}{
		{1, 0, true},
		{0, 1, false},
		{5, 5, false},
		{0, max, true},     // post-wrap round is later
		{max, 0, false},    // pre-wrap round is earlier
		{3, max - 2, true}, // spanning the wrap by a few rounds
		{max - 2, 3, false},
	}
	for _, c := range cases {
		if got := seqAfter(c.a, c.b); got != c.want {
			t.Errorf("seqAfter(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestPullCountsReplicaHits(t *testing.T) {
	layout := kv.NewUniformLayout(1, 3)
	f := newTestFabric(1, layout, []kv.Key{0})
	m := f.managers[0]
	dst := make([]float32, 3)
	m.Pull(0, dst)
	m.Pull(0, dst)
	if got := m.cfg.Stats[0].ReplicaHits.Load(); got != 2 {
		t.Fatalf("ReplicaHits = %d, want 2", got)
	}
	if got := m.cfg.Stats[0].ReadValues.Load(); got != 6 {
		t.Fatalf("ReadValues = %d, want 6", got)
	}
}

// TestDemoteAckFoldsPendingOnce walks a demotion through the manager: the
// replica's acknowledgement carries only what no sync carried, the sync that
// carried the rest folds first, and an acknowledgement no replica sends is
// refused without touching the authoritative value.
func TestDemoteAckFoldsPendingOnce(t *testing.T) {
	layout := kv.NewUniformLayout(4, 1)
	k := kv.Key(0) // homed at node 0
	f := newTestFabric(2, layout, []kv.Key{k})
	home, rep := f.managers[0], f.managers[1]
	rep.Push(k, []float32{5})
	rep.Flush() // 5 is in flight
	rep.Push(k, []float32{2})
	if got := rep.DemoteLocal(k); len(got) != 1 || got[0] != 2 {
		t.Fatalf("DemoteLocal = %v, want the pending 2 only", got)
	}
	f.deliverAll() // the sync, ahead of the acknowledgement on its stream
	for _, bad := range [][]float32{{1, 1}, {1, 1, 1}} {
		if home.ApplyDemoteAck(k, bad) {
			t.Fatalf("ApplyDemoteAck accepted %d values for a one-value key", len(bad))
		}
	}
	if home.ApplyDemoteAck(1, []float32{1}) || home.ApplyDemoteAck(99, nil) {
		t.Fatal("ApplyDemoteAck accepted a key the node does not home as a replicated key")
	}
	if !home.ApplyDemoteAck(k, []float32{2}) {
		t.Fatal("ApplyDemoteAck refused the pending deltas")
	}
	if got := home.FinalizeDemote(k); got[0] != 7 {
		t.Fatalf("demoted value = %v, want 7", got[0])
	}
}

// TestCopiesUnderConcurrentUse drives the table from several goroutines at
// once, as a node does: workers push to and read replicas, read a leased
// copy and mark their own pushes to it, while another goroutine runs sync
// rounds, delivers the refreshes and renews the lease. The replicas still
// converge to every push.
func TestCopiesUnderConcurrentUse(t *testing.T) {
	const workers, pushes = 2, 300
	layout := kv.NewUniformLayout(8, 2)
	keys := []kv.Key{0, 5} // homed at nodes 0 and 1, shards 0 and 1
	f := newShardedFabric(2, 2, layout, keys)
	leased := kv.Key(3) // homed at node 0, leased at node 1
	var wg sync.WaitGroup
	for _, m := range f.managers {
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make([]float32, 2)
				for range pushes {
					for _, k := range keys {
						m.Push(k, []float32{1, 1})
						m.Pull(k, dst)
					}
					m.PushBegin(leased)
					m.ReadLease(leased, dst)
					m.PushEnd(leased, 0)
				}
			}()
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	holder := f.managers[1]
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		holder.Lease(leased, []float32{1, 1}, 1_000_000, 0)
		holder.HandleRefresh(&msg.ReplicaRefresh{Origin: 0, Ack: 1_000_000, Keys: []kv.Key{leased}, Vals: []float32{2, 2}})
		f.flushAll()
		f.deliverAll()
	}
	for range 2 {
		f.flushAll()
		f.deliverAll()
	}
	want := float32(len(f.managers) * workers * pushes)
	for n, m := range f.managers {
		for _, k := range keys {
			if got := replicaOf(t, m, k, 2); got[0] != want || got[1] != want {
				t.Fatalf("node %d replica of key %d = %v, want %v", n, k, got, want)
			}
		}
	}
}
