package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"lapse/internal/cluster"
	"lapse/internal/consistency"
	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/msg"
	"lapse/internal/simnet"
)

// replicationCluster builds a zero-latency cluster with the given keys
// replicated and the background sync stopped, so tests drive sync rounds
// deterministically through FlushReplicas.
func replicationCluster(nodes, workers int, numKeys kv.Key, valLen int, replicate []kv.Key) (*cluster.Cluster, *System) {
	cl := cluster.New(cluster.Config{Nodes: nodes, WorkersPerNode: workers, Net: simnet.Config{}})
	sys := New(cl, kv.NewUniformLayout(numKeys, valLen), Config{Replicate: replicate})
	sys.stopLoops()
	return cl, sys
}

// awaitReplicaConvergence flushes sync rounds until every local node's
// replica of k equals want, or the deadline passes.
func awaitReplicaConvergence(t *testing.T, sys *System, k kv.Key, want []float32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	buf := make([]float32, len(want))
	for {
		converged := true
	check:
		for _, n := range sys.cl.LocalNodes() {
			sys.ReadReplica(n, k, buf)
			for i := range want {
				if buf[i] != want[i] {
					converged = false
					break check
				}
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas of key %d did not converge to %v (last view %v)", k, want, buf)
		}
		sys.FlushReplicas()
		time.Sleep(time.Millisecond)
	}
}

func TestReplicatedKeysServeLocallyAndConverge(t *testing.T) {
	const nodes, workers, valLen = 3, 2, 2
	hot := []kv.Key{0, 5, 9}
	cl, sys := replicationCluster(nodes, workers, 12, valLen, hot)
	defer func() { cl.Close(); sys.Shutdown() }()

	ones := make([]float32, len(hot)*valLen)
	for i := range ones {
		ones[i] = 1
	}
	errs := make([]error, cl.TotalWorkers())
	cl.RunWorkers(func(_, worker int) {
		h := sys.Handle(worker)
		// Pushes and pulls of replicated keys must be purely local.
		if err := h.Push(hot, ones); err != nil {
			errs[worker] = err
			return
		}
		dst := make([]float32, len(hot)*valLen)
		if err := h.Pull(hot, dst); err != nil {
			errs[worker] = err
			return
		}
		// Read-your-writes: a worker sees at least its own co-located
		// pushes (exact value depends on its neighbors' progress).
		for i, v := range dst {
			if v < 1 {
				errs[worker] = fmt.Errorf("value %d = %v, want >= 1 (own push missing)", i, v)
				return
			}
		}
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}

	// No network traffic so far: every access was a replica hit.
	if msgs := cl.Net().Stats().RemoteMessages; msgs != 0 {
		t.Fatalf("replicated accesses sent %d network messages, want 0", msgs)
	}
	tot := metrics.Sum(sys.Stats())
	if want := int64(nodes * workers * len(hot)); tot.ReplicaHits != want {
		t.Fatalf("ReplicaHits = %d, want %d", tot.ReplicaHits, want)
	}
	if tot.RemoteReads != 0 || tot.Relocations != 0 {
		t.Fatalf("replicated workload caused %d remote reads / %d relocations, want 0",
			tot.RemoteReads, tot.Relocations)
	}

	// Eventual consistency: all replicas converge to the sum of all pushes.
	want := make([]float32, valLen)
	for i := range want {
		want[i] = float32(nodes * workers)
	}
	for _, k := range hot {
		awaitReplicaConvergence(t, sys, k, want)
	}
	// And the authoritative value readable through ReadParameter agrees.
	buf := make([]float32, valLen)
	for _, k := range hot {
		sys.ReadParameter(k, buf)
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("ReadParameter(%d) = %v, want %v", k, buf, want)
			}
		}
	}
}

// TestReplicaSyncRoundIsONodesMessages pins the batching property of the
// sync cycle: one round moves every dirty key in one network message per
// (destination, dirty shard), independent of the number of keys.
func TestReplicaSyncRoundIsONodesMessages(t *testing.T) {
	const nodes, shards, numKeys = 4, 4, 512
	hot := make([]kv.Key, numKeys)
	for i := range hot {
		hot[i] = kv.Key(i)
	}
	cl := cluster.New(cluster.Config{Nodes: nodes, WorkersPerNode: 1, Net: simnet.Config{Shards: shards}})
	sys := New(cl, kv.NewUniformLayout(numKeys, 1), Config{Replicate: hot})
	defer func() { cl.Close(); sys.Shutdown() }()
	sys.stopLoops()

	ones := make([]float32, numKeys)
	for i := range ones {
		ones[i] = 1
	}
	cl.RunWorkers(func(_, worker int) {
		if err := sys.Handle(worker).Push(hot, ones); err != nil {
			t.Error(err)
		}
	})
	// All nodes now hold numKeys dirty keys in every shard. One flush sends,
	// per shard, each node's deltas (one ReplicaSync per home) and broadcasts
	// its self-homed merges (one ReplicaRefresh per other node): at most
	// 2·(nodes-1)·shards messages per node, with 512 dirty keys.
	before := cl.Net().Stats().RemoteMessages
	sys.FlushReplicas()
	waitQuiesce(cl)
	delta := cl.Net().Stats().RemoteMessages - before
	if max := int64(nodes * shards * 2 * (nodes - 1)); delta > max {
		t.Fatalf("one sync round sent %d messages for %d dirty keys, want <= %d (O(nodes × shards))", delta, numKeys, max)
	}
	// Convergence still completes (a few more such rounds).
	want := []float32{nodes}
	for _, k := range []kv.Key{0, 255, 511} {
		awaitReplicaConvergence(t, sys, k, want)
	}
	tot := metrics.Sum(sys.Stats())
	if tot.ReplicaSyncMessages == 0 {
		t.Fatal("ReplicaSyncMessages = 0 after sync rounds")
	}
}

// waitQuiesce waits until the network message count is stable, i.e. all
// in-flight sync traffic has been processed.
func waitQuiesce(cl *cluster.Cluster) {
	last := cl.Net().Stats().RemoteMessages
	for i := 0; i < 100; i++ {
		time.Sleep(2 * time.Millisecond)
		cur := cl.Net().Stats().RemoteMessages
		if cur == last {
			return
		}
		last = cur
	}
}

func TestLocalizeIsNoOpForReplicatedKeys(t *testing.T) {
	hot := []kv.Key{1}
	cl, sys := replicationCluster(2, 1, 4, 1, hot)
	defer func() { cl.Close(); sys.Shutdown() }()

	cl.RunWorkers(func(_, worker int) {
		h := sys.Handle(worker)
		// Localize of a replicated key succeeds without any message.
		if err := h.Localize(hot); err != nil {
			t.Errorf("worker %d: Localize(replicated) = %v", worker, err)
		}
		// Mixed localize still relocates the non-replicated keys. Each
		// worker localizes its own non-replicated key: if both took the
		// same key, one worker could steal it from the other between
		// Localize and PullIfLocal and the check would flake.
		own := kv.Key(2 + worker)
		if err := h.Localize([]kv.Key{1, own}); err != nil {
			t.Errorf("worker %d: Localize(mixed) = %v", worker, err)
		}
		dst := make([]float32, 2)
		if ok, err := h.PullIfLocal([]kv.Key{1, own}, dst); err != nil || !ok {
			t.Errorf("worker %d: PullIfLocal after mixed localize = (%v, %v), want (true, nil)", worker, ok, err)
		}
	})
	if tot := metrics.Sum(sys.Stats()); tot.Relocations == 0 {
		t.Error("mixed localize relocated nothing (key 3 should relocate)")
	}
}

func TestInitSeedsReplicatedKeys(t *testing.T) {
	hot := []kv.Key{0, 2}
	// Listed twice, a key still enters replication once.
	cl, sys := replicationCluster(2, 1, 4, 2, append(hot, hot...))
	defer func() { cl.Close(); sys.Shutdown() }()

	sys.Init(func(k kv.Key, val []float32) {
		val[0] = float32(k) + 10
		val[1] = float32(k) + 20
	})
	// Replicas on every node observe the seed; so does ReadParameter.
	buf := make([]float32, 2)
	for _, k := range hot {
		for n := 0; n < 2; n++ {
			sys.ReadReplica(n, k, buf)
			if buf[0] != float32(k)+10 || buf[1] != float32(k)+20 {
				t.Fatalf("node %d replica of %d = %v after Init", n, k, buf)
			}
		}
		sys.ReadParameter(k, buf)
		if buf[0] != float32(k)+10 || buf[1] != float32(k)+20 {
			t.Fatalf("ReadParameter(%d) = %v after Init", k, buf)
		}
	}
	// Pushes merge on top of the seed.
	cl.RunWorkers(func(_, worker int) {
		if err := sys.Handle(worker).Push([]kv.Key{0}, []float32{1, 1}); err != nil {
			t.Error(err)
		}
	})
	awaitReplicaConvergence(t, sys, 0, []float32{12, 22})
}

// TestReplicationEventualConsistencyChecker runs a concurrent push workload
// with the background sync cycle live (no explicit flush control) and
// verifies the Table-1 eventual-consistency guarantee with the
// internal/consistency checker: once pushes stop, every replica converges
// to the sum of all pushes. This is the replication counterpart of the
// Theorem-3 location-cache checks.
func TestReplicationEventualConsistencyChecker(t *testing.T) {
	const nodes, workers = 3, 2
	hot := []kv.Key{2}
	cl := cluster.New(cluster.Config{Nodes: nodes, WorkersPerNode: workers, Net: simnet.Config{}})
	sys := New(cl, kv.NewUniformLayout(4, 1), Config{Replicate: hot})
	defer func() { cl.Close(); sys.Shutdown() }()

	rec := consistency.NewRecorder(cl.TotalWorkers())
	cl.RunWorkers(func(_, worker int) {
		h := sys.Handle(worker)
		rng := rand.New(rand.NewSource(int64(worker)))
		for i := 0; i < 50; i++ {
			d := float64(rng.Intn(5))
			if err := h.Push(hot, []float32{float32(d)}); err != nil {
				t.Error(err)
				return
			}
			rec.Push(worker, hot[0], d)
		}
	})

	read := func() []float64 {
		out := make([]float64, 0, nodes)
		buf := make([]float32, 1)
		for n := 0; n < nodes; n++ {
			sys.ReadReplica(n, hot[0], buf)
			out = append(out, float64(buf[0]))
		}
		return out
	}
	if err := consistency.AwaitReplicasEventual(rec.History(), hot[0], read, sys.FlushReplicas, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestMalformedReplicationInputIsDropped pushes every shape of replication
// and management wire input no peer sends through the shard handlers of node
// 0, which homes keys 0..3: each is dropped whole — no panic, and no replica
// or authoritative value, locality state or owner entry moves — while a
// well-formed sync still merges. The controller is on, the nodes' background
// loops stopped, so only the table's messages reach the handlers.
func TestMalformedReplicationInputIsDropped(t *testing.T) {
	const shards = 2
	// Keys 0..3 are homed at node 0 and 4..7 at node 1; odd keys are shard 1.
	hot := []kv.Key{1, 3, 5}
	cl := cluster.New(cluster.Config{Nodes: 2, WorkersPerNode: 1, Net: simnet.Config{Shards: shards}})
	sys := New(cl, kv.NewUniformLayout(8, 2), Config{Replicate: hot, Adaptive: true})
	defer func() { cl.Close(); sys.Shutdown() }()
	sys.stopLoops()
	sys.Init(func(k kv.Key, v []float32) { v[0], v[1] = float32(k), float32(k) })
	// Key 6, homed at node 1, lives at node 0. The Localize completes when
	// the transfer lands, a moment before the drain opens the Owned fast
	// path; the snapshot below is taken after that.
	if err := sys.Handle(0).Localize([]kv.Key{6}); err != nil {
		t.Fatal(err)
	}
	nd := sys.nodes[0]
	for nd.state[6].Load() != stateOwned {
		runtime.Gosched()
	}
	snapshot := func() (vals []float32) {
		buf := make([]float32, 2)
		for _, k := range hot {
			nd.rep.ReadReplica(k, buf)
			vals = append(vals, buf...)
			if sys.HomeOf(k) == 0 {
				nd.rep.ReadAuthoritative(k, buf)
				vals = append(vals, buf...)
			}
		}
		for k := range nd.state {
			vals = append(vals, float32(nd.state[k].Load()), float32(nd.owner[k].Load()))
		}
		return vals
	}
	before := snapshot()
	two := []float32{1, 1}
	// report is a report from origin of the given keys, every one of them
	// thirty of its hundred waited-for accesses on twenty observations:
	// enough evidence and share to interest the origin.
	report := func(origin int32, keys ...kv.Key) *msg.Manage {
		vals := []float32{100, 40, 2}
		for range keys {
			vals = append(vals, 30)
		}
		for range keys {
			vals = append(vals, 20)
		}
		return &msg.Manage{Kind: msg.ManageReport, Origin: origin, Keys: keys, Vals: vals}
	}
	drop := func(t *testing.T, m any) {
		nd.sh[msg.ShardOf(m, shards)].HandleMessage(1, m)
		if got := snapshot(); !slices.Equal(got, before) {
			t.Fatalf("values moved: %v, want %v", got, before)
		}
	}
	type row struct {
		name string
		m    any
	}
	for _, c := range []row{
		{"sync short", &msg.ReplicaSync{Origin: 1, Seq: 1, Keys: []kv.Key{1}, Vals: []float32{1}}},
		{"sync long", &msg.ReplicaSync{Origin: 1, Seq: 1, Keys: []kv.Key{1}, Vals: []float32{1, 1, 1}}},
		{"sync no values", &msg.ReplicaSync{Origin: 1, Seq: 1, Keys: []kv.Key{1}}},
		{"sync key outside layout", &msg.ReplicaSync{Origin: 1, Seq: 1, Keys: []kv.Key{99}, Vals: two}},
		{"sync key homed elsewhere", &msg.ReplicaSync{Origin: 1, Seq: 1, Keys: []kv.Key{5}, Vals: two}},
		{"sync key not replicated", &msg.ReplicaSync{Origin: 1, Seq: 1, Keys: []kv.Key{2}, Vals: two}},
		{"sync one foreign key", &msg.ReplicaSync{Origin: 1, Seq: 1, Keys: []kv.Key{1, 5}, Vals: []float32{1, 1, 1, 1}}},
		{"sync mixed shards", &msg.ReplicaSync{Origin: 1, Seq: 1, Keys: []kv.Key{1, 2}, Vals: []float32{1, 1, 1, 1}}},
		{"sync origin out of range", &msg.ReplicaSync{Origin: 7, Seq: 1, Keys: []kv.Key{1}, Vals: two}},
		{"sync negative origin", &msg.ReplicaSync{Origin: -1, Seq: 1, Keys: []kv.Key{1}, Vals: two}},
		{"sync no keys", &msg.ReplicaSync{Origin: 1, Seq: 1, Vals: two}},
		{"refresh short", &msg.ReplicaRefresh{Origin: 1, Keys: []kv.Key{5}, Vals: []float32{1}}},
		{"refresh key outside layout", &msg.ReplicaRefresh{Origin: 1, Keys: []kv.Key{99}, Vals: two}},
		{"refresh mixed shards", &msg.ReplicaRefresh{Origin: 1, Keys: []kv.Key{5, 2}, Vals: []float32{1, 1, 1, 1}}},
		{"refresh no keys", &msg.ReplicaRefresh{Origin: 1, Vals: two}},
		{"refresh from a node not the key's home", &msg.ReplicaRefresh{Origin: 0, Keys: []kv.Key{5}, Vals: two}},
		{"ack two keys", &msg.Manage{Kind: msg.ManageDemoteAck, Origin: 1, Keys: []kv.Key{1, 3}, Vals: two}},
		{"ack no keys", &msg.Manage{Kind: msg.ManageDemoteAck, Origin: 1}},
		{"ack without demotion", &msg.Manage{Kind: msg.ManageDemoteAck, Origin: 1, Keys: []kv.Key{1}, Vals: two}},
		{"ack key outside layout", &msg.Manage{Kind: msg.ManageDemoteAck, Origin: 1, Keys: []kv.Key{99}, Vals: two}},
		{"install short", &msg.Manage{Kind: msg.ManageReplicate, Origin: 1, Keys: []kv.Key{2}, Vals: []float32{1}}},
		{"install key outside layout", &msg.Manage{Kind: msg.ManageReplicate, Origin: 1, Keys: []kv.Key{99}, Vals: two}},
		{"unknown manage kind", &msg.Manage{Kind: 200, Origin: 1, Keys: []kv.Key{1}}},
		{"report no keys", &msg.Manage{Kind: msg.ManageReport, Origin: 1, Vals: []float32{100, 5, 2}}},
		{"report key outside layout", report(1, 99)},
		{"report key homed elsewhere", report(0, 4)},
		{"report mixed shards", report(1, 1, 2)},
		{"unreplicate key outside layout", &msg.Manage{Kind: msg.ManageUnreplicate, Origin: 1, Keys: []kv.Key{99}}},
		{"unreplicate key owned here", &msg.Manage{Kind: msg.ManageUnreplicate, Origin: 1, Keys: []kv.Key{6}}},
		{"unreplicate from its own home", &msg.Manage{Kind: msg.ManageUnreplicate, Origin: 0, Keys: []kv.Key{2}}},
		{"localize key outside layout", &msg.Manage{Kind: msg.ManageLocalize, Origin: 1, Keys: []kv.Key{99}}},
	} {
		t.Run(c.name, func(t *testing.T) { drop(t, c.m) })
	}
	// A demotion of key 1 is in flight at node 0, node 1's acknowledgement
	// outstanding: an acknowledgement no replica sends must not count.
	nd.shardOf(1).transitioning[1] = &transition{kind: transDemote, acked: make([]bool, 2), acksLeft: 1}
	for _, c := range []row{
		{"ack origin out of range", &msg.Manage{Kind: msg.ManageDemoteAck, Origin: 7, Keys: []kv.Key{1}, Vals: two}},
		{"ack from the home itself", &msg.Manage{Kind: msg.ManageDemoteAck, Origin: 0, Keys: []kv.Key{1}, Vals: two}},
	} {
		t.Run(c.name, func(t *testing.T) { drop(t, c.m) })
	}
	delete(nd.shardOf(1).transitioning, 1)
	// The control: the same handlers merge a sync that fits.
	nd.sh[1].HandleMessage(1, &msg.ReplicaSync{Origin: 1, Seq: 1, Keys: []kv.Key{1}, Vals: two})
	buf := make([]float32, 2)
	if nd.rep.ReadAuthoritative(1, buf); buf[0] != 2 {
		t.Fatalf("well-formed sync left key 1 at %v, want 2", buf)
	}
}

// TestUnreplicateWithoutReplicationIsDropped: a node running no replication
// has no replica to give up, and an Unreplicate reaching it is dropped.
func TestUnreplicateWithoutReplicationIsDropped(t *testing.T) {
	_, sys := newTestSystem(t, 2, 1, 8, 1, Config{})
	nd := sys.nodes[0]
	nd.shardOf(6).HandleMessage(1, &msg.Manage{Kind: msg.ManageUnreplicate, Origin: 1, Keys: []kv.Key{6}})
	if s := nd.state[6].Load(); s != stateNotHere {
		t.Fatalf("key 6 at node 0 in state %d, want NotHere", s)
	}
}
