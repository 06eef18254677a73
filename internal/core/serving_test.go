package core

import (
	"runtime"
	"testing"
	"time"

	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/msg"
	"lapse/internal/partition"
	"lapse/internal/replication"
)

// servingTestConfig enables the serving tier with a TTL long enough that any
// cache-consistency effect a test observes inside its deadline is due to
// explicit invalidation, never lease expiry.
func servingTestConfig() Config {
	return Config{Serving: &ServingConfig{TTL: 30 * time.Second}}
}

// servingKV is a worker handle with the serving-tier read path.
type servingKV interface {
	kv.KV
	MultiGet(keys []kv.Key, dst []float32) *kv.Future
}

// TestMultiGetServedFromLeaseCache pins the serving read path: the first
// MultiGet of a remote key misses, travels with a lease request, and installs
// the granted value; the second is served from the node-local cache without
// another remote read.
func TestMultiGetServedFromLeaseCache(t *testing.T) {
	_, sys := newTestSystem(t, 2, 1, 8, 2, servingTestConfig())
	h := sys.Handle(0).(servingKV)
	keys := []kv.Key{6} // homed at node 1
	if err := h.Push(keys, []float32{1, 2}); err != nil {
		t.Fatal(err)
	}
	buf := make([]float32, 2)
	if err := h.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 || buf[1] != 2 {
		t.Fatalf("first MultiGet = %v, want [1 2]", buf)
	}
	remoteAfterMiss := sys.Stats()[0].RemoteReads.Load()
	if sys.Stats()[1].LeaseGrants.Load() == 0 {
		t.Fatal("home node granted no lease for the missed read")
	}
	buf[0], buf[1] = -1, -1
	if err := h.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 || buf[1] != 2 {
		t.Fatalf("cached MultiGet = %v, want [1 2]", buf)
	}
	if got := sys.Stats()[0].ServingHits.Load(); got != 1 {
		t.Fatalf("serving hits = %d, want 1", got)
	}
	if got := sys.Stats()[0].RemoteReads.Load(); got != remoteAfterMiss {
		t.Fatalf("cached MultiGet went remote: %d -> %d remote reads", remoteAfterMiss, got)
	}
}

// TestMultiGetAllHitZeroAlloc is the regression gate for the serving-tier
// fast path: a steady-state MultiGet whose keys are all served from the
// lease cache must not allocate — no pending-table registration, no future,
// no per-request state (kv.CompletedFuture end to end).
func TestMultiGetAllHitZeroAlloc(t *testing.T) {
	_, sys := newTestSystem(t, 2, 1, 16, 2, servingTestConfig())
	h := sys.Handle(0).(servingKV)
	keys := []kv.Key{9, 11, 13, 15} // all homed at node 1
	buf := make([]float32, 2*len(keys))
	// Warm the cache: the first MultiGet misses and installs leases.
	if err := h.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := h.MultiGet(keys, buf).Wait(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("all-hit MultiGet allocates %.1f times per op, want 0", n)
	}
	if sys.Stats()[0].ServingHits.Load() < 100 {
		t.Fatalf("serving hits = %d; the gated loop was not served from the cache",
			sys.Stats()[0].ServingHits.Load())
	}
}

// TestMultiGetReadYourWrites pins read-your-writes across the worker's own
// push to a key it has cached: the owner refreshes the entry ahead of the push
// ack, so the worker's next MultiGet sees its write — and sees it in the
// cache, without another remote read.
func TestMultiGetReadYourWrites(t *testing.T) {
	_, sys := newTestSystem(t, 2, 1, 8, 1, servingTestConfig())
	h := sys.Handle(0).(servingKV)
	keys := []kv.Key{6} // homed at node 1
	buf := make([]float32, 1)
	if err := h.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := h.Push(keys, []float32{5}); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()[0]
	if got := st.LeaseRefreshes.Load(); got != 1 {
		t.Fatalf("lease refreshes = %d after the holder's own push, want 1", got)
	}
	remote := st.RemoteReads.Load()
	if err := h.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 5 {
		t.Fatalf("MultiGet after own push = %v, want [5] (stale lease served)", buf)
	}
	if st.ServingHits.Load() != 1 || st.RemoteReads.Load() != remote {
		t.Fatalf("MultiGet after own push was not a cache hit: hits %d, remote reads %d -> %d",
			st.ServingHits.Load(), remote, st.RemoteReads.Load())
	}
	if got := st.LeaseInvalidations.Load(); got != 0 {
		t.Fatalf("own push dropped %d entries, want 0 (update in place)", got)
	}
}

// TestOwnerPushRevokesRemoteLease pins the owner-side coherence channel: a
// write by the owner's own worker must reach the copy a remote node holds, so
// the remote node's MultiGet returns it within the test deadline — far inside
// the 30s TTL, proving the freshness came from the owner's message, not
// expiry — and returns it from the cache, with no second remote read.
func TestOwnerPushRevokesRemoteLease(t *testing.T) {
	_, sys := newTestSystem(t, 2, 1, 8, 1, servingTestConfig())
	h0, h1 := sys.Handle(0).(servingKV), sys.Handle(1)
	keys := []kv.Key{6} // homed (and owned) at node 1
	buf := make([]float32, 1)
	if err := h0.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	remote := sys.Stats()[0].RemoteReads.Load()
	if err := h1.Push(keys, []float32{7}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := h0.MultiGet(keys, buf).Wait(); err != nil {
			t.Fatal(err)
		}
		if buf[0] == 7 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner's write never reached the lease holder: MultiGet still returns %v", buf)
		}
		time.Sleep(time.Millisecond)
	}
	if sys.Stats()[1].LeaseRevokes.Load() == 0 {
		t.Fatal("owner recorded no coherence message")
	}
	if got := sys.Stats()[0].RemoteReads.Load(); got != remote {
		t.Fatalf("holder re-fetched the key (%d -> %d remote reads); the write must arrive in place", remote, got)
	}
}

// TestPushByLeaseHolderChasesItsOwnGrant pins that the owner does NOT skip
// the writing node: after node 0 — the only lease holder — pushes the key it
// holds a lease on, the owner must still send exactly one lease refresh (to
// node 0). The writer's entry, or a grant still in flight to the writer when the
// push arrives, holds the pre-write value; only a message chasing it on the
// same FIFO stream, ahead of the push ack, keeps the writer's read-your-writes
// intact. Skipping the writer here would leave the count at 0 and reopen that
// window.
func TestPushByLeaseHolderChasesItsOwnGrant(t *testing.T) {
	_, sys := newTestSystem(t, 2, 1, 8, 1, servingTestConfig())
	h := sys.Handle(0).(servingKV)
	keys := []kv.Key{6} // homed (and owned) at node 1
	buf := make([]float32, 1)
	if err := h.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	if sys.Stats()[1].LeaseGrants.Load() == 0 {
		t.Fatal("missed MultiGet granted no lease")
	}
	if err := h.Push(keys, []float32{3}); err != nil {
		t.Fatal(err)
	}
	if got := sys.Stats()[1].LeaseRevokes.Load(); got != 1 {
		t.Fatalf("owner sent %d coherence messages after the lease holder's own push, want 1 (the writer's node must be chased)", got)
	}
	if err := h.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 3 {
		t.Fatalf("MultiGet after own push = %v, want [3]", buf)
	}
}

// TestForwardedLeasePullStillGranted pins that Op.Lease survives forwarding:
// a MultiGet of a key that relocated away from its home is routed via the
// home node and forwarded to the current owner, and the owner must still
// grant the lease — the next MultiGet of the key is a cache hit. Dropping
// the bit on the forward would silently disable the serving cache for every
// relocated key.
func TestForwardedLeasePullStillGranted(t *testing.T) {
	_, sys := newTestSystem(t, 3, 1, 9, 1, servingTestConfig())
	h0 := sys.Handle(0).(servingKV)
	h2 := sys.Handle(2)
	keys := []kv.Key{4} // homed at node 1 (9 keys range-partitioned over 3 nodes)
	if err := h2.Localize(keys); err != nil {
		t.Fatal(err)
	}
	if err := h2.Push(keys, []float32{9}); err != nil {
		t.Fatal(err)
	}
	buf := make([]float32, 1)
	if err := h0.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 9 {
		t.Fatalf("forwarded MultiGet = %v, want [9]", buf)
	}
	if sys.Stats()[1].Forwards.Load() == 0 {
		t.Fatal("pull did not travel through the home node's forward path")
	}
	if sys.Stats()[2].LeaseGrants.Load() == 0 {
		t.Fatal("current owner granted no lease for the forwarded pull")
	}
	buf[0] = -1
	if err := h0.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 9 {
		t.Fatalf("cached MultiGet after forward = %v, want [9]", buf)
	}
	if got := sys.Stats()[0].ServingHits.Load(); got != 1 {
		t.Fatalf("serving hits = %d, want 1 (forwarded grant never installed)", got)
	}
}

// TestAsyncPushesKeepLeaseHolderInProgramOrder pins the "own push in flight"
// mark against every way of re-arming the writer's entry too early. A worker
// holding a lease pipelines two pushes and reads behind them without waiting,
// while the owner's own worker writes the key in between. The first read is
// issued once the owner's refresh for that foreign write has landed in the
// worker's cache, with both acks outstanding; the second once the first ack
// is in, with the second outstanding. A design that lets a refresh, or the
// first of several acks, make the entry readable again serves a value without
// the worker's own writes. The held network holds each of those moments for
// as long as the test needs it.
func TestAsyncPushesKeepLeaseHolderInProgramOrder(t *testing.T) {
	net, sys := newHeldSystem(t, 2, 1, 8, servingTestConfig())
	h0, h1 := sys.Handle(0).(servingKV), sys.Handle(1)
	st := sys.Stats()[0]
	keys := []kv.Key{6} // homed (and owned) at node 1
	buf := make([]float32, 1)
	lease := h0.MultiGet(keys, buf)
	net.pump()
	p1 := h0.PushAsync(keys, []float32{1})
	if err := h1.Push(keys, []float32{10}); err != nil { // its refresh leaves for node 0 at once
		t.Fatal(err)
	}
	if net.deliver(1, 0); st.LeaseRefreshes.Load() != 1 {
		t.Fatal("owner's refresh did not reach the lease holder")
	}
	p2 := h0.PushAsync(keys, []float32{2})
	bufA, bufB := make([]float32, 1), make([]float32, 1)
	mgA := h0.MultiGet(keys, bufA) // the foreign refresh is in, no ack is
	net.deliver(0, 1)              // the first push
	for done, _ := p1.TryWait(); !done; done, _ = p1.TryWait() {
		net.deliver(1, 0)
	}
	mgB := h0.MultiGet(keys, bufB) // the first ack is in, the second is not
	net.pump()
	for _, f := range []*kv.Future{lease, p1, p2, mgA, mgB} {
		if done, err := f.TryWait(); !done || err != nil {
			t.Fatalf("operation not completed: done %t, err %v", done, err)
		}
	}
	if bufA[0] != 13 || bufB[0] != 13 {
		t.Fatalf("MultiGets pipelined behind two own pushes = %v and %v, want [13] (both own writes and the owner's)", bufA, bufB)
	}
	if got := st.ServingHits.Load(); got != 0 {
		t.Fatalf("%d MultiGets behind unacknowledged pushes were served from the cache", got)
	}
	// Both acks are in: the entry is readable again and holds the full sum.
	remote := st.RemoteReads.Load()
	last := h0.MultiGet(keys, buf)
	if net.pump(); buf[0] != 13 {
		t.Fatalf("MultiGet after both acks = %v, want [13]", buf)
	}
	if done, _ := last.TryWait(); !done || st.ServingHits.Load() != 1 || st.RemoteReads.Load() != remote {
		t.Fatalf("MultiGet after both acks was not a cache hit: hits %d, remote reads %d -> %d",
			st.ServingHits.Load(), remote, st.RemoteReads.Load())
	}
}

// TestLeasedPushAllocations gates the write side of the serving tier next to
// the all-hit read gate: the owner's refresh is built in the registry's one
// message struct and value scratch, and the writer's in-flight mark lives in
// a map that is empty between pushes, so neither allocates per write.
func TestLeasedPushAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("pushes travel in pooled buffers, and sync.Pool drops Puts at random under the race detector")
	}
	keys := []kv.Key{9} // homed at node 1
	vals := []float32{1, 1}
	buf := make([]float32, 2)
	remotePush := func(cfg Config) float64 {
		_, sys := newTestSystem(t, 2, 1, 16, 2, cfg)
		h := sys.Handle(0).(servingKV)
		if err := h.MultiGet(keys, buf).Wait(); err != nil { // takes the lease when serving is on
			t.Fatal(err)
		}
		push := func() {
			if err := h.Push(keys, vals); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			push() // warm pools, scratch and the mark map
		}
		n := testing.AllocsPerRun(200, push)
		if cfg.Serving != nil && sys.Stats()[0].LeaseRefreshes.Load() < 200 {
			t.Fatalf("gated pushes were not refreshed in place: %d refreshes", sys.Stats()[0].LeaseRefreshes.Load())
		}
		return n
	}
	plain, leased := remotePush(Config{}), remotePush(servingTestConfig())
	if leased > plain {
		t.Errorf("remote push by a lease holder allocates %.1f times per op, %.1f with the serving tier off", leased, plain)
	}

	_, sys := newTestSystem(t, 2, 1, 16, 2, servingTestConfig())
	h0, h1 := sys.Handle(0).(servingKV), sys.Handle(1)
	if err := h0.MultiGet(keys, buf).Wait(); err != nil {
		t.Fatal(err)
	}
	// An owner-local push returns without waiting for anyone, so the gated
	// call also waits for the holder to apply the refresh: the decode scratch
	// the message travels in goes back to its pool only then, and a loop that
	// outruns the holder would measure the pool running dry instead.
	applied := &sys.Stats()[0].LeaseRefreshes
	push := func() {
		want := applied.Load() + 1
		if err := h1.Push(keys, vals); err != nil {
			t.Fatal(err)
		}
		for spins := 0; applied.Load() < want; spins++ {
			if spins > 1e8 {
				t.Fatal("holder never applied the refresh")
			}
			runtime.Gosched()
		}
	}
	push()
	if n := testing.AllocsPerRun(200, push); n != 0 {
		t.Errorf("owner-local push to a leased key allocates %.1f times per op, want 0", n)
	}
}

// newCopyTable returns node 0's table of copies in a three-node cluster of
// eight two-value keys, where keys 3–5 are homed at node 1, and its one
// shard's statistics.
func newCopyTable() (*replication.Manager, *metrics.ServerStats) {
	stats := &metrics.ServerStats{}
	m := replication.NewManager(replication.Config{Node: 0, Nodes: 3, Layout: kv.NewUniformLayout(8, 2),
		Home: partition.NewRange(8, 3), Stats: []*metrics.ServerStats{stats}, Send: func(int, any) {}})
	return m, stats
}

// TestServingCacheRefreshRules pins what a refresh may and may not do to a
// holder's leased copy: overwrite a live copy of the same grantor in place
// and shorten its life — never create a copy, never extend one, never apply
// a previous owner's value or one of the wrong length — and what this node's
// own pushes do to it.
func TestServingCacheRefreshRules(t *testing.T) {
	const ttl = 30_000_000 // µs
	m, stats := newCopyTable()
	got := make([]float32, 2)
	refresh := func(ttl uint32, from int32, vals ...float32) {
		m.HandleRefresh(&msg.ReplicaRefresh{Origin: from, Ack: ttl, Keys: []kv.Key{3}, Vals: vals})
	}
	if refresh(ttl, 1, 1, 1); m.ReadLease(3, got) {
		t.Fatal("refresh created a copy")
	}
	m.Lease(3, []float32{1, 1}, ttl, 1)
	if refresh(ttl, 1, 2, 2); !m.ReadLease(3, got) || got[0] != 2 {
		t.Fatalf("refresh by the grantor did not overwrite in place: %v", got)
	}
	if refresh(ttl, 2, 9, 9); !m.ReadLease(3, got) || got[0] != 2 {
		t.Fatalf("refresh from a node that did not grant the lease was applied: %v", got)
	}
	if refresh(ttl, 1, 9); m.ReadLease(3, got) {
		t.Fatal("refresh of the wrong length left the copy readable")
	}
	// The owner's remaining time wins when it is shorter; a longer one does
	// not extend the lease.
	m.Lease(3, []float32{3, 3}, 20_000, 1)
	refresh(2*ttl, 1, 3, 3)
	time.Sleep(25 * time.Millisecond)
	if m.ReadLease(3, got) {
		t.Fatal("refresh extended the lease")
	}
	m.Lease(3, []float32{3, 3}, ttl, 1)
	refresh(1, 1, 3, 3)
	time.Sleep(time.Millisecond)
	if m.ReadLease(3, got) {
		t.Fatal("copy outlived the remaining lease time its owner announced")
	}
	m.Lease(3, []float32{4, 4}, 1, 1)
	time.Sleep(time.Millisecond)
	if refresh(ttl, 1, 5, 5); m.ReadLease(3, got) {
		t.Fatal("refresh revived an expired copy")
	}
	// An own push's ack that does not vouch for the copy discards it; one
	// that does keeps it, and the last mark coming off makes it readable.
	m.Lease(3, []float32{6, 6}, ttl, 1)
	m.PushBegin(3)
	m.PushBegin(3)
	if m.ReadLease(3, got) {
		t.Fatal("copy readable with own pushes in flight")
	}
	if m.PushEnd(3, 1); m.ReadLease(3, got) {
		t.Fatal("first of two acks made the copy readable")
	}
	if m.PushEnd(3, 1); !m.ReadLease(3, got) || got[0] != 6 {
		t.Fatal("copy not readable after the last vouching ack")
	}
	m.PushBegin(3)
	if m.PushEnd(3, replication.NoRefresher); m.ReadLease(3, got) {
		t.Fatal("ack that vouches for nothing left the copy in place")
	}
	m.Lease(3, []float32{7, 7}, ttl, 1)
	m.PushBegin(3)
	if m.PushEnd(3, 2); m.ReadLease(3, got) {
		t.Fatal("ack from a node that did not grant the copy left it in place")
	}
	// The wrong-length refresh and the two unvouched acks.
	if n := stats.LeaseInvalidations.Load(); n != 3 {
		t.Fatalf("%d copies dropped, want 3", n)
	}
}

// TestCopyKindRules pins what sharing one table means for a replica, the copy
// that never expires: lease traffic about its key leaves it alone, and it
// replaces a lease it meets.
func TestCopyKindRules(t *testing.T) {
	const ttl = 30_000_000 // µs
	m, stats := newCopyTable()
	got := make([]float32, 2)
	// (a) A push queued while a relocation was in flight, drained into the
	// replica that adopted the queue: its completion vouches for nothing,
	// and the replica, which took the write itself, stays.
	m.EnterKey(3, []float32{1, 1})
	m.PushBegin(3)
	if !m.Push(3, []float32{1, 1}) {
		t.Fatal("replica refused a push")
	}
	m.PushEnd(3, replication.NoRefresher)
	if !m.Pull(3, got) || got[0] != 2 {
		t.Fatalf("an ack that vouches for nothing dropped the replica: %v", got)
	}
	// (b) A replica entering over a live lease replaces it.
	m.Lease(4, []float32{5, 5}, ttl, 1)
	m.EnterKey(4, []float32{1, 1})
	if m.ReadLease(4, got) {
		t.Fatal("the lease a replica replaced is still served")
	}
	if !m.Pull(4, got) || got[0] != 1 || !m.Push(4, []float32{1, 1}) {
		t.Fatalf("EnterKey kept the lease as if it were a replica: %v", got)
	}
	// (c) A late grant never overwrites a replica.
	if m.Lease(3, []float32{9, 9}, ttl, 1); m.ReadLease(3, got) || !m.Pull(3, got) || got[0] != 2 {
		t.Fatalf("a late grant replaced the replica: %v", got)
	}
	// (d) A refresh from the home installs into the replica, keeping its
	// unmerged delta, but never clamps or ends it: an Ack of 1 is a sync
	// round here, not a microsecond left.
	m.HandleRefresh(&msg.ReplicaRefresh{Origin: 1, Ack: 1, Keys: []kv.Key{3}, Vals: []float32{4, 4}})
	time.Sleep(time.Millisecond)
	if !m.Pull(3, got) || got[0] != 5 {
		t.Fatalf("replica after a refresh = %v, want 4 plus its unsent 1", got)
	}
	// The drop form, a malformed refresh and one from a node that is not
	// the key's home leave it alone.
	for _, r := range []*msg.ReplicaRefresh{
		{Origin: 1, Keys: []kv.Key{3}},
		{Origin: 1, Ack: ttl, Keys: []kv.Key{3}, Vals: []float32{8}},
		{Origin: 2, Ack: 1, Keys: []kv.Key{3}, Vals: []float32{8, 8}},
	} {
		if m.HandleRefresh(r); !m.Pull(3, got) || got[0] != 5 {
			t.Fatalf("refresh %+v changed the replica: %v", r, got)
		}
	}
	if n := stats.LeaseInvalidations.Load() + stats.LeaseRefreshes.Load(); n != 0 {
		t.Fatalf("replicas counted %d lease refreshes or invalidations, want 0", n)
	}
}

// TestMalformedLeaseRefreshDropsEntry feeds a holder refreshes whose values
// do not fit their keys — the codec accepts any lengths, and the wire is
// outside input. The holder must discard the entries, not slice out of range.
func TestMalformedLeaseRefreshDropsEntry(t *testing.T) {
	cl, sys := newTestSystem(t, 2, 1, 8, 2, servingTestConfig())
	h := sys.Handle(0).(servingKV)
	keys := []kv.Key{6} // homed at node 1
	buf := make([]float32, 2)
	for i, bad := range []*msg.ReplicaRefresh{
		{Origin: 1, Ack: 1000, Keys: []kv.Key{6}, Vals: []float32{1}},       // short
		{Origin: 1, Ack: 1000, Keys: []kv.Key{6}, Vals: []float32{1, 2, 3}}, // long
		{Origin: 1, Ack: 1000, Keys: []kv.Key{6, 1 << 40}, Vals: []float32{1, 2, 3, 4}},
	} {
		if err := h.MultiGet(keys, buf).Wait(); err != nil { // (re)take the lease
			t.Fatal(err)
		}
		cl.Net().Send(1, 0, bad)
		want := int64(i + 1)
		for deadline := time.Now().Add(5 * time.Second); sys.Stats()[0].LeaseInvalidations.Load() < want; {
			if time.Now().After(deadline) {
				t.Fatalf("malformed refresh %d did not drop the entry", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if got := sys.Stats()[0].LeaseRefreshes.Load(); got != 0 {
		t.Fatalf("%d malformed refreshes were applied", got)
	}
}
