package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"lapse/internal/cluster"
	"lapse/internal/kv"
	"lapse/internal/simnet"
)

// newTestSystem builds a Lapse instance on a zero-latency cluster.
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

func TestPushPullLocalKey(t *testing.T) {
	_, sys := newTestSystem(t, 2, 1, 8, 2, Config{})
	h := sys.Handle(0) // node 0 homes keys 0..3
	if err := h.Push([]kv.Key{1}, []float32{3, 4}); err != nil {
		t.Fatal(err)
	}
	got := make([]float32, 2)
	if err := h.Pull([]kv.Key{1}, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 4 {
		t.Fatalf("Pull = %v", got)
	}
	// Both ops must have used the shared-memory fast path.
	if sys.Stats()[0].LocalReads.Load() != 1 || sys.Stats()[0].LocalWrites.Load() != 1 {
		t.Fatalf("local access counters = %d/%d, want 1/1",
			sys.Stats()[0].LocalReads.Load(), sys.Stats()[0].LocalWrites.Load())
	}
}

func TestPushPullRemoteKey(t *testing.T) {
	_, sys := newTestSystem(t, 2, 1, 8, 2, Config{})
	h := sys.Handle(0)
	k := []kv.Key{6} // homed at node 1
	if err := h.Push(k, []float32{1, 2}); err != nil {
		t.Fatal(err)
	}
	got := make([]float32, 2)
	if err := h.Pull(k, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("Pull = %v", got)
	}
	if sys.Stats()[0].RemoteReads.Load() != 1 || sys.Stats()[0].RemoteWrites.Load() != 1 {
		t.Fatalf("remote access counters wrong: %+v reads %d writes %d", sys.Stats()[0],
			sys.Stats()[0].RemoteReads.Load(), sys.Stats()[0].RemoteWrites.Load())
	}
}

func TestLocalizeMovesOwnership(t *testing.T) {
	_, sys := newTestSystem(t, 2, 1, 8, 1, Config{})
	h0 := sys.Handle(0)
	k := kv.Key(6) // homed at node 1
	if sys.OwnerOf(k) != 1 {
		t.Fatalf("initial owner = %d, want 1", sys.OwnerOf(k))
	}
	if err := h0.Localize([]kv.Key{k}); err != nil {
		t.Fatal(err)
	}
	if sys.OwnerOf(k) != 0 {
		t.Fatalf("owner after localize = %d, want 0", sys.OwnerOf(k))
	}
	// Subsequent access is local.
	before := sys.Stats()[0].LocalReads.Load()
	buf := make([]float32, 1)
	if err := h0.Pull([]kv.Key{k}, buf); err != nil {
		t.Fatal(err)
	}
	if sys.Stats()[0].LocalReads.Load() != before+1 {
		t.Fatal("pull after localize was not served locally")
	}
	if sys.Stats()[0].Relocations.Load() != 1 {
		t.Fatalf("relocations = %d, want 1", sys.Stats()[0].Relocations.Load())
	}
}

// TestOwnerTableUnevenLayout runs the owner table on home ranges of uneven
// size: 10 keys over 4 nodes are homed 3, 3, 2 and 2 to a node. Every node's
// directory holds its own range only, and the first and last key of each range
// route correctly once moved away from their home.
func TestOwnerTableUnevenLayout(t *testing.T) {
	const nodes = 4
	_, sys := newTestSystem(t, nodes, 1, 10, 1, Config{})
	sys.Init(func(k kv.Key, v []float32) { v[0] = float32(k) + 1 })
	owner := make(map[kv.Key]int)
	for n := 0; n < nodes; n++ {
		lo, hi := sys.home.RangeOf(n)
		if got, want := sys.DirectoryEntries(n), int(hi-lo); got != want || want < 2 {
			t.Fatalf("node %d: directory holds %d entries, want %d (range [%d, %d))", n, got, want, lo, hi)
		}
		dest := (n + 1) % nodes
		if err := sys.Handle(dest).Localize([]kv.Key{lo, hi - 1}); err != nil {
			t.Fatal(err)
		}
		owner[lo], owner[hi-1] = dest, dest
	}
	buf := make([]float32, 1)
	for k := kv.Key(0); k < 10; k++ {
		home := sys.HomeOf(k)
		want, moved := owner[k]
		if !moved {
			want = home
		}
		if got := sys.OwnerOf(k); got != want {
			t.Errorf("key %d: owner %d, want %d", k, got, want)
		}
		// A third node: neither the key's home nor the node it moved to.
		if err := sys.Handle((home+2)%nodes).Pull([]kv.Key{k}, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != float32(k)+1 {
			t.Errorf("key %d: pulled %v, want %v", k, buf[0], float32(k)+1)
		}
	}
}

func TestLocalizePreservesValue(t *testing.T) {
	_, sys := newTestSystem(t, 3, 1, 9, 2, Config{})
	h0 := sys.Handle(0)
	h2 := sys.Handle(2)
	k := []kv.Key{4} // homed at node 1
	if err := h2.Push(k, []float32{7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := h0.Localize(k); err != nil {
		t.Fatal(err)
	}
	got := make([]float32, 2)
	if err := h0.Pull(k, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 || got[1] != 8 {
		t.Fatalf("value after relocation = %v, want [7 8]", got)
	}
	// Other nodes still see the value through the home node.
	got2 := make([]float32, 2)
	if err := h2.Pull(k, got2); err != nil {
		t.Fatal(err)
	}
	if got2[0] != 7 || got2[1] != 8 {
		t.Fatalf("remote pull after relocation = %v", got2)
	}
}

func TestLocalizeAlreadyLocalIsNoop(t *testing.T) {
	cl, sys := newTestSystem(t, 2, 1, 8, 1, Config{})
	h := sys.Handle(0)
	before := cl.Net().Stats()
	if err := h.Localize([]kv.Key{0, 1, 2}); err != nil { // all homed at node 0
		t.Fatal(err)
	}
	after := cl.Net().Stats()
	if after.RemoteMessages != before.RemoteMessages || after.LoopbackMessages != before.LoopbackMessages {
		t.Fatal("localize of local keys generated messages")
	}
}

// TestLocalizeOwnedKeysAllocatesNothing gates the lock-free pre-scan: a
// Localize whose keys this node already owns — homed here, or relocated here
// — returns the shared completed future without building a request.
func TestLocalizeOwnedKeysAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not those of a plain build under the race detector")
	}
	_, sys := newTestSystem(t, 2, 1, 8, 1, Config{})
	h := sys.Handle(0)
	keys := []kv.Key{0, 2, 6} // 0 and 2 homed at node 0, 6 at node 1
	if err := h.Localize(keys[2:]); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := h.Localize(keys); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("localize of owned keys allocates %.1f times per call, want 0", n)
	}
}

// TestRemotePullAllocations pins what a remote single-key Pull allocates
// across the whole process over a zero-latency network: worker, both
// servers' goroutines and the transport. The operation's aggregate embeds its
// future, so the part costs the aggregate, its channel, the pending-table
// slot and the pull's offset table; the message path itself is pooled.
func TestRemotePullAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not those of a plain build under the race detector")
	}
	_, sys := newTestSystem(t, 2, 1, 8, 2, Config{})
	h := sys.Handle(0)
	keys := []kv.Key{6} // homed at node 1
	dst := make([]float32, 2)
	pull := func() {
		if err := h.Pull(keys, dst); err != nil {
			t.Fatal(err)
		}
	}
	pull()
	// 5 when the aggregate pointed to a future of its own.
	if n := testing.AllocsPerRun(200, pull); n > 4 {
		t.Errorf("remote single-key pull allocates %.1f times, want at most 4", n)
	}
}

func TestLocalizeManyKeysGrouped(t *testing.T) {
	// Localizing a whole block must group messages: 3 messages per
	// (home, owner) pair, not per key.
	cl, sys := newTestSystem(t, 2, 1, 100, 1, Config{})
	h0 := sys.Handle(0)
	keys := make([]kv.Key, 0, 50)
	for k := kv.Key(50); k < 100; k++ { // all homed at node 1
		keys = append(keys, k)
	}
	before := cl.Net().Stats().RemoteMessages
	if err := h0.Localize(keys); err != nil {
		t.Fatal(err)
	}
	got := cl.Net().Stats().RemoteMessages - before
	// Expected: 1 localize (0->1), 1 instruct (1->1 is local dispatch,
	// since home==owner there is no network instruct), 1 transfer (1->0).
	if got > 3 {
		t.Fatalf("bulk localize of 50 keys used %d remote messages, want <= 3", got)
	}
	for _, k := range keys {
		if sys.OwnerOf(k) != 0 {
			t.Fatalf("key %d owner = %d, want 0", k, sys.OwnerOf(k))
		}
	}
}

func TestRelocationRoundTrip(t *testing.T) {
	// Move a key back and forth between nodes, verifying value integrity.
	_, sys := newTestSystem(t, 2, 1, 8, 1, Config{})
	h0, h1 := sys.Handle(0), sys.Handle(1)
	k := []kv.Key{5}
	want := float32(0)
	buf := make([]float32, 1)
	for i := 0; i < 10; i++ {
		h := h0
		if i%2 == 1 {
			h = h1
		}
		if err := h.Localize(k); err != nil {
			t.Fatal(err)
		}
		if err := h.Push(k, []float32{1}); err != nil {
			t.Fatal(err)
		}
		want++
		if err := h.Pull(k, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != want {
			t.Fatalf("iteration %d: value = %v, want %v", i, buf[0], want)
		}
	}
}

func TestAccessDuringRelocationIsQueued(t *testing.T) {
	// With real latency, ops issued right after a localize must be queued
	// and answered after the transfer completes, with correct values.
	cl := cluster.New(cluster.Config{
		Nodes: 2, WorkersPerNode: 2,
		Net: simnet.Config{Latency: 2 * time.Millisecond, LoopbackLatency: 100 * time.Microsecond},
	})
	sys := New(cl, kv.NewUniformLayout(8, 1), Config{})
	defer func() { cl.Close(); sys.Shutdown() }()

	h1 := sys.Handle(2) // node 1 worker
	k := []kv.Key{6}    // homed at node 1
	if err := h1.Push(k, []float32{42}); err != nil {
		t.Fatal(err)
	}

	h0 := sys.Handle(0)
	loc := h0.LocalizeAsync(k)
	// Issue a pull immediately: the key is Incoming at node 0, so this
	// must be queued locally and served after the transfer.
	got := make([]float32, 1)
	if err := h0.Pull(k, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Fatalf("queued pull = %v, want 42", got[0])
	}
	if err := loc.Wait(); err != nil {
		t.Fatal(err)
	}
	if sys.Stats()[0].QueuedOps.Load() == 0 {
		t.Fatal("expected at least one queued op")
	}
}

func TestLocalizationConflict(t *testing.T) {
	// Multiple nodes repeatedly localize the same key while pushing;
	// no update may be lost and the protocol must not wedge.
	cl, sys := newTestSystem(t, 4, 1, 4, 1, Config{})
	const perWorker = 50
	cl.RunWorkers(func(node, worker int) {
		h := sys.Handle(worker)
		k := []kv.Key{2}
		for i := 0; i < perWorker; i++ {
			if err := h.Localize(k); err != nil {
				t.Error(err)
				return
			}
			if err := h.Push(k, []float32{1}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	buf := make([]float32, 1)
	sys.ReadParameter(2, buf)
	if buf[0] != 4*perWorker {
		t.Fatalf("final value = %v, want %v", buf[0], 4*perWorker)
	}
}

func TestConcurrentMixedWorkloadNoLostUpdates(t *testing.T) {
	// Random pushes, pulls and localizes from all workers across all keys.
	cl, sys := newTestSystem(t, 4, 2, 32, 2, Config{})
	const opsPer = 300
	cl.RunWorkers(func(node, worker int) {
		h := sys.Handle(worker)
		rng := rand.New(rand.NewSource(int64(worker) * 7))
		buf := make([]float32, 2)
		for i := 0; i < opsPer; i++ {
			k := kv.Key(rng.Intn(32))
			switch rng.Intn(4) {
			case 0:
				if err := h.Localize([]kv.Key{k}); err != nil {
					t.Error(err)
					return
				}
			case 1:
				if err := h.Pull([]kv.Key{k}, buf); err != nil {
					t.Error(err)
					return
				}
			default:
				h.PushAsync([]kv.Key{k}, []float32{1, -1})
			}
		}
		if err := h.WaitAll(); err != nil {
			t.Error(err)
		}
	})
	// Count pushes: every worker pushed in expectation half its ops, but
	// we verify exactly via the counters.
	var wantPushes int64
	for _, st := range sys.Stats() {
		wantPushes += st.LocalWrites.Load() + st.RemoteWrites.Load()
	}
	var sum0, sum1 float64
	buf := make([]float32, 2)
	for k := kv.Key(0); k < 32; k++ {
		sys.ReadParameter(k, buf)
		sum0 += float64(buf[0])
		sum1 += float64(buf[1])
	}
	if int64(sum0) != wantPushes || int64(sum1) != -wantPushes {
		t.Fatalf("sum = (%v, %v), want (%d, %d)", sum0, sum1, wantPushes, -wantPushes)
	}
}

func TestMultiKeyOpAcrossStates(t *testing.T) {
	// One pull spanning a local key, a remote key, and a relocated key.
	_, sys := newTestSystem(t, 3, 1, 9, 1, Config{})
	h0 := sys.Handle(0)
	if err := h0.Push([]kv.Key{0, 4, 8}, []float32{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	if err := h0.Localize([]kv.Key{8}); err != nil {
		t.Fatal(err)
	}
	got := make([]float32, 3)
	if err := h0.Pull([]kv.Key{0, 4, 8}, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("Pull = %v, want [10 20 30]", got)
	}
}

func TestPullIfLocal(t *testing.T) {
	_, sys := newTestSystem(t, 2, 1, 8, 1, Config{})
	h0 := sys.Handle(0)
	buf := make([]float32, 1)
	if ok, err := h0.PullIfLocal([]kv.Key{1}, buf); err != nil || !ok {
		t.Fatalf("PullIfLocal(home key) = (%v, %v)", ok, err)
	}
	if ok, err := h0.PullIfLocal([]kv.Key{6}, buf); err != nil || ok {
		t.Fatalf("PullIfLocal(remote key) = (%v, %v), want false", ok, err)
	}
	if err := h0.Localize([]kv.Key{6}); err != nil {
		t.Fatal(err)
	}
	if ok, err := h0.PullIfLocal([]kv.Key{6}, buf); err != nil || !ok {
		t.Fatalf("PullIfLocal(localized key) = (%v, %v), want true", ok, err)
	}
}

func TestCoLocatedWorkersDedupeLocalize(t *testing.T) {
	// Two workers on the same node localize the same keys concurrently;
	// both must complete and the keys arrive exactly once.
	cl, sys := newTestSystem(t, 2, 2, 16, 1, Config{})
	keys := []kv.Key{8, 9, 10, 11} // homed at node 1
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := sys.Handle(w)
			if err := h.Localize(keys); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	for _, k := range keys {
		if sys.OwnerOf(k) != 0 {
			t.Fatalf("key %d owner = %d, want 0", k, sys.OwnerOf(k))
		}
	}
	if got := sys.Stats()[0].Relocations.Load(); got != int64(len(keys)) {
		t.Fatalf("relocations = %d, want %d (dedup failed)", got, len(keys))
	}
	_ = cl
}

func TestAsyncProgramOrderWithRelocation(t *testing.T) {
	// A worker async-pushes to a key, localizes it, then pulls locally:
	// the pull must observe all pushes (program order, Theorem 2).
	_, sys := newTestSystem(t, 2, 1, 8, 1, Config{})
	h := sys.Handle(0)
	k := []kv.Key{7} // homed at node 1
	const n = 50
	for i := 0; i < n; i++ {
		h.PushAsync(k, []float32{1})
	}
	if err := h.Localize(k); err != nil {
		t.Fatal(err)
	}
	got := make([]float32, 1)
	if err := h.Pull(k, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != n {
		t.Fatalf("pull after async pushes + localize = %v, want %v", got[0], n)
	}
	if err := h.WaitAll(); err != nil {
		t.Fatal(err)
	}
}

func TestLocationCachesStillCorrectSync(t *testing.T) {
	// With caches on, synchronous ops remain sequentially consistent;
	// stale entries must be resolved by double-forwarding.
	cl, sys := newTestSystem(t, 3, 1, 9, 1, Config{LocationCaches: true})
	h0, h1, h2 := sys.Handle(0), sys.Handle(1), sys.Handle(2)
	k := []kv.Key{4} // homed at node 1
	buf := make([]float32, 1)

	// Move k to node 0, then prime node 2's cache: it records owner 0.
	if err := h0.Localize(k); err != nil {
		t.Fatal(err)
	}
	if err := h2.Pull(k, buf); err != nil {
		t.Fatal(err)
	}
	// Move k to node 1 (the home); node 2's cache now points at node 0,
	// which is neither home nor owner — the Figure 5d stale-cache case.
	if err := h1.Localize(k); err != nil {
		t.Fatal(err)
	}
	if err := h1.Push(k, []float32{5}); err != nil {
		t.Fatal(err)
	}
	// Node 2 pulls via its stale cache: node 0 must double-forward via
	// the home node, which routes to the current owner.
	if err := h2.Pull(k, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 5 {
		t.Fatalf("pull via stale cache = %v, want 5", buf[0])
	}
	if got := sys.Stats()[0].DoubleForwards.Load(); got == 0 {
		t.Fatal("expected a double-forward at the stale cached owner")
	}
	_ = cl
}

func TestCacheHitUsesTwoMessages(t *testing.T) {
	cl, sys := newTestSystem(t, 3, 1, 9, 1, Config{LocationCaches: true})
	h0 := sys.Handle(0)
	k := []kv.Key{8} // homed at node 2
	buf := make([]float32, 1)
	if err := h0.Pull(k, buf); err != nil { // cold: 2 messages 0->2->0 (home==owner)
		t.Fatal(err)
	}
	before := cl.Net().Stats().RemoteMessages
	if err := h0.Pull(k, buf); err != nil { // cache hit: 2 messages
		t.Fatal(err)
	}
	if got := cl.Net().Stats().RemoteMessages - before; got != 2 {
		t.Fatalf("cache-hit pull used %d messages, want 2", got)
	}
	if sys.Stats()[0].CacheHits.Load() == 0 {
		t.Fatal("no cache hit recorded")
	}
}

func TestInitAndReadParameter(t *testing.T) {
	_, sys := newTestSystem(t, 2, 1, 8, 2, Config{})
	sys.Init(func(k kv.Key, v []float32) {
		v[0] = float32(k) + 0.5
	})
	h := sys.Handle(1)
	buf := make([]float32, 2)
	if err := h.Pull([]kv.Key{3}, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 3.5 {
		t.Fatalf("pull after init = %v", buf)
	}
}

func TestRelocationTimeMeasured(t *testing.T) {
	cl := cluster.New(cluster.Config{
		Nodes: 2, WorkersPerNode: 1,
		Net: simnet.Config{Latency: time.Millisecond},
	})
	sys := New(cl, kv.NewUniformLayout(8, 1), Config{})
	defer func() { cl.Close(); sys.Shutdown() }()
	h0 := sys.Handle(0)
	if err := h0.Localize([]kv.Key{6}); err != nil {
		t.Fatal(err)
	}
	rt := sys.Stats()[0].RelocationTime.Snapshot()
	if rt.Count() != 1 {
		t.Fatalf("relocation time observations = %d, want 1", rt.Count())
	}
	// Protocol sends 3 messages; with home==owner it is 2 network hops
	// (requester->home is remote, home->owner local, owner->requester
	// remote), so >= 2ms (histogram buckets carry ~±3%, hence the margin).
	if rt.Mean() < 1900*time.Microsecond {
		t.Fatalf("relocation time = %v, want >= ~2ms", rt.Mean())
	}
}

func TestUnsortedAndDuplicateFreeKeys(t *testing.T) {
	_, sys := newTestSystem(t, 4, 1, 16, 1, Config{})
	h := sys.Handle(0)
	keys := []kv.Key{15, 2, 9, 0, 7}
	vals := []float32{1, 2, 3, 4, 5}
	if err := h.Push(keys, vals); err != nil {
		t.Fatal(err)
	}
	got := make([]float32, 5)
	if err := h.Pull(keys, got); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("got %v, want %v", got, vals)
		}
	}
}

// TestRelocationStressWithLatency runs a high-conflict workload under real
// message latency to exercise queuing, chaining, and double-forwarding.
func TestRelocationStressWithLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("latency stress test")
	}
	cl := cluster.New(cluster.Config{
		Nodes: 4, WorkersPerNode: 2,
		Net: simnet.Config{Latency: 200 * time.Microsecond, LoopbackLatency: 10 * time.Microsecond},
	})
	sys := New(cl, kv.NewUniformLayout(8, 2), Config{})
	defer func() { cl.Close(); sys.Shutdown() }()
	const opsPer = 100
	cl.RunWorkers(func(node, worker int) {
		h := sys.Handle(worker)
		rng := rand.New(rand.NewSource(int64(worker)))
		buf := make([]float32, 2)
		for i := 0; i < opsPer; i++ {
			k := kv.Key(rng.Intn(8))
			switch rng.Intn(3) {
			case 0:
				h.LocalizeAsync([]kv.Key{k})
			case 1:
				h.PushAsync([]kv.Key{k}, []float32{1, 1})
			default:
				if err := h.Pull([]kv.Key{k}, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}
		if err := h.WaitAll(); err != nil {
			t.Error(err)
		}
	})
	var pushes int64
	for _, st := range sys.Stats() {
		pushes += st.LocalWrites.Load() + st.RemoteWrites.Load()
	}
	var sum float64
	buf := make([]float32, 2)
	for k := kv.Key(0); k < 8; k++ {
		sys.ReadParameter(k, buf)
		sum += float64(buf[0])
	}
	if int64(sum) != pushes {
		t.Fatalf("sum = %v, want %d", sum, pushes)
	}
}
