package core

import (
	"sync"
	"testing"

	"lapse/internal/cluster"
	"lapse/internal/kv"
	"lapse/internal/simnet"
)

// linkCounter is a simulated network that counts the messages sent on each
// directed link.
type linkCounter struct {
	*simnet.Network
	mu   sync.Mutex
	sent map[[2]int]int64
}

func (c *linkCounter) Send(src, dst int, m any) {
	c.mu.Lock()
	c.sent[[2]int{src, dst}]++
	c.mu.Unlock()
	c.Network.Send(src, dst, m)
}

// messages returns the number of messages sent from src to dst.
func (c *linkCounter) messages(src, dst int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent[[2]int{src, dst}]
}

// TestStaleCacheDoubleForwardExactlyOneExtraHop pins the Figure 5d cost
// model on message counts: when a relocation races ahead of a cached-owner
// access — the cache entry was valid when recorded, but the key moved before
// the access arrived — the stale owner must resolve the access via the home
// node in exactly one extra hop. The four roles are distinct nodes here, so
// every hop is one observable link message:
//
//	requester --(stale cache)--> old owner --(double-forward)--> home
//	    --(forward)--> current owner --(response)--> requester
//
// i.e. 4 messages, one more than the cache-less forward strategy's 3
// (Figure 5b), and the access still returns the current value.
func TestStaleCacheDoubleForwardExactlyOneExtraHop(t *testing.T) {
	net := &linkCounter{Network: simnet.New(simnet.Config{Nodes: 4}), sent: map[[2]int]int64{}}
	cl := cluster.New(cluster.Config{Nodes: 4, WorkersPerNode: 1, Transport: net})
	sys := New(cl, kv.NewUniformLayout(8, 1), Config{LocationCaches: true})
	t.Cleanup(func() {
		cl.Close()
		sys.Shutdown()
	})
	const (
		requester = 3
		oldOwner  = 0
		home      = 1
		curOwner  = 2
	)
	hReq := sys.Handle(requester)
	hOld := sys.Handle(oldOwner)
	hCur := sys.Handle(curOwner)
	k := []kv.Key{3} // homed at node 1 (8 keys range-partitioned over 4 nodes)
	if sys.HomeOf(k[0]) != home {
		t.Fatalf("key %d homed at %d, want %d", k[0], sys.HomeOf(k[0]), home)
	}
	buf := make([]float32, 1)

	// Move k to the future stale owner and prime the requester's cache.
	if err := hOld.Localize(k); err != nil {
		t.Fatal(err)
	}
	if err := hReq.Pull(k, buf); err != nil {
		t.Fatal(err)
	}
	// The relocation that wins the race: k moves on to its current owner,
	// which stamps the value so the racing read observably resolves there.
	if err := hCur.Localize(k); err != nil {
		t.Fatal(err)
	}
	if err := hCur.Push(k, []float32{7}); err != nil {
		t.Fatal(err)
	}

	type link struct{ src, dst int }
	path := []link{
		{requester, oldOwner}, // request via the stale cache entry
		{oldOwner, home},      // double-forward: old owner is neither owner nor home
		{home, curOwner},      // home routes to the current owner
		{curOwner, requester}, // response straight back to the requester
	}
	beforeTotal := net.Stats().RemoteMessages
	beforePair := make(map[link]int64, len(path))
	for _, l := range path {
		beforePair[l] = net.messages(l.src, l.dst)
	}
	beforeDF := sys.Stats()[oldOwner].DoubleForwards.Load()
	beforeFwd := sys.Stats()[home].Forwards.Load()

	if err := hReq.Pull(k, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 7 {
		t.Fatalf("pull through stale cache = %v, want 7 (current owner's value)", buf[0])
	}
	if got := net.Stats().RemoteMessages - beforeTotal; got != 4 {
		t.Fatalf("stale-cache pull used %d remote messages, want 4 (one extra hop over the 3-message forward)", got)
	}
	for _, l := range path {
		if got := net.messages(l.src, l.dst) - beforePair[l]; got != 1 {
			t.Fatalf("link %d->%d carried %d messages during the stale-cache pull, want exactly 1", l.src, l.dst, got)
		}
	}
	if got := sys.Stats()[oldOwner].DoubleForwards.Load() - beforeDF; got != 1 {
		t.Fatalf("old owner recorded %d double-forwards, want 1", got)
	}
	if got := sys.Stats()[home].Forwards.Load() - beforeFwd; got != 1 {
		t.Fatalf("home recorded %d forwards, want 1", got)
	}
}
