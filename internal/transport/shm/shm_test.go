package shm_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"lapse/internal/kv"
	"lapse/internal/msg"
	"lapse/internal/transport/shm"
	"lapse/internal/transport/tcp"
)

func newNet(t *testing.T, cfg shm.Config) *shm.Network {
	t.Helper()
	n, err := shm.New(cfg)
	if err != nil {
		t.Fatalf("shm.New: %v", err)
	}
	t.Cleanup(n.Close)
	return n
}

// TestMultiInstance wires two shm instances — as two co-located processes
// would be — through one ring directory and checks bidirectional delivery,
// FIFO per (link, shard), and clean teardown.
func TestMultiInstance(t *testing.T) {
	dir := t.TempDir()
	mk := func(node int) *shm.Network {
		return newNet(t, shm.Config{
			Dir: dir, Nodes: 2, Local: []int{node}, Shards: 4,
			DrainTimeout: 200 * time.Millisecond,
		})
	}
	a, b := mk(0), mk(1)
	const msgs = 3000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < msgs; i++ {
			a.Send(0, 1, &msg.Op{Type: msg.OpPush, ID: uint64(i), Keys: []kv.Key{kv.Key(i)}, Vals: []float32{float32(i)}})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < msgs; i++ {
			b.Send(1, 0, &msg.Op{Type: msg.OpPull, ID: uint64(i), Keys: []kv.Key{kv.Key(i)}})
		}
	}()
	recv := func(n *shm.Network, node int, errc chan<- error) {
		next := make([]uint64, n.Shards())
		seen := 0
		shardSeq := make(map[int]uint64)
		for seen < msgs {
			got := false
			for s := 0; s < n.Shards(); s++ {
				select {
				case env := <-n.Inbox(node, s):
					op := env.Msg.(*msg.Op)
					if env.Shard != s {
						errc <- fmt.Errorf("node %d: envelope shard %d delivered on inbox %d", node, env.Shard, s)
						return
					}
					if want := msg.ShardOfKey(op.Keys[0], n.Shards()); want != s {
						errc <- fmt.Errorf("node %d: key %d routed to shard %d, want %d", node, op.Keys[0], s, want)
						return
					}
					// FIFO within the shard: IDs on one (link, shard) class
					// must arrive in increasing order.
					if prev, ok := shardSeq[s]; ok && op.ID <= prev {
						errc <- fmt.Errorf("node %d shard %d: id %d after %d", node, s, op.ID, prev)
						return
					}
					shardSeq[s] = op.ID
					env.Recycle()
					seen++
					got = true
				default:
				}
			}
			if !got {
				time.Sleep(100 * time.Microsecond)
			}
		}
		errc <- nil
		_ = next
	}
	errc := make(chan error, 2)
	go recv(a, 0, errc)
	go recv(b, 1, errc)
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Err(); err != nil {
		t.Fatalf("instance 0: %v", err)
	}
	if err := b.Err(); err != nil {
		t.Fatalf("instance 1: %v", err)
	}
	a.Close()
	b.Close()
	if d := a.Dropped() + b.Dropped(); d != 0 {
		t.Fatalf("%d messages dropped", d)
	}
}

// TestFallbackForNonRingPeer routes traffic to a destination marked
// non-ring-reachable through the TCP fallback, transparently to the caller:
// it still arrives on the shm network's merged inbox.
func TestFallbackForNonRingPeer(t *testing.T) {
	fb, err := tcp.New(tcp.Config{Addrs: []string{"127.0.0.1:0", "127.0.0.1:0"}})
	if err != nil {
		t.Fatalf("tcp.New: %v", err)
	}
	n := newNet(t, shm.Config{
		Dir: t.TempDir(), Nodes: 2,
		UseRing:  []bool{true, false}, // node 1 only reachable via TCP
		Fallback: fb,
	})
	const msgs = 500
	for i := 0; i < msgs; i++ {
		n.Send(0, 1, &msg.SspClock{Worker: 0, Clock: int32(i)})
		n.Send(1, 1, &msg.SspClock{Worker: 1, Clock: int32(i)}) // loopback: node 1 is local, rings apply
	}
	next := [2]int32{}
	for i := 0; i < 2*msgs; i++ {
		env := <-n.Inbox(1, 0)
		c := env.Msg.(*msg.SspClock)
		if c.Clock != next[c.Worker] {
			t.Fatalf("link %d->1: got seq %d, want %d", c.Worker, c.Clock, next[c.Worker])
		}
		next[c.Worker]++
		env.Recycle()
	}
	s := n.Stats()
	if s.RemoteMessages != msgs || s.LoopbackMessages != msgs {
		t.Fatalf("stats = %+v, want %d remote / %d loopback", s, msgs, msgs)
	}
}

// TestFallbackWhenRingMissing covers establishment-time fallback: the peer
// never creates its rings (it is a TCP-only instance), so after the ring
// open times out the link forwards everything — in order — over TCP.
func TestFallbackWhenRingMissing(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	fbA, err := tcp.New(tcp.Config{Addrs: addrs, Local: []int{0}})
	if err != nil {
		t.Fatalf("tcp.New A: %v", err)
	}
	b, err := tcp.New(tcp.Config{Addrs: []string{fbA.Addr(0), "127.0.0.1:0"}, Local: []int{1}, DrainTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatalf("tcp.New B: %v", err)
	}
	defer b.Close()
	fbA.SetAddr(1, b.Addr(1))
	a := newNet(t, shm.Config{
		Dir: t.TempDir(), Nodes: 2, Local: []int{0},
		UseRing:     nil, // claims node 1 is ring-reachable, but no ring will appear
		DialTimeout: 300 * time.Millisecond,
		Fallback:    fbA,
	})
	const msgs = 200
	for i := 0; i < msgs; i++ {
		a.Send(0, 1, &msg.SspClock{Worker: 0, Clock: int32(i)})
	}
	for i := 0; i < msgs; i++ {
		env := <-b.Inbox(1, 0)
		c := env.Msg.(*msg.SspClock)
		if c.Clock != int32(i) {
			t.Fatalf("got seq %d, want %d (fallback broke FIFO)", c.Clock, i)
		}
		env.Recycle()
	}
	if a.Dropped() != 0 {
		t.Fatalf("%d messages dropped", a.Dropped())
	}
}

// TestFallbackSharesInboxes checks that a network built with a Fallback has
// no inboxes of its own: Inbox returns the fallback's channels, tcp readers
// deliver non-ring traffic straight onto them in link order, and Close closes
// them once.
func TestFallbackSharesInboxes(t *testing.T) {
	fb, err := tcp.New(tcp.Config{Addrs: []string{"127.0.0.1:0", "127.0.0.1:0"}, Shards: 2})
	if err != nil {
		t.Fatalf("tcp.New: %v", err)
	}
	n := newNet(t, shm.Config{
		Dir: t.TempDir(), Nodes: 2, Shards: 2,
		UseRing:  []bool{true, false}, // node 1 only reachable via TCP
		Fallback: fb,
	})
	for node := 0; node < 2; node++ {
		for s := 0; s < 2; s++ {
			if n.Inbox(node, s) != fb.Inbox(node, s) {
				t.Fatalf("Inbox(%d, %d) is not the fallback's channel", node, s)
			}
		}
	}
	const msgs = 400
	for i := 0; i < msgs; i++ {
		n.Send(0, 1, &msg.Op{Type: msg.OpPush, ID: uint64(i), Keys: []kv.Key{kv.Key(i)}, Vals: []float32{1}})
	}
	last := [2]int64{-1, -1}
	deadline := time.Now().Add(5 * time.Second)
	for got := 0; got < msgs; {
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d messages", got, msgs)
		}
		for s := 0; s < 2; s++ {
			select {
			case env := <-fb.Inbox(1, s):
				id := int64(env.Msg.(*msg.Op).ID)
				if env.Src != 0 || id <= last[s] {
					t.Fatalf("shard %d: message %d from node %d after %d", s, id, env.Src, last[s])
				}
				last[s] = id
				env.Recycle()
				got++
			default:
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	n.Close()
	if _, ok := <-fb.Inbox(1, 0); ok {
		t.Fatal("shared inbox still open after Close")
	}
	if s := n.Stats(); s != fb.Stats() || s.RemoteMessages != msgs {
		t.Fatalf("stats = %+v, fallback %+v, want %d remote messages in one count", s, fb.Stats(), msgs)
	}
}

// TestFallbackMismatchRejected checks New refuses a Fallback that hosts a
// different deployment than its Config: the two would share one Host.
func TestFallbackMismatchRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		fb   tcp.Config
		cfg  shm.Config
	}{
		{"nodes", tcp.Config{Addrs: []string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"}}, shm.Config{Nodes: 2}},
		{"shards", tcp.Config{Addrs: []string{"127.0.0.1:0", "127.0.0.1:0"}, Shards: 2}, shm.Config{Nodes: 2, Shards: 4}},
		{"local", tcp.Config{Addrs: []string{"127.0.0.1:0", "127.0.0.1:0"}, Local: []int{0}}, shm.Config{Nodes: 2, Local: []int{1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fb, err := tcp.New(tc.fb)
			if err != nil {
				t.Fatalf("tcp.New: %v", err)
			}
			defer fb.Close()
			tc.cfg.Dir, tc.cfg.Fallback = t.TempDir(), fb
			if n, err := shm.New(tc.cfg); err == nil {
				n.Close()
				t.Fatalf("New accepted a Fallback with different %s", tc.name)
			}
		})
	}
}

// TestOversizeFrameRejected checks a frame exceeding the ring's cap is
// dropped with a recorded error, not written corruptly.
func TestOversizeFrameRejected(t *testing.T) {
	n := newNet(t, shm.Config{Dir: t.TempDir(), Nodes: 1})
	// Half the default ring in values alone: above the frame cap, which is
	// half the ring less the record header and a wrap marker.
	n.Send(0, 0, &msg.Op{Type: msg.OpPush, Vals: make([]float32, shm.DefaultRingSize/8)})
	if n.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", n.Dropped())
	}
	if err := n.Err(); err == nil || !strings.Contains(err.Error(), "frame cap") {
		t.Fatalf("err = %v, want frame-cap error", err)
	}
}

// TestLargeMessageViaRing sends a frame much bigger than one inbox batch but
// within the (grown) ring cap.
func TestLargeMessageViaRing(t *testing.T) {
	const vals = 1 << 18 // ~1 MiB encoded
	n := newNet(t, shm.Config{Dir: t.TempDir(), Nodes: 2, MaxMessage: 5 << 20})
	op := &msg.Op{Type: msg.OpPush, ID: 42, Keys: make([]kv.Key, vals), Vals: make([]float32, vals)}
	for i := range op.Vals {
		op.Keys[i] = kv.Key(i)
		op.Vals[i] = float32(i)
	}
	n.Send(0, 1, op)
	env := <-n.Inbox(1, 0)
	got := env.Msg.(*msg.Op)
	if got.ID != 42 || len(got.Vals) != vals || got.Vals[vals-1] != float32(vals-1) {
		t.Fatalf("large message corrupted: id=%d len=%d", got.ID, len(got.Vals))
	}
	env.Recycle()
}

// TestCloseDrainsInFlight sends a burst and closes immediately: everything
// already sent must still be delivered (Close flushes before draining). At 4
// shards the burst spreads over all 4 shards, and the link's one consumer
// must hand every shard its frames, each shard in its own order.
func TestCloseDrainsInFlight(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			n := newNet(t, shm.Config{Dir: t.TempDir(), Nodes: 2, Shards: shards, DrainTimeout: time.Second})
			const msgs = 1000
			for i := 0; i < msgs; i++ {
				n.Send(0, 1, &msg.Op{Type: msg.OpPush, ID: uint64(i), Keys: []kv.Key{kv.Key(i)}, Vals: []float32{1}})
			}
			got := make([]int32, shards)
			var wg sync.WaitGroup
			for s := 0; s < shards; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for env := range n.Inbox(1, s) {
						// Key i is on shard i % shards: the shard's k-th message
						// is id k*shards + s.
						if id, want := env.Msg.(*msg.Op).ID, uint64(int(got[s])*shards+s); id != want {
							t.Errorf("shard %d: got id %d, want %d", s, id, want)
						}
						got[s]++
						env.Recycle()
					}
				}()
			}
			n.Close()
			wg.Wait()
			for s := range got {
				if want := int32(msgs / shards); got[s] != want {
					t.Errorf("shard %d: received %d of %d messages across Close", s, got[s], want)
				}
			}
		})
	}
}

// TestSendAfterCloseIsDropped mirrors the tcp transport's semantics.
func TestSendAfterCloseIsDropped(t *testing.T) {
	n := newNet(t, shm.Config{Dir: t.TempDir(), Nodes: 2})
	n.Close()
	n.Send(0, 1, &msg.SspClock{})
	if n.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", n.Dropped())
	}
}
