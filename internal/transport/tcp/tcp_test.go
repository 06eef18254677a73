package tcp

import (
	"io"
	stdnet "net"
	"runtime"
	"sync"
	"testing"
	"time"

	"lapse/internal/kv"
	"lapse/internal/msg"
)

// loopback starts an all-local network of n nodes on ephemeral ports.
func loopback(t *testing.T, n int) *Network {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	net, err := New(Config{Addrs: addrs})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return net
}

func TestFIFOPerLinkConcurrentSenders(t *testing.T) {
	net := loopback(t, 4)
	defer net.Close()
	const perSender = 300
	var wg sync.WaitGroup
	for src := 0; src < 4; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				net.Send(src, 3, &msg.SspClock{Worker: int32(src), Clock: int32(i)})
			}
		}(src)
	}
	go func() { wg.Wait() }()
	next := [4]int32{}
	for i := 0; i < 4*perSender; i++ {
		env := <-net.Inbox(3, 0)
		c := env.Msg.(*msg.SspClock)
		if c.Clock != next[c.Worker] {
			t.Fatalf("source %d: got seq %d, want %d", c.Worker, c.Clock, next[c.Worker])
		}
		if env.Src != int(c.Worker) || env.Dst != 3 {
			t.Fatalf("bad envelope routing: %+v", env)
		}
		next[c.Worker]++
	}
}

func TestLargeMessage(t *testing.T) {
	net := loopback(t, 2)
	defer net.Close()
	big := &msg.RelocTransfer{ID: 1, Keys: []kv.Key{1}, Vals: make([]float32, 1<<20)}
	for i := range big.Vals {
		big.Vals[i] = float32(i % 251)
	}
	net.Send(0, 1, big)
	env := <-net.Inbox(1, 0)
	got := env.Msg.(*msg.RelocTransfer)
	if len(got.Vals) != len(big.Vals) {
		t.Fatalf("received %d values, want %d", len(got.Vals), len(big.Vals))
	}
	for i := range got.Vals {
		if got.Vals[i] != big.Vals[i] {
			t.Fatalf("value %d corrupted in transit: %v != %v", i, got.Vals[i], big.Vals[i])
		}
	}
}

func TestCloseDrainsInFlightLoopback(t *testing.T) {
	net := loopback(t, 2)
	const msgs = 50
	for i := 0; i < msgs; i++ {
		net.Send(0, 1, &msg.SspClock{Clock: int32(i)})
	}
	done := make(chan int)
	go func() {
		count := 0
		for range net.Inbox(1, 0) {
			count++
		}
		done <- count
	}()
	net.Close()
	if got := <-done; got != msgs {
		t.Fatalf("received %d messages after Close, want %d", got, msgs)
	}
	if err := net.Err(); err != nil {
		t.Fatalf("transport error: %v", err)
	}
}

func TestSendAfterCloseIsDropped(t *testing.T) {
	net := loopback(t, 1)
	net.Close()
	net.Send(0, 0, &msg.SspClock{}) // must not panic
	if got := net.Dropped(); got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
	net.Close() // idempotent
}

// TestMultiProcessInstances wires two transport instances — each hosting one
// node, exactly like two lapse-node processes — through SetAddr and checks
// cross-instance delivery in both directions.
func TestMultiProcessInstances(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	// Short drain: each instance's Close would otherwise wait the full
	// default budget for the peer's still-open connections.
	netA, err := New(Config{Addrs: addrs, Local: []int{0}, DrainTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("New(A): %v", err)
	}
	defer netA.Close()
	netB, err := New(Config{Addrs: addrs, Local: []int{1}, DrainTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("New(B): %v", err)
	}
	defer netB.Close()
	netA.SetAddr(1, netB.Addr(1))
	netB.SetAddr(0, netA.Addr(0))

	if netA.Local(1) || !netA.Local(0) || !netB.Local(1) {
		t.Fatal("local node bookkeeping wrong")
	}
	const msgs = 100
	for i := 0; i < msgs; i++ {
		netA.Send(0, 1, &msg.SspClock{Worker: 0, Clock: int32(i)})
		netB.Send(1, 0, &msg.SspClock{Worker: 1, Clock: int32(i)})
	}
	for i := 0; i < msgs; i++ {
		if c := (<-netB.Inbox(1, 0)).Msg.(*msg.SspClock); c.Clock != int32(i) {
			t.Fatalf("A->B: got seq %d, want %d", c.Clock, i)
		}
		if c := (<-netA.Inbox(0, 0)).Msg.(*msg.SspClock); c.Clock != int32(i) {
			t.Fatalf("B->A: got seq %d, want %d", c.Clock, i)
		}
	}
}

// TestDialRetriesUntilPeerAppears checks the startup race: a process may
// send to a peer whose listener is not up yet; the link must retry within
// the dial budget rather than fail.
func TestDialRetriesUntilPeerAppears(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	netA, err := New(Config{Addrs: addrs, Local: []int{0}, DialTimeout: 5 * time.Second, DrainTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("New(A): %v", err)
	}
	defer netA.Close()

	// Reserve a port for B without listening yet.
	probe, err := New(Config{Addrs: []string{"127.0.0.1:0"}, Local: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	bAddr := probe.Addr(0)
	probe.Close()
	netA.SetAddr(1, bAddr)

	netA.Send(0, 1, &msg.SspClock{Clock: 42}) // link starts dialing now
	time.Sleep(150 * time.Millisecond)        // let a few dial attempts fail

	netB, err := New(Config{Addrs: []string{addrs[0], bAddr}, Local: []int{1}, DrainTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("New(B) on %s: %v", bAddr, err)
	}
	defer netB.Close()
	select {
	case env := <-netB.Inbox(1, 0):
		if c := env.Msg.(*msg.SspClock); c.Clock != 42 {
			t.Fatalf("got %+v", c)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("message never arrived after peer came up")
	}
	if err := netA.Err(); err != nil {
		t.Fatalf("link recorded error despite successful retry: %v", err)
	}
}

// parked waits up to d for the link's writer to park in direct mode, so that
// the next Send writes inline, and reports whether it did.
func parked(l *link, d time.Duration) bool {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(10 * time.Microsecond) {
		l.mu.Lock()
		direct := l.direct
		l.mu.Unlock()
		if direct {
			return true
		}
	}
	return false
}

// TestSendNeverBlocksOnStalledPeer fills the socket of a link whose peer has
// stopped reading: its inbox is full and nobody drains it. Every Send must
// still return at once, queueing what the socket does not take, and once the
// peer reads again every frame arrives exactly once and in order. The sends
// are paced so that the link's writer parks between them while the socket
// has room, so the frame that fills the socket is written inline, in part.
func TestSendNeverBlocksOnStalledPeer(t *testing.T) {
	net, err := New(Config{Addrs: []string{"127.0.0.1:0", "127.0.0.1:0"}, InboxSize: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer net.Close()
	const frames = 2000 // 31 MiB, several times what the sockets buffer
	vals := make([]float32, 4096)
	l := net.getLink(0, 1)
	slowest := make(chan time.Duration, 1)
	go func() {
		var worst time.Duration
		pace := true
		for i := 0; i < frames; i++ {
			vals[0] = float32(i)
			if pace {
				// Once the writer stays busy, the socket is full.
				pace = parked(l, 10*time.Millisecond)
			}
			start := time.Now()
			net.Send(0, 1, &msg.RelocTransfer{ID: uint64(i), Keys: []kv.Key{1}, Vals: vals})
			worst = max(worst, time.Since(start))
		}
		slowest <- worst
	}()
	select {
	case worst := <-slowest:
		// A Send that waited for the peer would wait forever here; the
		// bound only allows for a loaded machine.
		if worst > 250*time.Millisecond {
			t.Fatalf("slowest Send took %v against a stalled peer", worst)
		}
	case <-time.After(10 * time.Second):
		// Unblock the sender so Close can finish before reporting.
		go func() {
			for env := range net.Inbox(1, 0) {
				env.Recycle()
			}
		}()
		t.Fatal("Send blocked on a peer that stopped reading")
	}
	for i := 0; i < frames; i++ {
		env := <-net.Inbox(1, 0)
		got := env.Msg.(*msg.RelocTransfer)
		if got.ID != uint64(i) || len(got.Vals) != len(vals) || got.Vals[0] != float32(i) {
			t.Fatalf("frame %d: got ID %d with %d values starting %v", i, got.ID, len(got.Vals), got.Vals[0])
		}
		env.Recycle()
	}
	if err := net.Err(); err != nil {
		t.Fatalf("transport error: %v", err)
	}
	if d := net.Dropped(); d != 0 {
		t.Fatalf("Dropped = %d, want 0", d)
	}
}

// TestQueuedBatchesDoNotAllocate holds a link's writer behind a socket its
// peer reads only frame by frame, so every frame sent queues and leaves in
// one of the writer's batches. The batches reuse their slices: sending and
// writing a queued frame allocates nothing.
//
// What the link reuses grows to a high-water mark, so the warm-up reaches
// the one the measurement can: with n frames unread at most, a batch, the
// queue behind it and the writer's iovec each hold at most n frames, and at
// most 2n encode buffers are out of the pool — the batch in flight, whose
// head the peer may have read already, and the queue. The warm-up queues
// n+1 frames behind a batch twice, once in each of the link's two queue
// slices, so n+1-frame batches are written and 2n+2 buffers go back to the
// pool before the measured runs.
func TestQueuedBatchesDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	// The measurement runs on one P (AllocsPerRun sets GOMAXPROCS to 1), so
	// the warm-up fills that P's share of the buffer pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	peer, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	net, err := New(Config{Addrs: []string{"127.0.0.1:0", peer.Addr().String()}, Local: []int{0}, DrainTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer net.Close()
	m := &msg.RelocTransfer{Keys: []kv.Key{1}, Vals: make([]float32, 4096)}
	net.Send(0, 1, m)
	conn, err := peer.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, handshakeBytes+msg.Size(m))
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	buf = buf[handshakeBytes:]
	// Fixed socket buffers (no autotuning) hold less than the backlog built
	// below, so frames stay queued however much the peer reads per run.
	l := net.getLink(0, 1)
	l.mu.Lock()
	out := l.conn.(*stdnet.TCPConn)
	l.mu.Unlock()
	if err := out.SetWriteBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*stdnet.TCPConn).SetReadBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
	queued := func() int {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.queue)
	}
	unread := 0
	send := func() {
		net.Send(0, 1, m)
		unread++
	}
	recv := func() {
		if _, err := io.ReadFull(conn, buf); err != nil {
			panic(err)
		}
		unread--
	}
	for sent := 0; queued() < 64; sent++ {
		if sent == 10000 {
			t.Fatal("frames never queued behind the stalled socket")
		}
		send()
	}
	const perRun = 16
	backlog := unread
	n := backlog + perRun
	for range 2 {
		for queued() <= n {
			send()
		}
		// The writer takes the queue once its batch is written.
		for queued() > 0 {
			recv()
		}
	}
	for unread > backlog {
		recv()
	}
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < perRun; i++ {
			send()
		}
		for i := 0; i < perRun; i++ {
			recv()
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per %d queued frames, want 0", allocs, perRun)
	}
}
