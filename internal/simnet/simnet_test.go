package simnet

import (
	"sync"
	"testing"
	"time"

	"lapse/internal/kv"
	"lapse/internal/msg"
)

// clockMsg is the smallest wire message, used as a sequence-numbered probe.
func clockMsg(worker, seq int) *msg.SspClock {
	return &msg.SspClock{Worker: int32(worker), Clock: int32(seq)}
}

func seqOf(t *testing.T, m any) int {
	t.Helper()
	c, ok := m.(*msg.SspClock)
	if !ok {
		t.Fatalf("unexpected message %T", m)
	}
	return int(c.Clock)
}

func TestFIFOPerLink(t *testing.T) {
	n := New(Config{Nodes: 2})
	defer n.Close()
	const msgs = 1000
	for i := 0; i < msgs; i++ {
		n.Send(0, 1, clockMsg(0, i))
	}
	for i := 0; i < msgs; i++ {
		env := <-n.Inbox(1, 0)
		if got := seqOf(t, env.Msg); got != i {
			t.Fatalf("message %d arrived out of order (got %v)", i, got)
		}
		if env.Src != 0 || env.Dst != 1 {
			t.Fatalf("bad envelope routing: %+v", env)
		}
	}
}

func TestFIFOWithLatency(t *testing.T) {
	n := New(Config{Nodes: 2, Latency: 100 * time.Microsecond})
	defer n.Close()
	const msgs = 50
	for i := 0; i < msgs; i++ {
		n.Send(0, 1, clockMsg(0, i))
	}
	for i := 0; i < msgs; i++ {
		env := <-n.Inbox(1, 0)
		if got := seqOf(t, env.Msg); got != i {
			t.Fatalf("message %d out of order (got %v)", i, got)
		}
	}
}

func TestLatencyIsApplied(t *testing.T) {
	const lat = 2 * time.Millisecond
	n := New(Config{Nodes: 2, Latency: lat})
	defer n.Close()
	start := time.Now()
	n.Send(0, 1, clockMsg(0, 0))
	<-n.Inbox(1, 0)
	if got := time.Since(start); got < lat {
		t.Fatalf("message delivered after %v, want >= %v", got, lat)
	}
}

func TestLoopbackLatencyDistinct(t *testing.T) {
	const loop = 1 * time.Millisecond
	n := New(Config{Nodes: 2, Latency: 50 * time.Millisecond, LoopbackLatency: loop})
	defer n.Close()
	start := time.Now()
	n.Send(1, 1, clockMsg(0, 0))
	<-n.Inbox(1, 0)
	got := time.Since(start)
	if got < loop {
		t.Fatalf("loopback delivered after %v, want >= %v", got, loop)
	}
	if got > 20*time.Millisecond {
		t.Fatalf("loopback took %v; appears to use remote latency", got)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// ~1 MB at 100 MB/s should take >= 10ms on top of zero latency.
	n := New(Config{Nodes: 2, BytesPerSecond: 100e6})
	defer n.Close()
	big := &msg.RelocTransfer{ID: 1, Keys: []kv.Key{1}, Vals: make([]float32, 250_000)}
	start := time.Now()
	n.Send(0, 1, big)
	<-n.Inbox(1, 0)
	if got := time.Since(start); got < 9*time.Millisecond {
		t.Fatalf("1MB at 100MB/s delivered in %v, want >= ~10ms", got)
	}
}

func TestStats(t *testing.T) {
	n := New(Config{Nodes: 3})
	defer n.Close()
	a := &msg.Localize{ID: 1, Origin: 0, Keys: []kv.Key{1, 2}}
	b := &msg.SspClock{Worker: 1, Clock: 2}
	c := &msg.Barrier{Enter: true, Seq: 1, Worker: 3}
	n.Send(0, 1, a)
	n.Send(0, 2, b)
	n.Send(1, 1, c) // loopback
	<-n.Inbox(1, 0)
	<-n.Inbox(2, 0)
	<-n.Inbox(1, 0)
	s := n.Stats()
	if want := int64(msg.Size(a) + msg.Size(b)); s.RemoteMessages != 2 || s.RemoteBytes != want {
		t.Fatalf("remote stats = %+v, want 2 msgs / %d bytes", s, want)
	}
	if want := int64(msg.Size(c)); s.LoopbackMessages != 1 || s.LoopbackBytes != want {
		t.Fatalf("loopback stats = %+v, want 1 msg / %d bytes", s, want)
	}
}

func TestCloseDrainsInFlight(t *testing.T) {
	n := New(Config{Nodes: 2, Latency: time.Millisecond})
	const msgs = 20
	for i := 0; i < msgs; i++ {
		n.Send(0, 1, clockMsg(0, i))
	}
	done := make(chan int)
	go func() {
		count := 0
		for range n.Inbox(1, 0) {
			count++
		}
		done <- count
	}()
	n.Close()
	if got := <-done; got != msgs {
		t.Fatalf("received %d messages after Close, want %d", got, msgs)
	}
}

// TestCloseKeepsLinkOrder closes the network while a link's messages are
// still due one after the other, so the scheduler may be firing one of them
// when Close starts: the rest must still arrive after it, in send order.
func TestCloseKeepsLinkOrder(t *testing.T) {
	n := New(Config{Nodes: 2, Latency: 20 * time.Microsecond})
	const msgs = 400
	for i := 0; i < msgs; i++ {
		n.Send(0, 1, clockMsg(0, i))
	}
	got := make(chan []int32)
	go func() {
		var seqs []int32
		for env := range n.Inbox(1, 0) {
			seqs = append(seqs, env.Msg.(*msg.SspClock).Clock)
		}
		got <- seqs
	}()
	time.Sleep(20 * time.Microsecond)
	n.Close()
	seqs := <-got
	if len(seqs) != msgs {
		t.Fatalf("received %d messages after Close, want %d", len(seqs), msgs)
	}
	for i, seq := range seqs {
		if int(seq) != i {
			t.Fatalf("message %d arrived in place %d", seq, i)
		}
	}
}

func TestConcurrentSenders(t *testing.T) {
	n := New(Config{Nodes: 4})
	defer n.Close()
	const perSender = 200
	var wg sync.WaitGroup
	for src := 0; src < 4; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				n.Send(src, 3, clockMsg(src, i))
			}
		}(src)
	}
	go func() { wg.Wait() }()
	// Per-source sequences must arrive in order even when interleaved.
	next := [4]int{}
	for i := 0; i < 4*perSender; i++ {
		env := <-n.Inbox(3, 0)
		c := env.Msg.(*msg.SspClock)
		if int(c.Clock) != next[c.Worker] {
			t.Fatalf("source %d: got seq %d, want %d", c.Worker, c.Clock, next[c.Worker])
		}
		next[c.Worker]++
	}
}

func TestSendOnClosedIsDropped(t *testing.T) {
	n := New(Config{Nodes: 1})
	n.Close()
	n.Send(0, 0, clockMsg(0, 0)) // must not panic
	if got := n.Dropped(); got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
	if s := n.Stats(); s.LoopbackMessages != 0 {
		t.Fatalf("dropped message counted in stats: %+v", s)
	}
}

func TestDoubleCloseIsSafe(t *testing.T) {
	n := New(Config{Nodes: 1})
	n.Close()
	n.Close() // must not panic
}
