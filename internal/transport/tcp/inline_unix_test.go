//go:build unix

package tcp

import (
	stdnet "net"
	"sync"
	"testing"
	"time"

	"lapse/internal/kv"
	"lapse/internal/msg"
)

// awaitDirect waits until the (src, dst) link's writer has parked in direct
// mode, so the next Send writes inline, and returns the link's connection.
func awaitDirect(t *testing.T, n *Network, src, dst int) stdnet.Conn {
	t.Helper()
	l := n.getLink(src, dst)
	if !parked(l, 5*time.Second) {
		t.Fatalf("link %d->%d never parked in direct mode", src, dst)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn
}

// TestFIFOAcrossModeSwitches sends, inline, a frame larger than the loopback
// socket takes in one write: the writer goroutine finishes it from the byte
// offset the inline write reached. Frames from concurrent senders that queue
// behind it must follow it, each sender's in order, and arrive intact.
func TestFIFOAcrossModeSwitches(t *testing.T) {
	net := loopback(t, 2)
	defer net.Close()
	net.Send(0, 1, &msg.SspClock{Worker: -1})
	first := <-net.Inbox(1, 0)
	first.Recycle()
	awaitDirect(t, net, 0, 1)
	big := &msg.RelocTransfer{ID: 1, Keys: []kv.Key{7}, Vals: make([]float32, 2<<20)} // 8 MiB
	for i := range big.Vals {
		big.Vals[i] = float32(i % 251)
	}
	net.Send(0, 1, big)
	const senders, perSender = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				net.Send(0, 1, &msg.SspClock{Worker: int32(w), Clock: int32(i)})
			}
		}()
	}
	defer wg.Wait()
	env := <-net.Inbox(1, 0)
	got, ok := env.Msg.(*msg.RelocTransfer)
	if !ok {
		t.Fatalf("first frame is %T, want the large RelocTransfer", env.Msg)
	}
	if len(got.Vals) != len(big.Vals) {
		t.Fatalf("received %d values, want %d", len(got.Vals), len(big.Vals))
	}
	for i := range got.Vals {
		if got.Vals[i] != big.Vals[i] {
			t.Fatalf("value %d corrupted in transit: %v != %v", i, got.Vals[i], big.Vals[i])
		}
	}
	env.Recycle()
	var next [senders]int32
	for i := 0; i < senders*perSender; i++ {
		env := <-net.Inbox(1, 0)
		c, ok := env.Msg.(*msg.SspClock)
		if !ok {
			t.Fatalf("frame %d is %T, want SspClock", i, env.Msg)
		}
		if c.Clock != next[c.Worker] {
			t.Fatalf("sender %d: got seq %d, want %d", c.Worker, c.Clock, next[c.Worker])
		}
		next[c.Worker]++
		env.Recycle()
	}
	if err := net.Err(); err != nil {
		t.Fatalf("transport error: %v", err)
	}
}

// TestInlineWriteErrorIsReported resets the connection under a link parked
// in direct mode. The next Send's inline write fails, and the failure is
// handled as a writer-side one: Err is set, the frame is counted as dropped,
// and its buffer goes back to the pool.
func TestInlineWriteErrorIsReported(t *testing.T) {
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
	net.Send(0, 1, &msg.SspClock{})
	conn, err := peer.Accept()
	if err != nil {
		t.Fatal(err)
	}
	out := awaitDirect(t, net, 0, 1)
	// Reset the connection, and wait until the link's socket has seen it.
	if err := conn.(*stdnet.TCPConn).SetLinger(0); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	out.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := out.Read(make([]byte, 1)); err == nil {
		t.Fatal("read on a reset connection succeeded")
	}

	msg.SetPoison(true)
	defer msg.SetPoison(false)
	bp := msg.GetBuf()
	*bp = msg.AppendTo(*bp, &msg.SspClock{Clock: 1})
	frame := *bp
	net.SendEncoded(0, 1, bp)
	if net.Err() == nil {
		t.Fatal("inline write on a reset connection reported no error")
	}
	if d := net.Dropped(); d != 1 {
		t.Fatalf("Dropped = %d, want 1", d)
	}
	for _, b := range frame {
		if b != 0xDB { // msg's poison byte
			t.Fatalf("frame buffer not returned to the pool: % x", frame)
		}
	}
}
