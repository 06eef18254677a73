package driver

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lapse/internal/msg"
	"lapse/internal/transport"
)

// TestInlineDeliveryOverRealTransports is the transport-level
// TestInlineDeliveryKeepsLinkOrder over tcp sockets and shm rings: two links
// (node 0 to node 1 and node 1's loopback) feed node 1's one shard, whose
// receivers hand a message to the shard's handler themselves when the shard
// is idle, while the handler now and then stalls. Every message must be
// handled once, in its link's order, and by one handler at a time. Each
// link's first message waits in the inbox before the handler is published,
// so the loop handles it, and each link's last one reaches an idle shard, so
// a receiver handles it inline.
func TestInlineDeliveryOverRealTransports(t *testing.T) {
	const perLink = 5_000
	for _, tr := range []string{"tcp", "shm"} {
		t.Run(tr, func(t *testing.T) {
			net := newConfNet(t, tr, 1)
			defer net.Close()
			var (
				busy       atomic.Bool
				overlaps   atomic.Int64
				handled    atomic.Int64
				inline     atomic.Int64
				lastInline [2]atomic.Bool
				next, sent [2]int32
				errOnce    sync.Once
			)
			waitHandled := func(n int64) {
				t.Helper()
				for deadline := time.Now().Add(10 * time.Second); handled.Load() < n; {
					if time.Now().After(deadline) {
						t.Fatalf("%d of %d messages handled after 10 s", handled.Load(), n)
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
			handle := func(env transport.Envelope) {
				if busy.Swap(true) {
					overlaps.Add(1)
				}
				m := env.Msg.(*msg.SspClock)
				pc, _, _, _ := runtime.Caller(1)
				in := strings.HasSuffix(runtime.FuncForPC(pc).Name(), ".DeliverInline")
				if in {
					inline.Add(1)
				}
				lastInline[m.Worker].Store(in)
				// Handlers run one at a time: next needs no lock unless
				// that fails, which overlaps reports.
				if want := next[m.Worker]; m.Clock != want {
					errOnce.Do(func() { t.Errorf("link %d->1: handled message %d, want %d", m.Worker, m.Clock, want) })
				}
				next[m.Worker] = m.Clock + 1
				if m.Clock%97 == 96 {
					time.Sleep(20 * time.Microsecond)
				}
				busy.Store(false)
				env.Recycle()
				handled.Add(1)
			}
			send := func(link int) {
				net.Send(link, 1, &msg.SspClock{Worker: int32(link), Clock: sent[link]})
				sent[link]++
			}
			total := func() int64 { return int64(sent[0] + sent[1]) }

			for link := range 2 {
				send(link)
			}
			for deadline := time.Now().Add(10 * time.Second); len(net.Inbox(1, 0)) < 2; {
				if time.Now().After(deadline) {
					t.Fatal("the first messages did not reach the inbox")
				}
				time.Sleep(100 * time.Microsecond)
			}
			served := make(chan struct{})
			go func() {
				net.Serve(1, 0, handle)
				close(served)
			}()

			var wg sync.WaitGroup
			for link := range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range perLink - 2 {
						send(link)
					}
				}()
			}
			wg.Wait()
			waitHandled(total())

			for link := range 2 {
				for tries := 0; ; tries++ {
					send(link)
					waitHandled(total())
					if lastInline[link].Load() {
						break
					}
					if tries == 100 {
						t.Fatalf("link %d->1: none of 100 messages to an idle shard was handled inline", link)
					}
					time.Sleep(time.Millisecond)
				}
			}

			net.Close()
			<-served
			if n := overlaps.Load(); n != 0 {
				t.Errorf("a handler started while another ran, %d times", n)
			}
			for link := range 2 {
				if next[link] != sent[link] {
					t.Errorf("link %d->1: last message handled %d, want %d", link, next[link]-1, sent[link]-1)
				}
			}
			if handled.Load() != total() {
				t.Errorf("%d messages handled, %d sent", handled.Load(), total())
			}
			t.Logf("%d of %d messages handled inline", inline.Load(), total())
		})
	}
}
