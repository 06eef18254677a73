package driver

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lapse/internal/kv"
	"lapse/internal/msg"
	"lapse/internal/transport"
)

// TestInlineDeliveryOverRealTransports is the transport-level
// TestInlineDeliveryKeepsLinkOrder over tcp sockets and shm rings, at 1 and
// 4 shards: two links (node 0 to node 1 and node 1's loopback) feed node 1's
// shards, whose receivers hand a message to the shard's handler themselves
// when the shard is idle, while the handler now and then stalls. Every
// message must be handled once, in its (link, shard) order, and by one
// handler at a time per shard. Each (link, shard)'s first message waits in
// the inbox before the handler is published, so the loop handles it, and
// each one's last reaches an idle shard, so a receiver handles it inline.
func TestInlineDeliveryOverRealTransports(t *testing.T) {
	const perLink = 5_000
	for _, tr := range []string{"tcp", "shm"} {
		t.Run(tr, func(t *testing.T) {
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					testInlineDelivery(t, newConfNet(t, tr, shards), shards, perLink)
				})
			}
		})
	}
}

func testInlineDelivery(t *testing.T, net transport.Network, shards, perLink int) {
	defer net.Close()
	var (
		busy       = make([]atomic.Bool, shards)
		overlaps   atomic.Int64
		handled    atomic.Int64
		inline     atomic.Int64
		lastInline [2][]atomic.Bool
		next, sent [2][]uint64
		errOnce    sync.Once
	)
	for link := range 2 {
		lastInline[link] = make([]atomic.Bool, shards)
		next[link], sent[link] = make([]uint64, shards), make([]uint64, shards)
	}
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
		s := msg.ShardOf(env.Msg, shards)
		if busy[s].Swap(true) {
			overlaps.Add(1)
		}
		m := env.Msg.(*msg.Op)
		pc, _, _, _ := runtime.Caller(1)
		in := strings.HasSuffix(runtime.FuncForPC(pc).Name(), ".DeliverInline")
		if in {
			inline.Add(1)
		}
		link := env.Src
		lastInline[link][s].Store(in)
		// Handlers of one shard run one at a time: next[link][s] needs no
		// lock unless that fails, which overlaps reports.
		if want := next[link][s]; m.ID != want {
			errOnce.Do(func() { t.Errorf("link %d->1 shard %d: handled message %d, want %d", link, s, m.ID, want) })
		}
		next[link][s] = m.ID + 1
		if m.ID%97 == 96 {
			time.Sleep(20 * time.Microsecond)
		}
		busy[s].Store(false)
		env.Recycle()
		handled.Add(1)
	}
	// Key k rides shard k % shards; the ID numbers the (link, shard) stream.
	send := func(link, s int) {
		k := kv.Key(int(sent[link][s])*shards + s)
		net.Send(link, 1, &msg.Op{Type: msg.OpPush, ID: sent[link][s], Keys: []kv.Key{k}, Vals: []float32{1}})
		sent[link][s]++
	}
	total := func() (n int64) {
		for link := range 2 {
			for _, c := range sent[link] {
				n += int64(c)
			}
		}
		return n
	}

	for link := range 2 {
		for s := range shards {
			send(link, s)
		}
	}
	for s := range shards {
		for deadline := time.Now().Add(10 * time.Second); len(net.Inbox(1, s)) < 2; {
			if time.Now().After(deadline) {
				t.Fatalf("the first messages did not reach shard %d's inbox", s)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	var served sync.WaitGroup
	for s := range shards {
		served.Add(1)
		go func() {
			defer served.Done()
			net.Serve(1, s, handle)
		}()
	}

	var wg sync.WaitGroup
	for link := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perLink - 2*shards {
				send(link, i%shards)
			}
		}()
	}
	wg.Wait()
	waitHandled(total())

	for link := range 2 {
		for s := range shards {
			for tries := 0; ; tries++ {
				send(link, s)
				waitHandled(total())
				if lastInline[link][s].Load() {
					break
				}
				if tries == 100 {
					t.Fatalf("link %d->1 shard %d: none of 100 messages to an idle shard was handled inline", link, s)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	net.Close()
	served.Wait()
	if n := overlaps.Load(); n != 0 {
		t.Errorf("a handler started while another ran on its shard, %d times", n)
	}
	for link := range 2 {
		for s := range shards {
			if next[link][s] != sent[link][s] {
				t.Errorf("link %d->1 shard %d: last message handled %d, want %d", link, s, int64(next[link][s])-1, sent[link][s]-1)
			}
		}
	}
	if handled.Load() != total() {
		t.Errorf("%d messages handled, %d sent", handled.Load(), total())
	}
	t.Logf("%d of %d messages handled inline", inline.Load(), total())
}
