package transport

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lapse/internal/msg"
)

// serveCheck is a shard handler that checks what DeliverInline and Serve
// promise: every message of a link is handled exactly once and in the
// link's order, and never two at a time. Every 97th message of a link holds
// the shard for 20 µs, so deliveries meanwhile find it busy and queue behind
// it.
type serveCheck struct {
	t          *testing.T
	busy       atomic.Bool
	overlaps   atomic.Int64
	next       [2]atomic.Int32 // per link: the sequence number expected next
	handled    atomic.Int64
	inline     atomic.Int64   // handled on the delivering goroutine
	lastInline [2]atomic.Bool // per link: whether its latest message was
	errOnce    sync.Once
}

// handle is the Handler. Whether it runs inline is read from its caller: the
// producer's DeliverInline, or the loop in Serve.
func (c *serveCheck) handle(env Envelope) {
	if c.busy.Swap(true) {
		c.overlaps.Add(1)
	}
	m := env.Msg.(*msg.SspClock)
	pc, _, _, _ := runtime.Caller(1)
	inline := strings.HasSuffix(runtime.FuncForPC(pc).Name(), ".DeliverInline")
	if inline {
		c.inline.Add(1)
	}
	c.lastInline[m.Worker].Store(inline)
	if want := c.next[m.Worker].Add(1) - 1; m.Clock != want {
		c.errOnce.Do(func() { c.t.Errorf("link %d: handled message %d, want %d", m.Worker, m.Clock, want) })
		c.next[m.Worker].Store(m.Clock + 1)
	}
	if m.Clock%97 == 96 {
		time.Sleep(20 * time.Microsecond)
	}
	c.busy.Store(false)
	env.Recycle()
	c.handled.Add(1)
}

// waitHandled waits until n messages were handled. The last handler may
// still hold the shard for a moment.
func (c *serveCheck) waitHandled(n int64) {
	c.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); c.handled.Load() < n; {
		if time.Now().After(deadline) {
			c.t.Fatalf("%d of %d messages handled after 10 s", c.handled.Load(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestInlineDeliveryKeepsLinkOrder feeds one shard from two links, each
// delivered by one goroutine at a time through DeliverInline, while the
// handler now and then stalls. It checks that every message is handled once,
// in its link's order, and by one handler at a time, in four phases:
//
//  1. each link's first message arrives before Serve publishes the handler,
//     so the loop handles it;
//  2. both links deliver flat out, racing the loop, while every 97th
//     message of a link stalls the shard;
//  3. handoff rounds: the test holds the shard's token, as a handler of
//     another link would mid-message; a message of link 0 queues and the
//     loop takes it and waits for the token; the test lets go of the token
//     and at once delivers link 0's next message, which finds the token free
//     before the loop has woken with the earlier message in its hand — it
//     must queue behind that one, not overtake it;
//  4. with the shard idle, each link's next message is handled inline.
func TestInlineDeliveryKeepsLinkOrder(t *testing.T) {
	const (
		flat   = 20_000 // phase 2 messages per link
		rounds = 200    // phase 3
		dst    = 2
	)
	h, err := NewHost(3, 1, []int{dst}, 64)
	if err != nil {
		t.Fatal(err)
	}
	sl := &h.slots[dst][0]
	c := &serveCheck{t: t}
	var seq [2]int32
	envelope := func(link int) Envelope {
		s := seq[link]
		seq[link]++
		return Envelope{Src: link, Dst: dst, Msg: &msg.SspClock{Worker: int32(link), Clock: s}}
	}
	deliver := func(link int) { h.DeliverInline(envelope(link), nil) }
	total := func() int64 { return int64(seq[0] + seq[1]) }

	// Phase 1.
	for link := range 2 {
		deliver(link) // no handler yet: queued
	}
	served := make(chan struct{})
	go func() {
		h.Serve(dst, 0, c.handle)
		close(served)
	}()

	// Phase 2.
	var wg sync.WaitGroup
	for link := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range flat {
				deliver(link)
			}
		}()
	}
	wg.Wait()
	c.waitHandled(total())

	// Phase 3.
	for range rounds {
		sl.token.Lock()
		deliver(0) // busy shard: queued
		for len(sl.in) > 0 {
			runtime.Gosched()
		}
		time.Sleep(20 * time.Microsecond) // the loop waits for the token
		next := envelope(0)
		sl.token.Unlock()
		h.DeliverInline(next, nil)
		c.waitHandled(total())
	}

	// Phase 4. The shard is idle once the loop has let go of its last
	// message, which waitHandled does not wait for.
	for link := range 2 {
		for tries := 0; ; tries++ {
			deliver(link)
			c.waitHandled(total())
			if c.lastInline[link].Load() {
				break
			}
			if tries == 100 {
				t.Fatalf("link %d: none of 100 deliveries to an idle shard was handled inline", link)
			}
			time.Sleep(time.Millisecond)
		}
	}

	h.CloseInboxes()
	<-served
	if n := c.overlaps.Load(); n != 0 {
		t.Errorf("a handler started while another ran, %d times", n)
	}
	for link := range 2 {
		if got := c.next[link].Load(); got != seq[link] {
			t.Errorf("link %d: %d messages handled in order, want %d", link, got, seq[link])
		}
	}
	if c.handled.Load() != total() {
		t.Errorf("%d messages handled, %d delivered", c.handled.Load(), total())
	}
	t.Logf("%d of %d messages handled inline", c.inline.Load(), total())
}
