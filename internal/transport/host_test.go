package transport_test

import (
	"testing"
	"time"

	"lapse/internal/kv"
	"lapse/internal/msg"
	"lapse/internal/transport"
)

func newHost(t *testing.T, nodes, shards int, local []int, inboxSize int) *transport.Host {
	t.Helper()
	h, err := transport.NewHost(nodes, shards, local, inboxSize)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	return h
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestHostRejectsLocalNodeOutOfRange(t *testing.T) {
	for _, local := range [][]int{{-1}, {3}, {0, 5}} {
		if _, err := transport.NewHost(3, 1, local, 0); err == nil {
			t.Errorf("NewHost(3 nodes, local %v) succeeded", local)
		}
	}
}

func TestHostCheckSendPanicsForNonLocalSource(t *testing.T) {
	h := newHost(t, 3, 1, []int{1}, 0)
	h.CheckSend(1, 0) // local source: no panic
	mustPanic(t, "CheckSend from non-local node 0", func() { h.CheckSend(0, 1) })
	mustPanic(t, "CheckSend to node 3 of 3", func() { h.CheckSend(1, 3) })
}

func TestHostInboxPanicsForNonLocalNode(t *testing.T) {
	h := newHost(t, 3, 2, []int{1}, 0)
	if h.Inbox(1, 1) == nil {
		t.Fatal("local inbox is nil")
	}
	mustPanic(t, "Inbox of non-local node 2", func() { h.Inbox(2, 0) })
}

// TestHostDeliverAfterDoneDrops fills a one-slot inbox: Deliver with done
// closed drops the next message and counts it, while a nil done waits until
// the consumer makes room.
func TestHostDeliverAfterDoneDrops(t *testing.T) {
	h := newHost(t, 1, 1, nil, 1)
	env := func(id uint64) transport.Envelope {
		return transport.Envelope{Msg: &msg.SspClock{Clock: int32(id)}, Scratch: msg.GetScratch()}
	}
	done := make(chan struct{})
	h.Deliver(env(0), done) // room: delivered before done closes
	close(done)
	h.Deliver(env(1), done) // full inbox, done closed: dropped
	if h.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", h.Dropped())
	}

	delivered := make(chan struct{})
	go func() {
		h.Deliver(env(2), nil)
		close(delivered)
	}()
	select {
	case <-delivered:
		t.Fatal("Deliver with a nil done returned while the inbox was full")
	case <-time.After(20 * time.Millisecond):
	}
	for _, want := range []int32{0, 2} {
		e := <-h.Inbox(0, 0)
		if got := e.Msg.(*msg.SspClock).Clock; got != want {
			t.Fatalf("received message %d, want %d", got, want)
		}
		e.Recycle()
		if want == 0 {
			<-delivered
		}
	}
	if h.Dropped() != 1 {
		t.Fatalf("dropped = %d after the waiting delivery, want 1", h.Dropped())
	}
	h.CloseInboxes()
	if _, ok := <-h.Inbox(0, 0); ok {
		t.Fatal("inbox open after CloseInboxes")
	}
}

// TestHostDemuxesByMessageShard checks that the Host finds a message's shard
// itself, through Deliver and DeliverInline alike: an Op of key k lands on
// inbox msg.ShardOfKey(k, 4) and a message naming no key on inbox 0. No
// handler is published, so DeliverInline queues too.
func TestHostDemuxesByMessageShard(t *testing.T) {
	const shards = 4
	h := newHost(t, 2, shards, []int{1}, 0)
	for _, d := range []struct {
		name    string
		deliver func(transport.Envelope, <-chan struct{})
	}{{"Deliver", h.Deliver}, {"DeliverInline", h.DeliverInline}} {
		expect := func(m any, want int) {
			t.Helper()
			d.deliver(transport.Envelope{Src: 0, Dst: 1, Msg: m}, nil)
			for s := range shards {
				wantN := 0
				if s == want {
					wantN = 1
				}
				if n := len(h.Inbox(1, s)); n != wantN {
					t.Fatalf("%s of %#v: %d messages on inbox %d, want %d", d.name, m, n, s, wantN)
				}
			}
			if env := <-h.Inbox(1, want); env.Msg != m {
				t.Fatalf("%s: inbox %d holds %#v, want %#v", d.name, want, env.Msg, m)
			}
		}
		for k := range kv.Key(3 * shards) {
			expect(&msg.Op{Type: msg.OpPull, ID: uint64(k), Keys: []kv.Key{k}}, msg.ShardOfKey(k, shards))
		}
		expect(&msg.SspClock{Worker: 1, Clock: 2}, 0)
	}
}
