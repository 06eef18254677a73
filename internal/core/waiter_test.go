package core

import (
	"testing"

	"lapse/internal/adaptive"
	"lapse/internal/kv"
	"lapse/internal/msg"
)

// drainAnswering delivers the next message on the link from src to dst,
// whose handler drains a queue and answers the pull queued there: check runs
// as the answer leaves.
func (f *fixture) drainAnswering(src, dst int, check func()) {
	f.t.Helper()
	answered := false
	f.net.observe = func(s sent) {
		if _, ok := s.m.(*msg.OpResp); ok && s.src == dst && !answered {
			answered = true
			check()
		}
	}
	f.net.deliver(src, dst)
	f.net.observe = nil
	if !answered {
		f.t.Fatal("the drain answered no queued pull")
	}
}

// stillIncoming is the check of a drain in progress: the localize a waits,
// and k is still Incoming at sh.
func (f *fixture) stillIncoming(a *kv.Future, sh *policyShard, k kv.Key) func() {
	return func() {
		f.pending("localize while the drain answers node 2", a)
		if s := sh.nd.state[k].Load(); s != stateIncoming {
			f.t.Fatalf("key %d at node %d in state %d while its queue drains, want Incoming", k, sh.nd.id, s)
		}
	}
}

// queuePull takes k, owned at node 2, on toward node 0, whose Localize of it
// is the one message held on link 0→1: node 2 hands the key over (the
// transfer is held on 2→0) and then pulls it, and the home forwards the pull
// to node 0, where it waits in the queue. Taken from the home instead, the
// key's transfer would lead the forwarded pull on link 1→0.
func (f *fixture) queuePull(k kv.Key) *kv.Future {
	f.t.Helper()
	f.net.deliver(0, 1) // the Localize: the home instructs node 2
	f.net.deliver(1, 2)
	pull, _ := f.pull(4, k)
	f.net.deliver(2, 1)
	f.net.deliver(1, 0)
	f.pending("node 2's pull", pull)
	return pull
}

// chain takes k, owned at node 2, on toward node 0 as queuePull does, and
// then node 2 asks for the key back: the home's instruct overtakes the
// transfer and waits in node 0's queue. It returns node 2's localize.
func (f *fixture) chain(k kv.Key) *kv.Future {
	f.net.deliver(0, 1)
	f.net.deliver(1, 2)
	c, _ := f.localize(4, k)
	f.net.deliver(2, 1)
	f.net.deliver(1, 0)
	return c
}

// relocationTimes returns node n's RelocationTime observation count.
func (f *fixture) relocationTimes(n int) int64 {
	return f.sys.Stats()[n].RelocationTime.Snapshot().Count()
}

// TestLocalizeWaiters is the table of ways a localize comes to wait on a
// key's relocation queue and is woken: each row asserts that every waiter
// completes exactly once, that only a worker whose call found the key NotHere
// sends a Localize, and that exactly those calls observe a relocation time.
// Where a drain answers a queued pull, the queue's localizes still wait as
// the answer leaves: they complete at the queue's close, with the key local.
func TestLocalizeWaiters(t *testing.T) {
	rows := []struct {
		name string
		run  func(f *fixture)
	}{
		{"registered before the transfer", func(f *fixture) {
			k := f.key()
			a, sent := f.localize(0, k)
			if !sent {
				f.t.Fatal("localize of a key that is not here sent no request")
			}
			f.net.deliver(0, 1) // the home owns the key and sends it
			f.pending("localize", a)
			f.net.deliver(1, 0)
			f.done("localize", a)
			f.closed(f.shard(0, k), k, stateOwned)
			if got := f.relocationTimes(0); got != 1 {
				f.t.Fatalf("%d relocation times observed, want 1", got)
			}
		}},
		{"second co-located worker on an already-Incoming key", func(f *fixture) {
			k := f.key()
			a, _ := f.localize(0, k)
			b, sent := f.localize(1, k)
			if sent {
				f.t.Fatal("second localize of a key already on its way sent another request")
			}
			f.pending("first localize", a)
			f.pending("second localize", b)
			f.net.pump()
			f.done("first localize", a)
			f.done("second localize", b)
			f.closed(f.shard(0, k), k, stateOwned)
			if got := f.relocationTimes(0); got != 1 {
				f.t.Fatalf("%d relocation times observed, want 1 (the requester's)", got)
			}
			if got := f.sys.Stats()[0].Relocations.Load(); got != 1 {
				f.t.Fatalf("the key arrived %d times, want 1", got)
			}
		}},
		{"between transfer and queue close", func(f *fixture) {
			k := f.key()
			f.ownedAt(4, k)
			sh := f.shard(0, k)
			// The home hints node 0 to take the key: node 0's shard opens the
			// queue and sends the Localize, and no localize waits on it.
			f.shard(1, k).execute(adaptive.Action{Kind: adaptive.ActRelocate, Key: k, Dest: 0})
			f.net.deliver(1, 0)
			a, sentA := f.localize(0, k)
			pull := f.queuePull(k)
			// The transfer comes in, and its drain answers the queued pull
			// from the stored value. The key is still Incoming while its queue
			// drains, so the early localize keeps waiting, and a localize now
			// joins it.
			var b *kv.Future
			var sentB bool
			f.drainAnswering(2, 0, func() {
				f.pending("early localize after the value is stored", a)
				b, sentB = f.localize(1, k)
				f.pending("late localize", b)
			})
			// Both complete at the queue's close, with the key Owned.
			f.done("early localize", a)
			f.done("late localize", b)
			f.closed(sh, k, stateOwned)
			if sentA || sentB || f.relocationTimes(0) != 0 {
				f.t.Fatalf("localizes of an Incoming key sent requests (%v, %v) or observed a relocation time", sentA, sentB)
			}
			f.net.pump()
			f.done("node 2's pull", pull)
		}},
		{"transfer into a queue holding a remote pull", func(f *fixture) {
			k := f.key()
			f.ownedAt(4, k)
			sh := f.shard(0, k)
			a, _ := f.localize(0, k)
			pull := f.queuePull(k)
			f.drainAnswering(2, 0, f.stillIncoming(a, sh, k)) // the transfer
			f.done("localize", a)
			f.closed(sh, k, stateOwned)
			f.net.pump()
			f.done("node 2's pull", pull)
		}},
		{"two localizes on overlapping keys", func(f *fixture) {
			k7, k9 := f.key(), f.key()
			f.ownedAt(4, k7) // k7 comes from node 2, k9 from its home
			both, _ := f.localize(0, k7, k9)
			one, _ := f.localize(1, k9)
			f.net.deliver(0, 1) // the home sends k9 and instructs node 2 for k7
			f.net.deliver(1, 0)
			f.done("localize of the key that arrived", one)
			f.pending("localize still missing a key", both)
			f.net.pump()
			f.done("localize of both keys", both)
			f.closed(f.shard(0, k7), k7, stateOwned)
			f.closed(f.shard(0, k9), k9, stateOwned)
		}},
		{"key that chains onward mid-drain", func(f *fixture) {
			k := f.key()
			f.ownedAt(4, k)
			a, _ := f.localize(0, k)
			b, _ := f.localize(1, k)
			c := f.chain(k) // node 2 wants the key back before it has arrived
			f.pending("first localize", a)
			f.net.deliver(2, 0)
			// The key did arrive, it just moved on at once.
			f.done("first localize", a)
			f.done("second localize", b)
			f.closed(f.shard(0, k), k, stateNotHere)
			f.net.pump()
			f.done("node 2's localize", c)
			f.closed(f.shard(2, k), k, stateOwned)
		}},
		{"self-addressed instruct behind its transfer", func(f *fixture) {
			// Node 0 asks for a key whose replica has not reached it yet, and
			// the home starts a demotion before the install arrives: the
			// Localize names node 0 the owner, the install answers it, and
			// the demotion then takes the replica away — node 0 holds nothing
			// while the home names it the owner. Its next Localize makes the
			// home instruct node 0 to move the key to node 0.
			k := f.key()
			home, sh := f.shard(1, k), f.shard(0, k)
			home.beginReplicate(k) // owned at the home: promoted at once
			f.net.deliver(1, 2)    // node 2's install; node 0's is held
			a, _ := f.localize(0, k)
			home.beginDemote(k)
			f.net.deliver(0, 1) // the Localize: its instruct waits in the home's queue
			f.net.deliver(1, 0) // the install adopts node 0's queue
			f.done("localize answered by the install", a)
			f.net.deliver(1, 0) // node 0 drops its replica and acks
			b, sent := f.localize(1, k)
			if !sent {
				f.t.Fatal("node 0 sent no Localize for a key it no longer holds")
			}
			f.net.deliver(1, 2) // node 2 drops its replica and acks
			f.net.deliver(2, 1)
			f.net.deliver(0, 1) // the last ack: the home's drain transfers the key to node 0
			mark := len(f.net.since(0))
			f.net.deliver(0, 1) // the second Localize
			self := false
			for _, s := range f.net.since(mark) {
				if in, ok := s.m.(*msg.RelocInstruct); ok && s.dst == 0 && in.Dest == 0 {
					self = true
				}
			}
			if !self {
				f.t.Fatal("the home sent node 0 no instruct addressed to node 0")
			}
			f.pending("second localize", b)
			f.net.deliver(1, 0) // the transfer
			f.done("second localize", b)
			f.closed(sh, k, stateOwned)
			mark, moved := len(f.net.since(0)), sh.stats.Relocations.Load()
			f.net.deliver(1, 0) // the self-addressed instruct: nothing to move
			if got := f.net.since(mark); len(got) != 0 {
				f.t.Fatalf("a self-addressed instruct sent %d messages, want none", len(got))
			}
			if got := sh.stats.Relocations.Load() - moved; got != 0 {
				f.t.Fatalf("a self-addressed instruct relocated the key to its own node %d times", got)
			}
			f.closed(sh, k, stateOwned)
			f.pulls(0, k, 0)
		}},
		{"home's own recall for a promotion", func(f *fixture) {
			k := f.key()
			f.ownedAt(4, k)
			home := f.shard(1, k)
			home.beginReplicate(k) // recalls the key: Incoming at its home
			a, sent := f.localize(2, k)
			if sent {
				f.t.Fatal("the home's worker sent a request for a key its node is recalling")
			}
			f.pending("localize at the recalling home", a)
			f.net.pump()
			f.done("localize at the recalling home", a)
			f.closed(home, k, stateReplicated)
			f.closed(f.shard(0, k), k, stateReplicated)
			if got := f.relocationTimes(1); got != 0 {
				f.t.Fatalf("%d relocation times observed at the home, want 0: its worker sent nothing", got)
			}
		}},
		{"install into a queue holding a remote pull", func(f *fixture) {
			k := f.key()
			f.ownedAt(0, k)
			f.pulls(4, k, 0) // answered by node 0, which node 2's cache now names
			// The home recalls the key and promotes it; the installs are held.
			f.shard(1, k).beginReplicate(k)
			f.net.deliver(1, 0)
			f.net.deliver(0, 1)
			// Node 0 asks for the key, which the home will not send, and node
			// 2's pull waits in node 0's queue. The install adopts the queue.
			sh := f.shard(0, k)
			a, _ := f.localize(0, k)
			pull, _ := f.pull(4, k)
			f.net.deliver(2, 0)
			f.pending("node 2's pull", pull)
			f.drainAnswering(1, 0, f.stillIncoming(a, sh, k))
			f.done("localize", a)
			f.closed(sh, k, stateReplicated)
			f.net.pump()
			f.done("node 2's pull", pull)
		}},
		{"home worker's localize behind a demotion, remote pull queued", func(f *fixture) {
			k := f.key()
			home := f.shard(1, k)
			home.beginReplicate(k) // owned at the home: promoted at once
			f.net.pump()
			home.beginDemote(k) // Incoming at the home until both acks are in
			a, sent := f.localize(2, k)
			if sent {
				f.t.Fatal("the home's worker sent a request for a key its node is demoting")
			}
			f.net.deliver(1, 2) // node 2 drops its replica and acks
			pull, _ := f.pull(4, k)
			f.net.deliver(2, 1) // the ack; node 0's is still outstanding
			f.net.deliver(2, 1) // node 2's pull waits in the home's queue
			f.pending("node 2's pull", pull)
			f.net.deliver(1, 0)                                 // node 0 drops its replica and acks
			f.drainAnswering(0, 1, f.stillIncoming(a, home, k)) // the last ack ends the demotion
			f.done("home worker's localize", a)
			f.closed(home, k, stateOwned)
			f.net.pump()
			f.done("node 2's pull", pull)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			row.run(newFixture(t))
		})
	}
}
