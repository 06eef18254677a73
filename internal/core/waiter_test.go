package core

import (
	"testing"
	"time"

	"lapse/internal/cluster"
	"lapse/internal/kv"
	"lapse/internal/msg"
	"lapse/internal/simnet"
)

// waiterFixture is a three-node system on links slow enough that a relocation
// is still under way when the step after the call that started it runs.
// Node 0 is where localizes wait (workers 0 and 1), node 1 homes the keys
// used (100..199; workers 2 and 3), node 2 is the third party (worker 4).
// Rigged rows open a queue by hand, so no message is in flight and the test
// plays the shard goroutine's part, step by step.
type waiterFixture struct {
	t    *testing.T
	cl   *cluster.Cluster
	sys  *System
	next kv.Key
}

func newWaiterFixture(t *testing.T) *waiterFixture {
	cl := cluster.New(cluster.Config{Nodes: 3, WorkersPerNode: 2,
		Net: simnet.Config{Latency: 10 * time.Millisecond, LoopbackLatency: 20 * time.Microsecond}})
	// One replicated key gives every node a replication manager (promotions);
	// its sync cycle is stopped, as in the gate fixture.
	sys := New(cl, kv.NewUniformLayout(300, 1), Config{Replicate: []kv.Key{299}})
	t.Cleanup(func() { cl.Close(); sys.Shutdown() })
	sys.stopLoops()
	return &waiterFixture{t: t, cl: cl, sys: sys, next: 100}
}

func (f *waiterFixture) key() kv.Key { f.next++; return f.next - 1 }

// incoming opens k's queue at node 0 by hand: state Incoming, nothing sent.
func (f *waiterFixture) incoming(k kv.Key) *policyShard {
	sh := f.sys.nodes[0].shardOf(k)
	sh.queueMu.Lock()
	sh.openQueue(k)
	sh.queueMu.Unlock()
	return sh
}

// localize calls LocalizeAsync on worker w and reports whether the call put a
// message on the network.
func (f *waiterFixture) localize(w int, keys ...kv.Key) (fut *kv.Future, sent bool) {
	before := f.cl.Net().Stats()
	fut = f.sys.Handle(w).LocalizeAsync(keys)
	d := f.cl.Net().Stats().Since(before)
	return fut, d.RemoteMessages+d.LoopbackMessages > 0
}

func (f *waiterFixture) pending(what string, fut *kv.Future) {
	f.t.Helper()
	if done, _ := fut.TryWait(); done {
		f.t.Fatalf("%s completed early", what)
	}
}

// done asserts fut completed. A future completes at most once — a second wake
// of the same waiter would panic in kv.Future.Complete — so together with the
// emptied waiter list (closed) this is exactly-once completion.
func (f *waiterFixture) done(what string, fut *kv.Future) {
	f.t.Helper()
	select {
	case <-fut.Done():
	case <-time.After(10 * time.Second):
		f.t.Fatalf("%s never completed", what)
	}
}

// closed waits for k's queue at sh to close into state want, and checks no
// waiter was left behind.
func (f *waiterFixture) closed(sh *policyShard, k kv.Key, want uint32) {
	f.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); sh.nd.state[k].Load() != want; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			f.t.Fatalf("key %d at node %d in state %d, want %d", k, sh.nd.id, sh.nd.state[k].Load(), want)
		}
	}
	sh.queueMu.Lock()
	defer sh.queueMu.Unlock()
	if q := sh.queues[k]; q != nil {
		f.t.Fatalf("key %d settled in state %d with its queue still open (%d waiters)", k, want, len(q.waiters))
	}
}

// relocationTimes returns node n's RelocationTime observation count.
func (f *waiterFixture) relocationTimes(n int) int64 {
	return f.sys.Stats()[n].RelocationTime.Snapshot().Count()
}

// TestLocalizeWaiters is the table of ways a localize comes to wait on a
// key's relocation queue and is woken: each row asserts that every waiter
// completes exactly once, that only a worker whose call found the key NotHere
// sends a Localize, and that exactly those calls observe a relocation time.
func TestLocalizeWaiters(t *testing.T) {
	f := newWaiterFixture(t)
	transfer := func(k kv.Key, v float32) *msg.RelocTransfer {
		return &msg.RelocTransfer{Keys: []kv.Key{k}, Vals: []float32{v}}
	}
	rows := []struct {
		name string
		run  func(f *waiterFixture)
	}{
		{"registered before the transfer", func(f *waiterFixture) {
			k, times := f.key(), f.relocationTimes(0)
			a, sent := f.localize(0, k)
			if !sent {
				f.t.Fatal("localize of a key that is not here sent no request")
			}
			f.pending("localize", a)
			f.done("localize", a)
			f.closed(f.sys.nodes[0].shardOf(k), k, stateOwned)
			if got := f.relocationTimes(0) - times; got != 1 {
				f.t.Fatalf("%d relocation times observed, want 1", got)
			}
		}},
		{"second co-located worker on an already-Incoming key", func(f *waiterFixture) {
			k, times, moved := f.key(), f.relocationTimes(0), f.sys.Stats()[0].Relocations.Load()
			a, _ := f.localize(0, k)
			b, sent := f.localize(1, k)
			if sent {
				f.t.Fatal("second localize of a key already on its way sent another request")
			}
			f.pending("first localize", a)
			f.pending("second localize", b)
			f.done("first localize", a)
			f.done("second localize", b)
			f.closed(f.sys.nodes[0].shardOf(k), k, stateOwned)
			if got := f.relocationTimes(0) - times; got != 1 {
				f.t.Fatalf("%d relocation times observed, want 1 (the requester's)", got)
			}
			if got := f.sys.Stats()[0].Relocations.Load() - moved; got != 1 {
				f.t.Fatalf("the key arrived %d times, want 1", got)
			}
		}},
		{"between transfer and queue close", func(f *waiterFixture) {
			k, times := f.key(), f.relocationTimes(0)
			sh := f.incoming(k)
			a, sentA := f.localize(0, k)
			f.pending("early localize", a)
			// The transfer comes in — handleTransfer up to its drain. The
			// key is still Incoming while its queue drains, so the early
			// localize keeps waiting, and a localize now joins it.
			sh.nd.store.Set(k, []float32{5})
			f.pending("early localize after the value is stored", a)
			b, sentB := f.localize(1, k)
			f.pending("late localize", b)
			// Both complete at the queue's close, with the key Owned.
			sh.drain(k, backStore, stateOwned, nil)
			f.done("early localize", a)
			f.done("late localize", b)
			f.closed(sh, k, stateOwned)
			if sentA || sentB || f.relocationTimes(0) != times {
				f.t.Fatalf("localizes of an Incoming key sent requests (%v, %v) or observed a relocation time", sentA, sentB)
			}
		}},
		{"two localizes on overlapping keys", func(f *waiterFixture) {
			k7, k9 := f.key(), f.key()
			sh7, sh9 := f.incoming(k7), f.incoming(k9)
			both, _ := f.localize(0, k7, k9)
			one, _ := f.localize(1, k9)
			sh9.handleTransfer(transfer(k9, 9))
			f.done("localize of the key that arrived", one)
			f.pending("localize still missing a key", both)
			sh7.handleTransfer(transfer(k7, 7))
			f.done("localize of both keys", both)
			f.closed(sh7, k7, stateOwned)
			f.closed(sh9, k9, stateOwned)
		}},
		{"key that chains onward mid-drain", func(f *waiterFixture) {
			k := f.key()
			sh := f.incoming(k)
			a, _ := f.localize(0, k)
			b, _ := f.localize(1, k)
			// The home has promised the key to node 2 already: the instruct
			// overtook the transfer and waits in the queue.
			f.sys.nodes[1].ownerEntry(k).Store(2)
			sh.queueMu.Lock()
			q := sh.queues[k]
			q.entries = append(q.entries, queueEntry{instr: &msg.RelocInstruct{Dest: 2, Keys: []kv.Key{k}}, at: time.Now()})
			sh.queueMu.Unlock()
			sh.handleTransfer(transfer(k, 5))
			// The key did arrive, it just moved on at once.
			f.done("first localize", a)
			f.done("second localize", b)
			f.closed(sh, k, stateNotHere)
			f.closed(f.sys.nodes[2].shardOf(k), k, stateOwned)
		}},
		{"self-addressed instruct, queue left open", func(f *waiterFixture) {
			k := f.key()
			sh := f.incoming(k)
			a, _ := f.localize(0, k)
			sh.handleInstruct(&msg.RelocInstruct{Dest: 0, Keys: []kv.Key{k}})
			f.pending("localize after a self-addressed instruct", a)
			sh.queueMu.Lock()
			q := sh.queues[k]
			sh.queueMu.Unlock()
			if q == nil || sh.nd.state[k].Load() != stateIncoming {
				f.t.Fatal("a self-addressed instruct closed the queue: it moves nothing, accesses keep waiting for the transfer")
			}
			// The transfer completes both the localize from before the
			// instruct and one from after it.
			b, sent := f.localize(1, k)
			f.pending("localize after the instruct", b)
			sh.handleTransfer(transfer(k, 5))
			f.done("localize before the instruct", a)
			f.done("localize after the instruct", b)
			f.closed(sh, k, stateOwned)
			if sent {
				f.t.Fatal("localize of an Incoming key sent a request")
			}
		}},
		{"home's own recall for a promotion", func(f *waiterFixture) {
			k, times := f.key(), f.relocationTimes(1)
			if err := f.sys.Handle(4).Localize([]kv.Key{k}); err != nil { // node 2 owns it
				f.t.Fatal(err)
			}
			home := f.sys.nodes[1].shardOf(k)
			home.beginReplicate(k) // recalls the key: Incoming at its home
			a, sent := f.localize(2, k)
			if sent {
				f.t.Fatal("the home's worker sent a request for a key its node is recalling")
			}
			f.pending("localize at the recalling home", a)
			f.done("localize at the recalling home", a)
			f.closed(home, k, stateReplicated)
			f.closed(f.sys.nodes[0].shardOf(k), k, stateReplicated)
			if got := f.relocationTimes(1) - times; got != 0 {
				f.t.Fatalf("%d relocation times observed at the home, want 0: its worker sent nothing", got)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			f.t = t
			row.run(f)
		})
	}
}
