package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"lapse/internal/cluster"
	"lapse/internal/kv"
	"lapse/internal/msg"
	"lapse/internal/simnet"
	"lapse/internal/transport"
)

// heldNet is a transport that holds every message any node sends until the
// test delivers it, on the test goroutine, through the destination shard's
// HandleMessage. With the nodes' background loops stopped nothing else runs:
// HandleMessage is the control plane's step function, and the test fixes the
// order in which messages arrive, the same every run.
type heldNet struct {
	transport.Network
	sys *System
	// observe, if set, sees each send as it is made, before the sender goes
	// on: in the middle of a drain, if a drain sends it.
	observe func(s sent)

	mu        sync.Mutex
	log, held []sent // every send, and those not delivered yet, in order
}

// sent is one message on its link.
type sent struct {
	src, dst int
	m        any
}

// newHeldSystem builds nodes × workers over keys keys of one value each, on
// a held network, and stops the background loops: the test runs the ticks,
// the replica sync and every delivery itself.
func newHeldSystem(t *testing.T, nodes, workers int, keys kv.Key, cfg Config) (*heldNet, *System) {
	net := &heldNet{Network: simnet.New(simnet.Config{Nodes: nodes})}
	cl := cluster.New(cluster.Config{Nodes: nodes, WorkersPerNode: workers, Transport: net})
	net.sys = New(cl, kv.NewUniformLayout(keys, 1), cfg)
	t.Cleanup(func() { cl.Close(); net.sys.Shutdown() })
	net.sys.stopLoops()
	return net, net.sys
}

// Send keeps a decoded copy, as a transport would: senders reuse their
// messages once Send returns.
func (n *heldNet) Send(src, dst int, m any) {
	c, _, err := msg.Decode(msg.Encode(m))
	if err != nil {
		panic(err)
	}
	s := sent{src, dst, c}
	n.mu.Lock()
	n.log, n.held = append(n.log, s), append(n.held, s)
	n.mu.Unlock()
	if n.observe != nil {
		n.observe(s)
	}
}

// since returns the sends after the first i.
func (n *heldNet) since(i int) []sent {
	n.mu.Lock()
	defer n.mu.Unlock()
	return slices.Clone(n.log[i:])
}

// deliver delivers the oldest message held on the link from src to dst.
// Taking the oldest on its link keeps every (link, shard) stream in FIFO
// order, whichever link the test serves next.
func (n *heldNet) deliver(src, dst int) {
	if !n.next(func(s sent) bool { return s.src == src && s.dst == dst }) {
		panic(fmt.Sprintf("no message held from node %d to node %d", src, dst))
	}
}

// pump delivers the held messages, and those their handlers send, in send
// order until none is left.
func (n *heldNet) pump() {
	for n.next(func(sent) bool { return true }) {
	}
}

// next delivers the oldest held message that match accepts, if there is one,
// as the destination shard's loop would: a response completes its operation,
// as the server runtime does before any policy sees it; any other message
// goes to the shard's HandleMessage.
func (n *heldNet) next(match func(sent) bool) bool {
	n.mu.Lock()
	i := slices.IndexFunc(n.held, match)
	if i < 0 {
		n.mu.Unlock()
		return false
	}
	s := n.held[i]
	n.held = slices.Delete(n.held, i, i+1)
	n.mu.Unlock()
	nd := n.sys.nodes[s.dst]
	sh := nd.sh[msg.ShardOf(s.m, len(nd.sh))]
	if r, ok := s.m.(*msg.OpResp); ok {
		sh.OnOpResp(r)
		sh.rt.Pending().CompleteResp(n.sys.layout, r)
	} else {
		sh.HandleMessage(s.src, s.m)
	}
	return true
}

// fixture is a three-node system on a held network, which the control-plane
// tests drive message by message and whose tables they rig key by key. Node
// 0 is where local workers (0 and 1), "away" operations and localizes meet
// the gate; node 1 homes every key used (100..199; workers 2 and 3); node 2
// (worker 4) is the other node — the origin of remote operations and the
// registered owner where the home must forward. One replicated key gives
// every node a replication manager (promotions). Location caches are on, so a
// worker that a node answered sends its next access there directly.
type fixture struct {
	t    *testing.T
	net  *heldNet
	sys  *System
	next kv.Key
}

func newFixture(t *testing.T) *fixture {
	net, sys := newHeldSystem(t, 3, 2, 300, Config{Replicate: []kv.Key{299}, LocationCaches: true})
	return &fixture{t: t, net: net, sys: sys, next: 100}
}

func (f *fixture) key() kv.Key { f.next++; return f.next - 1 }

func (f *fixture) shard(n int, k kv.Key) *policyShard { return f.sys.nodes[n].shardOf(k) }

// localize calls LocalizeAsync on worker w and reports whether the call put a
// message on the network.
func (f *fixture) localize(w int, keys ...kv.Key) (fut *kv.Future, sent bool) {
	before := len(f.net.since(0))
	fut = f.sys.Handle(w).LocalizeAsync(keys)
	return fut, len(f.net.since(before)) > 0
}

// ownedAt moves k to worker w's node by a localize delivered in full.
func (f *fixture) ownedAt(w int, k kv.Key) {
	f.t.Helper()
	fut, _ := f.localize(w, k)
	f.net.pump()
	f.done("localize that places the key", fut)
}

func (f *fixture) pull(w int, k kv.Key) (*kv.Future, []float32) {
	got := make([]float32, 1)
	return f.sys.Handle(w).PullAsync([]kv.Key{k}, got), got
}

// pulls asserts that worker w's pull of k, delivered in full, reads want.
func (f *fixture) pulls(w int, k kv.Key, want float32) {
	f.t.Helper()
	fut, got := f.pull(w, k)
	f.net.pump()
	if f.done("pull", fut); got[0] != want {
		f.t.Fatalf("pull of key %d = %v, want %v", k, got[0], want)
	}
}

func (f *fixture) pending(what string, fut *kv.Future) {
	f.t.Helper()
	if done, _ := fut.TryWait(); done {
		f.t.Fatalf("%s completed early", what)
	}
}

// done asserts fut completed. A future completes at most once — a second wake
// of the same waiter would panic in kv.Future.Complete — so together with the
// emptied waiter list (closed) this is exactly-once completion.
func (f *fixture) done(what string, fut *kv.Future) {
	f.t.Helper()
	if done, err := fut.TryWait(); !done || err != nil {
		f.t.Fatalf("%s: done %t, err %v; want completed", what, done, err)
	}
}

// closed asserts that k's queue at sh is closed, with the key in state want
// and no waiter left behind.
func (f *fixture) closed(sh *policyShard, k kv.Key, want uint32) {
	f.t.Helper()
	if s := sh.nd.state[k].Load(); s != want {
		f.t.Fatalf("key %d at node %d in state %d, want %d", k, sh.nd.id, s, want)
	}
	sh.queueMu.Lock()
	defer sh.queueMu.Unlock()
	if q := sh.queues[k]; q != nil {
		f.t.Fatalf("key %d settled in state %d with its queue still open (%d waiters)", k, want, len(q.waiters))
	}
}
