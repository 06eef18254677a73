package core

import (
	"runtime"
	"testing"
	"time"

	"lapse/internal/cluster"
	"lapse/internal/kv"
	"lapse/internal/msg"
	"lapse/internal/server"
	"lapse/internal/simnet"
)

// hookedRouter is a worker's router with a callback after each key's
// lock-free routing step: the callback runs inside DispatchOp's routing loop,
// before the group the key was batched into is sent.
type hookedRouter struct {
	*handle
	after func()
}

func (r hookedRouter) RouteKey(t msg.OpType, op *server.OpCtx, k kv.Key, dst, vals []float32) server.KeyRoute {
	route := r.handle.RouteKey(t, op, k, dst, vals)
	r.after()
	return route
}

// newOrderingFixture builds two nodes with two workers each on links slow
// enough that an operation which takes the long way round (home, then back to
// the new owner) provably arrives after everything its worker does next. k is
// homed at node 1; a and b are node 0's workers.
func newOrderingFixture(t *testing.T) (sys *System, a, b *handle, k kv.Key) {
	t.Helper()
	cl := cluster.New(cluster.Config{
		Nodes: 2, WorkersPerNode: 2,
		Net: simnet.Config{Latency: 2 * time.Millisecond, LoopbackLatency: 20 * time.Microsecond},
	})
	sys = New(cl, kv.NewUniformLayout(8, 1), Config{})
	t.Cleanup(func() { cl.Close(); sys.Shutdown() })
	k = 6
	if sys.HomeOf(k) != 1 {
		t.Fatalf("test setup: key %d homed at %d, want 1", k, sys.HomeOf(k))
	}
	return sys, sys.Handle(0).(*handle), sys.Handle(1).(*handle), k
}

// pullSeesOwnPush issues a PushAsync of k through r and then a Pull, and
// fails unless the pull observed the push (Theorem 2: a worker's asynchronous
// operations on one key apply in program order, location caches off).
func pullSeesOwnPush(t *testing.T, a *handle, r server.Router, k kv.Key) {
	t.Helper()
	a.Track(a.DispatchOp(r, msg.OpPush, []kv.Key{k}, nil, []float32{1}))
	got := make([]float32, 1)
	if err := a.Pull([]kv.Key{k}, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("pull after own PushAsync read %v, want 1: the pull overtook the push", got[0])
	}
	if err := a.WaitAll(); err != nil {
		t.Fatal(err)
	}
}

// TestPushRoutedBeforeQueueOpensStaysAheadOfPull is window W1: worker a's
// push is routed "remote" while the key is not here, and before its message
// leaves, co-located worker b's Localize opens the key's queue and puts its
// request on the link. Sent behind that request, the push would come back
// from the home to the new owner — this node — long after a's next pull was
// queued and drained.
func TestPushRoutedBeforeQueueOpensStaysAheadOfPull(t *testing.T) {
	_, a, b, k := newOrderingFixture(t)
	r := hookedRouter{handle: a, after: func() { b.LocalizeAsync([]kv.Key{k}) }}
	pullSeesOwnPush(t, a, r, k)
	if err := b.WaitAll(); err != nil {
		t.Fatal(err)
	}
}

// TestPushRoutedBeforeKeyArrivesStaysAheadOfPull is window W2: the key turns
// Owned between the lock-free step that found it absent and the step under
// the queue lock. Routed on regardless, the push goes round via the home
// while a's next pull takes the fast path.
func TestPushRoutedBeforeKeyArrivesStaysAheadOfPull(t *testing.T) {
	_, a, b, k := newOrderingFixture(t)
	r := hookedRouter{handle: a, after: func() {
		if err := b.Localize([]kv.Key{k}); err != nil {
			t.Error(err)
		}
		for a.nd.state[k].Load() != stateOwned { // the arrival's drain closes just after Localize returns
			runtime.Gosched()
		}
	}}
	pullSeesOwnPush(t, a, r, k)
}

// TestPushOnLoopbackStaysAheadOfPullQueuedAtHome is the window at a key's
// home: worker a's push travels the loopback link to its own node's shard
// goroutine, co-located worker b's Localize opens the key's queue behind it,
// and a's next pull is queued directly. The push reaches the shard goroutine
// with the queue open but ahead of the Localize; queued there, it would sit
// behind the pull it precedes in program order.
func TestPushOnLoopbackStaysAheadOfPullQueuedAtHome(t *testing.T) {
	cl := cluster.New(cluster.Config{
		Nodes: 2, WorkersPerNode: 2,
		Net: simnet.Config{Latency: 2 * time.Millisecond, LoopbackLatency: time.Millisecond},
	})
	sys := New(cl, kv.NewUniformLayout(8, 1), Config{})
	t.Cleanup(func() { cl.Close(); sys.Shutdown() })
	a, b, k := sys.Handle(0), sys.Handle(1), kv.Key(1) // node 0's workers, and a key homed there
	if err := sys.Handle(2).Localize([]kv.Key{k}); err != nil {
		t.Fatal(err) // ... but owned by node 1
	}
	a.PushAsync([]kv.Key{k}, []float32{1})
	b.LocalizeAsync([]kv.Key{k})
	got := make([]float32, 1)
	if err := a.Pull([]kv.Key{k}, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("pull after own PushAsync read %v, want 1: the pull overtook the push", got[0])
	}
}
