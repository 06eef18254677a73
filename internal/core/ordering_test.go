package core

import (
	"testing"

	"lapse/internal/kv"
	"lapse/internal/msg"
	"lapse/internal/server"
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

// pullSeesOwnPush issues worker a's PushAsync of k through r and then a pull,
// delivers everything, and fails unless the pull observed the push (Theorem
// 2: a worker's asynchronous operations on one key apply in program order,
// location caches off or not yet filled).
func (f *fixture) pullSeesOwnPush(a *handle, r server.Router, k kv.Key) {
	f.t.Helper()
	a.Track(a.DispatchOp(r, msg.OpPush, []kv.Key{k}, nil, []float32{1}))
	got := make([]float32, 1)
	pull := a.PullAsync([]kv.Key{k}, got)
	f.net.pump()
	if f.done("pull", pull); got[0] != 1 {
		f.t.Fatalf("pull after own PushAsync read %v, want 1: the pull overtook the push", got[0])
	}
	if err := a.WaitAll(); err != nil {
		f.t.Fatal(err)
	}
}

// TestPushRoutedBeforeQueueOpensStaysAheadOfPull is window W1: worker a's
// push is routed "remote" while the key is not here, and before its message
// leaves, co-located worker b's Localize opens the key's queue and puts its
// request on the link. Sent behind that request, the push would come back
// from the home to the new owner — this node — after the transfer, and so
// after a's next pull was queued and drained.
func TestPushRoutedBeforeQueueOpensStaysAheadOfPull(t *testing.T) {
	f := newFixture(t)
	a, b, k := f.sys.Handle(0).(*handle), f.sys.Handle(1), f.key()
	f.pullSeesOwnPush(a, hookedRouter{handle: a, after: func() { b.LocalizeAsync([]kv.Key{k}) }}, k)
	if err := b.WaitAll(); err != nil {
		t.Fatal(err)
	}
}

// TestPushRoutedBeforeKeyArrivesStaysAheadOfPull is window W2: the key turns
// Owned between the lock-free step that found it absent and the step under
// the queue lock. Routed on regardless, the push goes round via the home
// while a's next pull takes the fast path.
func TestPushRoutedBeforeKeyArrivesStaysAheadOfPull(t *testing.T) {
	f := newFixture(t)
	a, b, k := f.sys.Handle(0).(*handle), f.sys.Handle(1), f.key()
	f.pullSeesOwnPush(a, hookedRouter{handle: a, after: func() {
		b.LocalizeAsync([]kv.Key{k})
		f.net.pump() // the key arrives, and its drain closes
	}}, k)
}

// TestPushOnLoopbackStaysAheadOfPullQueuedAtHome is the window at a key's
// home: worker a's push travels the loopback link to its own node's shard
// goroutine, co-located worker b's Localize opens the key's queue behind it,
// and a's next pull is queued directly. The push reaches the shard goroutine
// with the queue open but ahead of the Localize; queued there, it would sit
// behind the pull it precedes in program order.
func TestPushOnLoopbackStaysAheadOfPullQueuedAtHome(t *testing.T) {
	f := newFixture(t)
	a, b, k := f.sys.Handle(2), f.sys.Handle(3), f.key() // node 1's workers, and a key homed there ...
	f.ownedAt(4, k)                                      // ... but owned by node 2
	a.PushAsync([]kv.Key{k}, []float32{1})
	b.LocalizeAsync([]kv.Key{k})
	f.pulls(2, k, 1)
}
