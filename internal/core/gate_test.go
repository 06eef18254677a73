package core

import (
	"fmt"
	"testing"

	"lapse/internal/kv"
	"lapse/internal/msg"
	"lapse/internal/server"
)

// Who asks the gate, in TestGateTable.
const (
	localWorker  = iota // a worker of the node, key homed elsewhere
	remoteAtHome        // an operation of another node, at the key's home
	remoteAway          // an operation of another node, at a node that is not the key's home
)

// The gate's verdicts, in TestGateTable.
type verdict int

const (
	fromStore verdict = iota
	fromReplica
	queued
	toHome
	toOwner
)

func (v verdict) String() string {
	return [...]string{"served from the store", "served from the replica", "queued", "routed to the home", "routed to the registered owner"}[v]
}

// gateTable is the per-key access gate as a table: what becomes of an access
// given the key's locality state at the node, whether a relocation queue is
// open for it, and who asks — the same for pulls and pushes. States and
// queues pair up in operation (a queue is open exactly while the state is
// Incoming); the other combinations are listed because the gate decides them
// too, and what it decides shows which of the two it consults first.
var gateTable = map[uint32][2][3]verdict{
	//                 no queue: local, at home, away      queue open: local, at home, away
	stateNotHere:    {{toHome, toOwner, toHome}, {queued, queued, queued}},
	stateOwned:      {{fromStore, fromStore, fromStore}, {fromStore, fromStore, fromStore}},
	stateIncoming:   {{toHome, toOwner, toHome}, {queued, queued, queued}},
	stateReplicated: {{fromReplica, fromReplica, fromReplica}, {fromReplica, fromReplica, fromReplica}},
}

// gateFixture is a three-node system whose tables a test rigs key by key:
// node 0 is where local workers and "away" operations meet the gate, node 1
// homes every key used, node 2 is the other node — the origin of remote
// operations and the registered owner where the home must forward.
type gateFixture struct {
	t    *testing.T
	sys  *System
	next kv.Key
}

func newGateFixture(t *testing.T) *gateFixture {
	// One replicated key gives every node a replication manager; its sync
	// cycle is stopped, out of the way of the replicas the test installs by
	// hand.
	_, sys := newTestSystem(t, 3, 1, 300, 1, Config{Replicate: []kv.Key{299}})
	sys.stopLoops()
	return &gateFixture{t: t, sys: sys, next: 100} // node 1 homes 100..199
}

// rig puts a fresh key into state at node n, with or without an open queue,
// holding value 5 in the backing the state implies. At the home, a key that
// is neither Owned nor arriving (queue open) is registered at node 2.
func (f *gateFixture) rig(n int, state uint32, queue bool) (*policyShard, kv.Key) {
	k := f.next
	f.next++
	nd := f.sys.nodes[n]
	sh := nd.shardOf(k)
	nd.store.Take(k)
	switch state {
	case stateOwned:
		nd.store.Set(k, []float32{5})
	case stateReplicated:
		nd.rep.EnterKey(k, []float32{5})
	}
	if n == f.sys.HomeOf(k) && state != stateOwned && !queue {
		nd.ownerEntry(k).Store(2)
	}
	sh.queueMu.Lock()
	nd.state[k].Store(state)
	if queue {
		sh.queues[k] = &keyQueue{}
	}
	sh.queueMu.Unlock()
	return sh, k
}

// ask passes one access to k through the gate at sh as caller would and
// returns the outcome. A local worker's access runs under a real DispatchOp,
// so a queued entry carries a valid pending-operation ID; its message, if it
// is routed, goes to the key's untouched home and is answered there.
func (f *gateFixture) ask(sh *policyShard, caller int, t msg.OpType, k kv.Key, buf []float32) (o outcome) {
	a := access{t: t, k: k, buf: buf}
	if caller != localWorker {
		a.m = &msg.Op{Type: t, ID: 1, Origin: 2}
		return sh.gate(&a, byState)
	}
	h := f.sys.Handle(sh.nd.id).(*handle)
	h.DispatchOp(routerFunc(func(op *server.OpCtx) server.KeyRoute {
		a.op = op
		o = sh.gate(&a, byState)
		return server.KeyRoute{Served: o.served != 0, Enqueued: o.queued, Dest: o.dest}
	}), t, []kv.Key{k}, buf, buf)
	return o
}

type routerFunc func(op *server.OpCtx) server.KeyRoute

func (fn routerFunc) RouteKey(_ msg.OpType, op *server.OpCtx, _ kv.Key, _, _ []float32) server.KeyRoute {
	return fn(op)
}

// check compares an outcome, and its effect on the value and the queue, with
// the verdict the table names.
func (f *gateFixture) check(sh *policyShard, t msg.OpType, k kv.Key, buf []float32, o outcome, queueWas bool, want verdict) {
	f.t.Helper()
	nd := sh.nd
	got := verdict(-1)
	switch {
	case o.served == backStore:
		got = fromStore
	case o.served == backReplica:
		got = fromReplica
	case o.queued:
		got = queued
	case o.dest == f.sys.HomeOf(k) && nd.id != o.dest:
		got = toHome
	case o.dest == 2 && nd.id == f.sys.HomeOf(k):
		got = toOwner
	}
	if got != want {
		f.t.Fatalf("gate: %+v, want %v", o, want)
	}
	sh.queueMu.Lock()
	entries := -1
	if q := sh.queues[k]; q != nil {
		entries = len(q.entries)
	}
	sh.queueMu.Unlock()
	if wantEntries := map[bool]int{false: -1, true: 0}[queueWas]; want == queued {
		if entries != 1 {
			f.t.Fatalf("queued access left %d queue entries, want 1", entries)
		}
	} else if entries != wantEntries {
		f.t.Fatalf("access that was not queued left %d queue entries, want %d", entries, wantEntries)
	}
	if want != fromStore && want != fromReplica {
		return
	}
	val := make([]float32, 1)
	if want == fromStore {
		nd.store.Read(k, val)
	} else {
		nd.rep.ReadReplica(k, val)
	}
	if t == msg.OpPull && (buf[0] != 5 || val[0] != 5) {
		f.t.Fatalf("served pull read %v (value now %v), want 5", buf[0], val[0])
	}
	if t == msg.OpPush && val[0] != 7 {
		f.t.Fatalf("served push of 2 left the value at %v, want 7", val[0])
	}
}

// TestGateTable enumerates state × queue × caller × operation and asserts
// what the gate makes of each access, then the rows whose verdict depends on
// more than that: the key that arrives while the access waits for the queue
// lock, and the home whose owner table lags its open queue.
func TestGateTable(t *testing.T) {
	f := newGateFixture(t)
	stateNames := map[uint32]string{stateNotHere: "NotHere", stateOwned: "Owned", stateIncoming: "Incoming", stateReplicated: "Replicated"}
	callerNames := [...]string{"local worker", "remote op at home", "remote op elsewhere"}
	opNames := map[msg.OpType]string{msg.OpPull: "pull", msg.OpPush: "push"}
	for _, state := range []uint32{stateNotHere, stateOwned, stateIncoming, stateReplicated} {
		for queue, byCaller := range gateTable[state] {
			for caller, want := range byCaller {
				for _, op := range []msg.OpType{msg.OpPull, msg.OpPush} {
					name := fmt.Sprintf("%s/queue=%d/%s/%s", stateNames[state], queue, callerNames[caller], opNames[op])
					t.Run(name, func(t *testing.T) {
						f.t = t
						n := 0
						if caller == remoteAtHome {
							n = 1
						}
						sh, k := f.rig(n, state, queue == 1)
						buf := []float32{2}
						o := f.ask(sh, caller, op, k, buf)
						f.check(sh, op, k, buf, o, queue == 1, want)
					})
				}
			}
		}
	}

	t.Run("arrived while waiting for the lock", func(t *testing.T) {
		f.t = t
		for caller := range callerNames {
			n := 0
			if caller == remoteAtHome {
				n = 1
			}
			sh, k := f.rig(n, stateIncoming, true)
			a := access{t: msg.OpPush, k: k, buf: []float32{2}}
			if caller != localWorker {
				a.m = &msg.Op{Type: msg.OpPush, ID: 1, Origin: 2}
			}
			if by, _ := sh.serve(byState, a.t, a.k, a.buf, a.m); by != 0 {
				t.Fatalf("%s: lock-free step on an Incoming key served from %v", callerNames[caller], by)
			}
			// The transfer lands and the (empty) queue drains before the access
			// gets the lock.
			sh.nd.store.Set(k, []float32{5})
			sh.drain(k, backStore, stateOwned, nil)
			sh.queueMu.Lock()
			o := sh.slow(&a)
			sh.queueMu.Unlock()
			f.check(sh, msg.OpPush, k, a.buf, o, false, fromStore)
		}
	})

	t.Run("home whose owner table lags its open queue", func(t *testing.T) {
		f.t = t
		// A worker of the home opened the queue; its Localize is still on the
		// loopback link, so the owner table names node 2. A remote operation
		// that reaches the shard goroutine now is ahead of that Localize and
		// is forwarded ahead of the instruct; the node's own workers queue.
		sh, k := f.rig(1, stateIncoming, true)
		sh.nd.ownerEntry(k).Store(2)
		buf := []float32{2}
		f.check(sh, msg.OpPush, k, buf, f.ask(sh, remoteAtHome, msg.OpPush, k, buf), true, toOwner)
		// Once the Localize is in, the home is the registered owner and queues
		// what it would have forwarded to itself.
		sh.nd.ownerEntry(k).Store(1)
		f.check(sh, msg.OpPull, k, buf, f.ask(sh, remoteAtHome, msg.OpPull, k, buf), true, queued)
	})
}
