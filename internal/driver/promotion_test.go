package driver

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lapse/internal/adaptive"
	"lapse/internal/cluster"
	"lapse/internal/core"
	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/msg"
	"lapse/internal/transport"
)

// sendLog is a transport that notes, in send order, the messages a promotion
// or demotion sends a node about key k: the value-less ReplicaRefresh that drops
// its cached copy, the ManageReplicate that installs its replica and the
// ManageUnreplicate that removes it. All are key-addressed, so on each (link,
// shard) stream the order they are sent in is the order the node handles them
// in.
type sendLog struct {
	transport.Network
	k   kv.Key
	mu  sync.Mutex
	log []string
}

func (n *sendLog) Send(src, dst int, m any) {
	what := ""
	switch t := m.(type) {
	case *msg.ReplicaRefresh:
		if len(t.Vals) == 0 && slices.Contains(t.Keys, n.k) {
			what = "drop"
		}
	case *msg.Manage:
		if t.Kind == msg.ManageReplicate && slices.Contains(t.Keys, n.k) {
			what = "replicate"
		} else if t.Kind == msg.ManageUnreplicate && slices.Contains(t.Keys, n.k) {
			what = "unreplicate"
		}
	}
	if what != "" {
		n.mu.Lock()
		n.log = append(n.log, fmt.Sprintf("%s→%d", what, dst))
		n.mu.Unlock()
	}
	n.Network.Send(src, dst, m)
}

func (n *sendLog) sent() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return slices.Clone(n.log)
}

// TestPromotionDropsLeasesAheadOfReplica promotes a key another node holds a
// lease on, with the serving tier and the controller both on: the holder's
// cached copy must go before its replica can be read — the drop leaves ahead
// of the ManageReplicate on the same stream — so no read after the promotion
// comes out of the serving cache, and a promotion with nothing written costs
// the sync cycle no message.
func TestPromotionDropsLeasesAheadOfReplica(t *testing.T) {
	const (
		shards = 4
		k      = kv.Key(1) // homed at node 0; node 1 is the holder
	)
	for _, tr := range confTransports {
		t.Run(tr, func(t *testing.T) {
			net := &sendLog{Network: newConfNet(t, tr, shards), k: k}
			cl := cluster.New(cluster.Config{Nodes: confNodes, WorkersPerNode: 1, Transport: net})
			// The lease outlives the test, and the one transition is the
			// promotion of the leased key.
			ps := Build(Lapse, cl, confLayout(), Options{
				Serving:  &core.ServingConfig{TTL: time.Minute},
				Adaptive: &adaptive.Config{},
			})
			defer func() { cl.Close(); ps.Shutdown() }()
			node := func(n int) metrics.Totals { return metrics.Sum(ps.Stats()[n*shards : (n+1)*shards]) }
			home, holder := ps.Handle(0), ps.Handle(1)
			multiGet := func(dst []float32) {
				t.Helper()
				if err := holder.(multiGetter).MultiGet([]kv.Key{k}, dst).Wait(); err != nil {
					t.Fatal(err)
				}
			}
			keys, val := []kv.Key{k}, make([]float32, confValLen)

			if err := home.Push(keys, []float32{1, 1}); err != nil {
				t.Fatal(err)
			}
			multiGet(val) // the miss that takes the lease
			multiGet(val)
			if s := node(1); s.ServingHits != 1 || val[0] != 1 {
				t.Fatalf("holder: %d serving hits reading %v, want a hit on the leased 1", s.ServingHits, val)
			}

			// Reads from both nodes — nothing is written — until the controller
			// has promoted k and the holder reads its replica. The first such
			// read must find the cached copy gone already.
			awaitHomeReport(t, ps, home, k, shards)
			for deadline := time.Now().Add(adDeadline); node(1).ReplicaHits == 0; {
				if time.Now().After(deadline) {
					t.Fatalf("no replica read at the holder: promotions=%d, sends %v", node(0).AdaptPromotions, net.sent())
				}
				if err := home.Pull(keys, val); err != nil {
					t.Fatal(err)
				}
				multiGet(val)
			}
			if s := node(1); s.LeaseInvalidations != 1 {
				t.Fatalf("holder reads its replica with %d lease invalidations, want 1", s.LeaseInvalidations)
			}
			sends := net.sent()
			if want := []string{"drop→1", "replicate→1"}; !slices.Equal(sends, want) {
				t.Fatalf("promotion sent the holder %v, want %v", sends, want)
			}

			// Nothing dirty: no refresh can overtake the install on its
			// stream, so the new home key needs no re-broadcast and the sync
			// cycle stays silent.
			time.Sleep(20 * time.Millisecond) // a hundred sync intervals
			syncMsgs := node(0).ReplicaSyncMessages + node(1).ReplicaSyncMessages
			if p := node(0).AdaptPromotions; syncMsgs != 0 || p != 1 {
				t.Fatalf("%d replica sync messages after %d promotions with nothing written, want 0 after 1", syncMsgs, p)
			}

			// The holder's reads are replica reads now: its own write shows at
			// once, which the copy cached before the promotion would not.
			hits := node(1).ServingHits
			if err := holder.Push(keys, []float32{100, 100}); err != nil {
				t.Fatal(err)
			}
			multiGet(val)
			if val[0] != 101 || node(1).ServingHits != hits {
				t.Fatalf("holder read %v with %d new serving hits after the promotion, want 101 from the replica", val, node(1).ServingHits-hits)
			}
		})
	}
}

// holdStream is a transport that holds one stream: from the first message
// from src to dst that start picks, that message and every later one of its
// (link, shard) stream wait until open is called, then go out in send order
// ahead of anything sent after them. Messages pass picks are exempt; every
// other stream passes at once. Held messages are decoded copies, because
// senders may reuse theirs once Send returns.
type holdStream struct {
	transport.Network
	src, dst    int
	start, pass func(m any) bool
	armed       chan struct{} // closed when the hold starts
	release     chan struct{}
	once        sync.Once

	mu      sync.Mutex
	shard   int // the held stream's shard; -1 before the hold starts
	held    []any
	flushed bool
}

func newHoldStream(net transport.Network, src, dst int, start, pass func(m any) bool) *holdStream {
	return &holdStream{Network: net, src: src, dst: dst, start: start, pass: pass,
		armed: make(chan struct{}), release: make(chan struct{}), shard: -1}
}

func (n *holdStream) Send(src, dst int, m any) {
	if src != n.src || dst != n.dst || (n.pass != nil && n.pass(m)) {
		n.Network.Send(src, dst, m)
		return
	}
	shard := msg.ShardOf(m, n.Shards())
	n.mu.Lock()
	if n.shard < 0 && n.start(m) {
		n.shard = shard
		close(n.armed)
		go n.flush()
	}
	if shard != n.shard || n.flushed {
		n.mu.Unlock()
		n.Network.Send(src, dst, m)
		return
	}
	c, _, err := msg.Decode(msg.Encode(m))
	if err != nil {
		panic(err)
	}
	n.held = append(n.held, c)
	n.mu.Unlock()
}

// open ends the hold (idempotent).
func (n *holdStream) open() { n.once.Do(func() { close(n.release) }) }

// flush sends the held messages once the hold ends, oldest first; the stream
// passes straight through again only when none is left.
func (n *holdStream) flush() {
	<-n.release
	for {
		n.mu.Lock()
		if len(n.held) == 0 {
			n.flushed = true
			n.mu.Unlock()
			return
		}
		m := n.held[0]
		n.held = n.held[1:]
		n.mu.Unlock()
		n.Network.Send(n.src, n.dst, m)
	}
}

// isManage reports whether m is a Manage of the given kind naming k.
func isManage(m any, kind msg.ManageKind, k kv.Key) bool {
	t, ok := m.(*msg.Manage)
	return ok && t.Kind == kind && slices.Contains(t.Keys, k)
}

// awaitHomeReport reads k at its home node 0 until the classifier of k's
// shard holds a report of the home's own that carries enough evidence to be
// judged. From then on the home counts as interested in k, so a second node
// that reads it makes two interested nodes and k is promoted. Without it the
// other node's interest could arrive first, alone: it would hold all of k's
// judged demand, and k would be relocated to it instead.
func awaitHomeReport(t *testing.T, ps PS, home kv.KV, k kv.Key, shards int) {
	t.Helper()
	keys, val := []kv.Key{k}, make([]float32, confValLen)
	gauge := &ps.Stats()[msg.ShardOfKey(k, shards)].AdaptReportEvidence
	for deadline := time.Now().Add(adDeadline); ; time.Sleep(time.Millisecond) {
		if ev := gauge.Snapshot(); len(ev) > 0 && adaptive.Sufficient(float32(ev[0])) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the home's report on k never arrived: evidence gauges %v", gauge.Snapshot())
		}
		for range 64 {
			if err := home.Pull(keys, val); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPromotionInstallPrecedesRefresh holds the home's stream of k's shard to
// node 1 from the promotion's ManageReplicate on, for a hundred sync
// intervals, and pushes k once at the home meanwhile. The refresh carrying
// the push rides the same stream behind the install, so node 1 reads the push
// from its new replica once the stream moves. On any other stream the
// refresh would overtake the install, be dropped as "not replicated here",
// and leave the replica stale until the key's next write.
func TestPromotionInstallPrecedesRefresh(t *testing.T) {
	const (
		shards = 4
		k      = kv.Key(1) // homed at node 0, shard 1
	)
	net := newHoldStream(newConfNet(t, "simnet", shards), 0, 1,
		func(m any) bool { return isManage(m, msg.ManageReplicate, k) }, nil)
	cl := cluster.New(cluster.Config{Nodes: confNodes, WorkersPerNode: 1, Transport: net})
	ps := Build(Lapse, cl, confLayout(), Options{Adaptive: &adaptive.Config{}})
	defer func() { cl.Close(); ps.Shutdown() }()
	node := func(n int) metrics.Totals { return metrics.Sum(ps.Stats()[n*shards : (n+1)*shards]) }
	home, replica := ps.Handle(0), ps.Handle(1)
	keys, val := []kv.Key{k}, make([]float32, confValLen)

	// Both nodes read k until the home promotes it. Node 1 reads on its own
	// goroutine: its reads wait out the hold once it starts.
	awaitHomeReport(t, ps, home, k, shards)
	stop, done := make(chan struct{}), make(chan error, 1)
	stopReads := sync.OnceValue(func() error { close(stop); return <-done })
	defer func() { net.open(); stopReads() }() // a held read needs the hold to end
	go func() {
		dst := make([]float32, confValLen)
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := replica.Pull(keys, dst); err != nil {
				done <- err
				return
			}
		}
	}()
	for deadline := time.Now().Add(adDeadline); node(0).AdaptPromotions == 0; {
		if time.Now().After(deadline) {
			t.Fatal("k was never promoted")
		}
		if err := home.Pull(keys, val); err != nil {
			t.Fatal(err)
		}
	}
	if err := home.Push(keys, []float32{1, 1}); err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(100*time.Millisecond, net.open)
	if err := stopReads(); err != nil {
		t.Fatal(err)
	}

	// Only a read served by node 1's replica counts.
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		hits := node(1).ReplicaHits
		if err := replica.Pull(keys, val); err != nil {
			t.Fatal(err)
		}
		if node(1).ReplicaHits > hits && val[0] == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node 1 reads %v (replica hits %d), want the home's push of 1 from its replica", val, node(1).ReplicaHits)
		}
	}
}

// TestDemotionCountsHeldSyncOnce holds node 1's stream of k's shard to the
// home from its next ReplicaSync carrying k on, while both nodes push k and
// the home demotes it, and pushes k from both nodes again while the demotion
// runs. The deltas of the held sync must count exactly once, whether the
// home folds them through the sync or through node 1's demote
// acknowledgement: the final value is the exact push sum. Reports pass the
// hold, so the home still sees node 1's interest in k fade.
//
// k goes cold on evidence, not on silence: an idle window that drops k with
// a little evidence left says nothing about k, and it sends no later
// report.
func TestDemotionCountsHeldSyncOnce(t *testing.T) {
	const (
		shards = 4
		k      = kv.Key(1) // homed at node 0, shard 1
	)
	var holding atomic.Bool
	hold := newHoldStream(newConfNet(t, "simnet", shards), 1, 0,
		func(m any) bool {
			s, ok := m.(*msg.ReplicaSync)
			return ok && holding.Load() && slices.Contains(s.Keys, k)
		},
		func(m any) bool { return isManage(m, msg.ManageReport, k) })
	net := &sendLog{Network: hold, k: k}
	cl := cluster.New(cluster.Config{Nodes: confNodes, WorkersPerNode: 1, Transport: net})
	ps := Build(Lapse, cl, confLayout(), Options{Adaptive: &adaptive.Config{}})
	defer func() { cl.Close(); ps.Shutdown() }()
	defer hold.open() // before the cluster closes: nothing may stay held
	node := func(n int) metrics.Totals { return metrics.Sum(ps.Stats()[n*shards : (n+1)*shards]) }
	h := []kv.KV{ps.Handle(0), ps.Handle(1)}
	keys, ones := []kv.Key{k}, []float32{1, 1}
	var pushes atomic.Int64 // of k
	// burst pushes key n times from both nodes at once.
	burst := func(key kv.Key, n int) error {
		errs := make([]error, len(h))
		var wg sync.WaitGroup
		for i := range h {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range n {
					if errs[i] = h[i].Push([]kv.Key{key}, ones); errs[i] != nil {
						return
					}
					if key == k {
						pushes.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	await := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(adDeadline); !done(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: timed out (sends %v)", what, net.sent())
			}
		}
	}

	// Promote k and let node 1 write its replica.
	awaitHomeReport(t, ps, h[0], k, shards)
	for deadline := time.Now().Add(adDeadline); node(0).AdaptPromotions == 0 || node(1).LocalWrites == 0; {
		if time.Now().After(deadline) {
			t.Fatal("k was never promoted")
		}
		if err := burst(k, 16); err != nil {
			t.Fatal(err)
		}
	}
	// Hold node 1's next sync of k, fed by pushes from both nodes.
	holding.Store(true)
	if err := burst(k, 100); err != nil {
		t.Fatal(err)
	}
	await("hold", func() bool { return chanClosed(hold.armed) })
	// Traffic moves to key 2, homed at node 0 on another shard (node 1's
	// pushes of it pass the hold), until both nodes' windows are full of it
	// and prove k absent: k goes cold. Once the home has told node 1 to drop
	// its replica, both nodes push k again — racing node 1's exit and the
	// home's finalize — and the hold ends while they do.
	await("demotion start", func() bool {
		if err := burst(2, 2048); err != nil {
			t.Fatal(err)
		}
		return slices.Contains(net.sent(), "unreplicate→1")
	})
	time.AfterFunc(10*time.Millisecond, hold.open)
	if err := burst(k, 50); err != nil {
		t.Fatal(err)
	}
	await("demotion", func() bool { return node(0).AdaptDemotions > 0 })

	want := float32(pushes.Load())
	for _, hn := range h {
		if err := awaitConverged(hn.Pull, keys, want, confWait); err != nil {
			t.Fatal(err)
		}
	}
	checkAuthoritative(t, ps, keys, want)
}

// chanClosed reports whether c is closed.
func chanClosed(c chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}
