package driver

import (
	"fmt"
	"slices"
	"sync"
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

// sendLog is a transport that notes, in send order, the two messages a
// promotion sends a lease holder about key k: the value-less LeaseRevoke that
// drops its cached copy and the ManageReplicate that installs its replica.
// Both are key-addressed, so on each (link, shard) stream the order they are
// sent in is the order the holder handles them in.
type sendLog struct {
	transport.Network
	k   kv.Key
	mu  sync.Mutex
	log []string
}

func (n *sendLog) Send(src, dst int, m any) {
	what := ""
	switch t := m.(type) {
	case *msg.LeaseRevoke:
		if len(t.Vals) == 0 && slices.Contains(t.Keys, n.k) {
			what = "drop"
		}
	case *msg.Manage:
		if t.Kind == msg.ManageReplicate && slices.Contains(t.Keys, n.k) {
			what = "replicate"
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
// the sync cycle no message beyond the new home key's own re-broadcast.
func TestPromotionDropsLeasesAheadOfReplica(t *testing.T) {
	const (
		shards = 4
		k      = kv.Key(1) // homed at node 0; node 1 is the holder
	)
	for _, tr := range confTransports {
		t.Run(tr, func(t *testing.T) {
			net := &sendLog{Network: newConfNet(t, tr, shards), k: k}
			cl := cluster.New(cluster.Config{Nodes: confNodes, WorkersPerNode: 1, Transport: net})
			ps := Build(Lapse, cl, confLayout(), Options{
				ReplicaSyncEvery: 200 * time.Microsecond,
				// The lease outlives the test; the controller never relocates (no
				// origin can hold twice a key's demand) and never demotes, so
				// the one transition is the promotion of the leased key.
				Serving: &core.ServingConfig{TTL: time.Minute},
				Adaptive: &adaptive.Config{Tick: 5 * time.Millisecond, HotCount: 16, ColdCount: 4,
					MinDwellTicks: 1, DominanceShare: 2, ColdStreakEpochs: 1 << 30},
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

			// Nothing dirty: the sync cycle carries the new home key's
			// re-broadcast (EnterHomeKey) to the one other node and then
			// falls silent again.
			syncMsgs := func() int64 { return node(0).ReplicaSyncMessages + node(1).ReplicaSyncMessages }
			for deadline := time.Now().Add(adDeadline); syncMsgs() < confNodes-1; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d replica sync messages, want the re-broadcast's %d", syncMsgs(), confNodes-1)
				}
			}
			time.Sleep(20 * time.Millisecond) // a hundred sync intervals
			if got, p := syncMsgs(), node(0).AdaptPromotions; got != confNodes-1 || p != 1 {
				t.Fatalf("%d replica sync messages after %d promotions with nothing written, want %d after 1", got, p, confNodes-1)
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
