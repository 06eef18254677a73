package driver

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lapse/internal/adaptive"
	"lapse/internal/cluster"
	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/transport"
	"lapse/internal/transport/shm"
	"lapse/internal/transport/tcp"
)

// Adaptive-management conformance: with the online controller enabled, the
// cluster must converge to exactly the values a static configuration
// produces — no update lost or duplicated across live promote/demote/relocate
// transitions — on every transport and shard count, while the controller
// demonstrably transitions keys (the workload is built so promotions and
// demotions both happen mid-traffic).
//
// The workload has two phases, each running until its transition has actually
// been observed (machine speed and the race detector change how long that
// takes, so fixed phase lengths would flake). Phase 1 bursts pushes on a
// small hot group from every worker until the controller promotes it into
// replication — while the pushes are still streaming. Phase 2 moves all
// traffic to an alternate group chosen to share (home node, server shard)
// with the hot group — keeping reports flowing to the same classifiers — until
// the hot group has decayed out of every node's evidence window and is
// demoted, again under live traffic. Exact push
// counts are accumulated in atomics, so the final values are exact known sums
// even though the phase lengths vary.

var (
	// adHotKeys and adAltKeys are both homed at node 0 (range partition of
	// confKeys over confNodes) and pairwise share k mod shards for every
	// confShards value, so reports about the alternate group reach the
	// classifiers managing the hot group.
	adHotKeys = []kv.Key{0, 1, 2, 3}
	adAltKeys = []kv.Key{8, 9, 10, 11}
)

// adDeadline bounds each goal-driven phase; on expiry the workers stop and
// the transition-counter assertions fail with the observed numbers.
const adDeadline = 15 * time.Second

func confAdaptiveOptions() Options {
	return Options{
		ReplicaSyncEvery: 200 * time.Microsecond,
		Adaptive: &adaptive.Config{
			// The defaults, but for the dwell: sixteen recorded observations
			// of a key promote it, however many ticks the race detector's
			// slowdown spreads them over.
			Tick:          5 * time.Millisecond,
			HotCount:      16,
			ColdCount:     4,
			MinDwellTicks: 1,
		},
	}
}

// adaptiveTotals carries the exact cluster-wide push counts of the
// goal-driven phases; shared across transport instances when the cluster
// spans two of them.
type adaptiveTotals struct {
	hot, alt atomic.Int64
}

// adaptCounts sums the controller transition counters over one or more PS
// instances (two when the cluster spans transport instances).
func adaptCounts(pss []PS) (promotions, demotions, relocations int64) {
	for _, ps := range pss {
		t := metrics.Sum(ps.Stats())
		promotions += t.AdaptPromotions
		demotions += t.AdaptDemotions
		relocations += t.AdaptRelocations
	}
	return
}

// pushUntil pushes ones into keys until done() reports true (checked every
// few pushes) or the deadline passes, and returns the exact push count.
func pushUntil(h kv.KV, keys []kv.Key, ones []float32, done func() bool) (int64, error) {
	deadline := time.Now().Add(adDeadline)
	var n int64
	for {
		if err := h.Push(keys, ones); err != nil {
			return n, err
		}
		n++
		if n%16 == 0 && (done() || time.Now().After(deadline)) {
			return n, nil
		}
	}
}

// runAdaptiveWorkers is the shared worker body (see the file comment for the
// phase structure). Worker 0 of each node verifies the exact converged values
// through the regular read path before anyone stops serving.
func runAdaptiveWorkers(cl *cluster.Cluster, ps PS, all []PS, errs []error, tot *adaptiveTotals) {
	cl.RunWorkers(func(_, worker int) {
		h := ps.Handle(worker)
		ones := make([]float32, len(adHotKeys)*confValLen)
		for i := range ones {
			ones[i] = 1
		}
		n, err := pushUntil(h, adHotKeys, ones, func() bool {
			p, _, _ := adaptCounts(all)
			return p > 0
		})
		tot.hot.Add(n)
		if err != nil {
			errs[worker] = fmt.Errorf("worker %d phase 1: %w", worker, err)
			return
		}
		h.Barrier()
		n, err = pushUntil(h, adAltKeys, ones, func() bool {
			_, d, _ := adaptCounts(all)
			return d > 0
		})
		tot.alt.Add(n)
		if err != nil {
			errs[worker] = fmt.Errorf("worker %d phase 2: %w", worker, err)
			return
		}
		h.Barrier()
		// Both totals are final once every worker passed the barrier.
		if worker%confWorkers == 0 {
			if err := awaitConvergedPulls(h, adHotKeys, float32(tot.hot.Load())); err != nil {
				errs[worker] = fmt.Errorf("worker %d hot group: %w", worker, err)
			}
			if err := awaitConvergedPulls(h, adAltKeys, float32(tot.alt.Load())); err != nil {
				errs[worker] = fmt.Errorf("worker %d alternate group: %w", worker, err)
			}
		}
		h.Barrier() // keep all nodes serving until the readers are done
	})
}

// checkAdaptiveRun asserts the workload's postconditions: no worker error,
// and the controller actually transitioned keys both ways during it.
func checkAdaptiveRun(t *testing.T, errs []error, pss []PS) {
	t.Helper()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	p, d, r := adaptCounts(pss)
	if p == 0 || d == 0 {
		t.Fatalf("controller transitions: promotions=%d demotions=%d relocations=%d, want both promotions and demotions > 0", p, d, r)
	}
}

func TestAdaptiveConformanceConvergence(t *testing.T) {
	for _, tr := range confTransports {
		for _, shards := range confShards {
			t.Run(fmt.Sprintf("%s/shards=%d", tr, shards), func(t *testing.T) {
				cl := newConfCluster(t, tr, confWorkers, shards)
				ps := Build(Lapse, cl, confLayout(), confAdaptiveOptions())
				defer func() { cl.Close(); ps.Shutdown() }()

				errs := make([]error, cl.TotalWorkers())
				var tot adaptiveTotals
				runAdaptiveWorkers(cl, ps, []PS{ps}, errs, &tot)
				checkAdaptiveRun(t, errs, []PS{ps})

				// The authoritative values match a static run of the same
				// push sequence exactly, whatever management states the keys
				// ended up in.
				buf := make([]float32, confValLen)
				check := func(keys []kv.Key, want float32) {
					for _, k := range keys {
						ps.ReadParameter(k, buf)
						for i, v := range buf {
							if v != want {
								t.Fatalf("key %d value %d = %v, want %v", k, i, v, want)
							}
						}
					}
				}
				check(adHotKeys, float32(tot.hot.Load()))
				check(adAltKeys, float32(tot.alt.Load()))
			})
		}
	}
}

// TestAdaptiveConformanceMultiProcess runs the same workload on two transport
// instances hosting one node each — the cmd/lapse-node deployment minus the
// process boundary — so reports, transition broadcasts, demote acks, and
// relocation traffic all cross real sockets or shared-memory rings.
func TestAdaptiveConformanceMultiProcess(t *testing.T) {
	for _, tr := range []string{"tcp", "shm"} {
		if tr == "shm" && !shm.Supported() {
			continue
		}
		for _, shards := range confShards {
			t.Run(fmt.Sprintf("%s/shards=%d", tr, shards), func(t *testing.T) {
				var netA, netB transport.Network
				switch tr {
				case "tcp":
					addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
					mkNet := func(node int) *tcp.Network {
						net, err := tcp.New(tcp.Config{Addrs: addrs, Local: []int{node}, Shards: shards,
							DrainTimeout: 200 * time.Millisecond})
						if err != nil {
							t.Fatalf("tcp.New(node %d): %v", node, err)
						}
						return net
					}
					a, b := mkNet(0), mkNet(1)
					a.SetAddr(1, b.Addr(1))
					b.SetAddr(0, a.Addr(0))
					netA, netB = a, b
				case "shm":
					dir := t.TempDir()
					mkNet := func(node int) *shm.Network {
						net, err := shm.New(shm.Config{Dir: dir, Nodes: confNodes, Local: []int{node},
							Shards: shards, DrainTimeout: 200 * time.Millisecond})
						if err != nil {
							t.Fatalf("shm.New(node %d): %v", node, err)
						}
						return net
					}
					netA, netB = mkNet(0), mkNet(1)
				}

				mkCluster := func(net transport.Network) *cluster.Cluster {
					return cluster.New(cluster.Config{Nodes: confNodes, WorkersPerNode: confWorkers, Transport: net})
				}
				clA, clB := mkCluster(netA), mkCluster(netB)
				psA := Build(Lapse, clA, confLayout(), confAdaptiveOptions())
				psB := Build(Lapse, clB, confLayout(), confAdaptiveOptions())
				all := []PS{psA, psB}
				errs := make([]error, confNodes*confWorkers)
				var tot adaptiveTotals

				var wg sync.WaitGroup
				wg.Add(2)
				go func() { defer wg.Done(); runAdaptiveWorkers(clA, psA, all, errs, &tot) }()
				go func() { defer wg.Done(); runAdaptiveWorkers(clB, psB, all, errs, &tot) }()
				wg.Wait()

				clA.Close()
				clB.Close()
				psA.Shutdown()
				psB.Shutdown()
				checkAdaptiveRun(t, errs, all)
				if err := netA.Err(); err != nil {
					t.Fatalf("instance A transport error: %v", err)
				}
				if err := netB.Err(); err != nil {
					t.Fatalf("instance B transport error: %v", err)
				}
			})
		}
	}
}

// TestAdaptiveTransitionsUnderConcurrentPushes cycles burst/pause phases with
// no barriers between them, so promotions, demotions, and relocations race
// directly against a continuous stream of pushes of the very keys in
// transition (run under -race in CI). Workers cycle until the controller has
// executed transitions (at least three full cycles either way), and the final
// sums must still be exact.
func TestAdaptiveTransitionsUnderConcurrentPushes(t *testing.T) {
	const burst = 100
	cl := newConfCluster(t, "simnet", confWorkers, 4)
	ps := Build(Lapse, cl, confLayout(), confAdaptiveOptions())
	defer func() { cl.Close(); ps.Shutdown() }()

	errs := make([]error, cl.TotalWorkers())
	var tot adaptiveTotals
	cl.RunWorkers(func(_, worker int) {
		h := ps.Handle(worker)
		ones := make([]float32, len(adHotKeys)*confValLen)
		for i := range ones {
			ones[i] = 1
		}
		deadline := time.Now().Add(adDeadline)
		for c := 0; ; c++ {
			// Burst: the hot group heats up and is promoted mid-stream.
			// Pause: traffic moves to the alternate group (same classifiers),
			// the hot group decays and is demoted — also mid-stream.
			for _, keys := range [][]kv.Key{adHotKeys, adAltKeys} {
				for i := 0; i < burst; i++ {
					if err := h.Push(keys, ones); err != nil {
						errs[worker] = fmt.Errorf("worker %d cycle %d: %w", worker, c, err)
						return
					}
				}
			}
			tot.hot.Add(burst)
			tot.alt.Add(burst)
			if c >= 2 {
				p, d, r := adaptCounts([]PS{ps})
				if p+d+r > 0 || time.Now().After(deadline) {
					break
				}
			}
		}
		h.Barrier()
		if worker%confWorkers == 0 {
			if err := awaitConvergedPulls(h, adHotKeys, float32(tot.hot.Load())); err != nil {
				errs[worker] = fmt.Errorf("worker %d hot group: %w", worker, err)
			} else if err := awaitConvergedPulls(h, adAltKeys, float32(tot.alt.Load())); err != nil {
				errs[worker] = fmt.Errorf("worker %d alternate group: %w", worker, err)
			}
		}
		h.Barrier()
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	p, d, r := adaptCounts([]PS{ps})
	if p+d+r == 0 {
		t.Fatal("controller executed no transitions during the cyclic workload")
	}
	t.Logf("transitions: promotions=%d demotions=%d relocations=%d", p, d, r)
}
