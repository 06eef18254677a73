package driver

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"lapse/internal/adaptive"
	"lapse/internal/cluster"
	"lapse/internal/kv"
)

// Adaptive-management conformance (the "adaptive" and "adaptive+serving"
// modes of the matrix in conformance_test.go): with the online controller
// enabled, the cluster must converge to exactly the values a static configuration
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
	return Options{Adaptive: &adaptive.Config{}}
}

// adaptCounts sums the controller transition counters over one or more PS
// instances (two when the cluster spans transport instances).
func adaptCounts(pss []PS) (promotions, demotions, relocations int64) {
	for _, ps := range pss {
		for _, st := range ps.Stats() {
			promotions += st.AdaptPromotions.Load()
			demotions += st.AdaptDemotions.Load()
			relocations += st.AdaptRelocations.Load()
		}
	}
	return
}

// pushUntil pushes ones into keys — and, in a lease mode, reads them back
// after every push, so the group is promoted and demoted with leases
// outstanding — until done() reports true (checked every few pushes) or the
// deadline passes, and returns the exact push count.
func pushUntil(h kv.KV, read func([]kv.Key, []float32) error, keys []kv.Key, ones []float32, done func() bool) (int64, error) {
	deadline := time.Now().Add(adDeadline)
	dst := make([]float32, len(ones))
	var n int64
	for {
		if err := h.Push(keys, ones); err != nil {
			return n, err
		}
		n++
		if read != nil {
			if err := read(keys, dst); err != nil {
				return n, err
			}
		}
		if n%16 == 0 && (done() || time.Now().After(deadline)) {
			return n, nil
		}
	}
}

// runAdaptiveWorkers is the worker body of the controller modes (see the file
// comment for the phase structure). Worker 0 of each node verifies the exact
// converged values through the mode's read path before anyone stops serving.
func runAdaptiveWorkers(r *confRun, cl *cluster.Cluster, ps PS) {
	cl.RunWorkers(func(_, worker int) {
		h := ps.Handle(worker)
		read := r.reader(h)
		leaseRead := read
		if !r.mode.leases {
			leaseRead = nil
		}
		ones := make([]float32, len(adHotKeys)*confValLen)
		for i := range ones {
			ones[i] = 1
		}
		n, err := pushUntil(h, leaseRead, adHotKeys, ones, func() bool {
			p, _, _ := adaptCounts(r.all)
			return p > 0
		})
		r.hot.Add(n)
		if err != nil {
			r.errs[worker] = fmt.Errorf("worker %d phase 1: %w", worker, err)
			return
		}
		h.Barrier()
		n, err = pushUntil(h, leaseRead, adAltKeys, ones, func() bool {
			_, d, _ := adaptCounts(r.all)
			return d > 0
		})
		r.alt.Add(n)
		if err != nil {
			r.errs[worker] = fmt.Errorf("worker %d phase 2: %w", worker, err)
			return
		}
		h.Barrier()
		// Both totals are final once every worker passed the barrier.
		if worker%confWorkers == 0 {
			if err := awaitConverged(read, adHotKeys, float32(r.hot.Load()), r.mode.wait); err != nil {
				r.errs[worker] = fmt.Errorf("worker %d hot group: %w", worker, err)
			}
			if err := awaitConverged(read, adAltKeys, float32(r.alt.Load()), r.mode.wait); err != nil {
				r.errs[worker] = fmt.Errorf("worker %d alternate group: %w", worker, err)
			}
		}
		h.Barrier() // keep all nodes serving until the readers are done
	})
}

// checkAdaptiveRun asserts the workload's postconditions: the controller
// actually transitioned keys both ways during it, and the authoritative values
// match a static run of the same push sequence exactly, whatever management
// states the keys ended up in.
func checkAdaptiveRun(t *testing.T, r *confRun, ps PS) {
	t.Helper()
	p, d, rel := adaptCounts(r.all)
	if p == 0 || d == 0 {
		t.Fatalf("controller transitions: promotions=%d demotions=%d relocations=%d, want both promotions and demotions > 0", p, d, rel)
	}
	if ps != nil {
		checkAuthoritative(t, ps, adHotKeys, float32(r.hot.Load()))
		checkAuthoritative(t, ps, adAltKeys, float32(r.alt.Load()))
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
	var tot struct{ hot, alt atomic.Int64 }
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
			if err := awaitConverged(h.Pull, adHotKeys, float32(tot.hot.Load()), confWait); err != nil {
				errs[worker] = fmt.Errorf("worker %d hot group: %w", worker, err)
			} else if err := awaitConverged(h.Pull, adAltKeys, float32(tot.alt.Load()), confWait); err != nil {
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
