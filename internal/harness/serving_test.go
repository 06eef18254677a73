package harness

import (
	"testing"
	"time"
)

// TestRunServingModes runs a miniature open-loop serving workload through
// both read paths on an instantaneous network: every scheduled request must
// complete and be recorded in the sojourn histogram, the multiget path must
// actually serve reads from the lease cache, and the pull path must never
// touch it.
func TestRunServingModes(t *testing.T) {
	cfg := ServingLoad{
		Keys: 256, ValLen: 4, Batch: 2,
		Rate: 200000, Requests: 300,
		ZipfS: 1.5, HotK: 16, DriftEvery: 100,
		PushEvery: 8, TTL: time.Second, Seed: 3,
		Warmup: 20 * time.Millisecond,
	}
	par := Parallelism{Nodes: 2, Workers: 2}
	for _, mode := range ServingModes() {
		pt := RunServing(par, cfg, mode)
		if pt.Requests != int64(par.Nodes*par.Workers*cfg.Requests) {
			t.Fatalf("%s: requests = %d, want %d", mode, pt.Requests, par.Nodes*par.Workers*cfg.Requests)
		}
		if got := pt.Sojourn.Count(); got != pt.Requests {
			t.Fatalf("%s: sojourn histogram holds %d observations, want %d", mode, got, pt.Requests)
		}
		if pt.Elapsed <= 0 || pt.Throughput() <= 0 {
			t.Fatalf("%s: degenerate point: %+v", mode, pt)
		}
		switch mode {
		case ServingMultiGet:
			if pt.Stats.ServingHits == 0 {
				t.Fatalf("multiget mode recorded no serving-cache hits: %+v", pt.Stats)
			}
			if pt.Stats.LeaseGrants == 0 {
				t.Fatalf("multiget mode recorded no lease grants: %+v", pt.Stats)
			}
			// The workload writes, so leased copies must actually get
			// refreshed in place (or, where the value moved, dropped).
			if pt.Stats.LeaseRefreshes+pt.Stats.LeaseInvalidations == 0 {
				t.Fatalf("multiget mode recorded no lease refreshes: %+v", pt.Stats)
			}
		case ServingPull:
			if pt.Stats.ServingHits != 0 || pt.Stats.LeaseGrants != 0 {
				t.Fatalf("pull mode touched the serving tier: %+v", pt.Stats)
			}
		}
	}
}

// TestServingOpenLoopSLO is the CI serving smoke: a small open-loop arrival
// rate, far below the lease-cached path's capacity, must hold p99 sojourn
// under a deliberately loose bound. The bound is two orders of magnitude above
// the healthy steady state, so only a genuinely broken read path (requests
// queueing behind a stalled cache, revocation storms, a lost wakeup) trips it
// — never a slow CI runner.
func TestServingOpenLoopSLO(t *testing.T) {
	cfg := ServingWorkload()
	cfg.Rate = 1000 // well under capacity: sojourn ~= service time
	cfg.Requests = 400
	pt := RunServing(Parallelism{Nodes: 2, Workers: 2}, cfg, ServingMultiGet)
	const bound = 250 * time.Millisecond
	if p99 := pt.Sojourn.Quantile(0.99); p99 > bound {
		t.Fatalf("open-loop p99 sojourn = %v at %g req/s, want < %v", p99, cfg.Rate, bound)
	}
	if pt.Stats.ServingHits == 0 {
		t.Fatalf("smoke run recorded no serving-cache hits: %+v", pt.Stats)
	}
}
