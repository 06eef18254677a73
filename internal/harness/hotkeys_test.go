package harness

import (
	"testing"

	"lapse/internal/metrics"
)

// TestZipfReplicationCutsHotKeyRemoteReads is the headline acceptance check
// of the replication subsystem: on a Zipf-skewed workload with the top-k
// keys replicated, remote reads drop by at least 10× versus relocation-only
// Lapse — the hot keys' reads become node-local replica hits. (The per-
// sync-round O(nodes × shards) message bound is pinned separately by
// core.TestReplicaSyncRoundIsONodesMessages.)
func TestZipfReplicationCutsHotKeyRemoteReads(t *testing.T) {
	par := Parallelism{Nodes: 4, Workers: 2}
	cfg := HotKeyConfig{
		Keys: 2048, ValLen: 8, OpsPerWorker: 400,
		ZipfS: 2.0, HotK: 32, PushEvery: 2, Seed: 11,
	}
	base := RunHotKeys(par, cfg, HotKeyRelocation)
	repl := RunHotKeys(par, cfg, HotKeyReplication)

	if base.Stats.RemoteReads < 100 {
		t.Fatalf("baseline produced only %d remote reads; workload too small to be meaningful", base.Stats.RemoteReads)
	}
	floor := repl.Stats.RemoteReads
	if floor == 0 {
		floor = 1
	}
	if ratio := base.Stats.RemoteReads / floor; ratio < 10 {
		t.Fatalf("remote reads dropped only %dx (baseline %d, replicated %d), want >= 10x",
			ratio, base.Stats.RemoteReads, repl.Stats.RemoteReads)
	}
	if repl.Stats.ReplicaHits == 0 {
		t.Fatal("replicated run recorded no replica hits")
	}
	// The hot keys' reads moved to replicas, not to relocation churn.
	if repl.Stats.Relocations > base.Stats.Relocations {
		t.Fatalf("replication increased relocations: %d > %d", repl.Stats.Relocations, base.Stats.Relocations)
	}
	t.Logf("remote reads: relocation-only %d, replicated %d (%.0fx); replica hits %d, sync messages %d",
		base.Stats.RemoteReads, repl.Stats.RemoteReads,
		float64(base.Stats.RemoteReads)/float64(floor),
		repl.Stats.ReplicaHits, repl.Stats.ReplicaSyncMessages)
}

// TestLocalizeThrashReplicationWins pins the motivating comparison from the
// paper's future-work discussion: localizing shared hot keys before every
// access (the relocation pattern that works so well for partitionable
// workloads) thrashes when all nodes want the same keys, while replication
// serves them locally with bounded background traffic.
func TestLocalizeThrashReplicationWins(t *testing.T) {
	par := Parallelism{Nodes: 4, Workers: 2}
	cfg := HotKeyConfig{
		Keys: 256, ValLen: 8, OpsPerWorker: 200,
		ZipfS: 2.0, HotK: 16, PushEvery: 2, Seed: 7,
	}
	thrash := RunHotKeys(par, cfg, HotKeyLocalize)
	repl := RunHotKeys(par, cfg, HotKeyReplication)
	if thrash.Stats.Relocations < 50 {
		t.Fatalf("localize mode relocated only %d keys; expected thrashing", thrash.Stats.Relocations)
	}
	if repl.Stats.Relocations*4 > thrash.Stats.Relocations {
		t.Fatalf("replication still relocates heavily: %d vs %d under thrash",
			repl.Stats.Relocations, thrash.Stats.Relocations)
	}
	t.Logf("relocations: localize-everything %d, replicated %d; network messages %d vs %d",
		thrash.Stats.Relocations, repl.Stats.Relocations,
		thrash.Net.RemoteMessages, repl.Net.RemoteMessages)
}

func TestUniformWorkloadRuns(t *testing.T) {
	par := Parallelism{Nodes: 2, Workers: 1}
	cfg := HotKeyWorkloads()["uniform"]
	cfg.OpsPerWorker = 50
	pt := RunHotKeys(par, cfg, HotKeyRelocation)
	if pt.Ops != int64(par.Nodes*par.Workers*cfg.OpsPerWorker) {
		t.Fatalf("Ops = %d, want %d", pt.Ops, par.Nodes*par.Workers*cfg.OpsPerWorker)
	}
	if pt.Stats.TotalReads() < pt.Ops {
		t.Fatalf("TotalReads = %d < ops %d", pt.Stats.TotalReads(), pt.Ops)
	}
}

// TestAdaptiveHoldsAtNetworkLatency runs the Zipf mix on the paper's
// simulated network (300 µs one way), where a remote worker issues about a
// thousand accesses per second. The controller must still find the hot set:
// a quarter of the reads at most stay remote, throughput reaches that of the
// statically replicated top-k, and the transitions it takes to get there
// stay within a small multiple of the keys it ends up managing — one
// promotion per key, not a promote/demote cycle on every noisy reading.
func TestAdaptiveHoldsAtNetworkLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("several seconds of simulated-latency workload")
	}
	par := Parallelism{Nodes: 2, Workers: 1}
	cfg := HotKeyWorkloads()["zipf-net"]
	static := RunHotKeys(par, cfg, HotKeyReplication)
	cl, ps, done := buildHotKeys(par, cfg, HotKeyAdaptive)
	defer done()
	adapt := RunHotKeysNode(par, cl, ps, cfg, HotKeyAdaptive)

	if ratio := float64(adapt.Stats.RemoteReads) / float64(adapt.Stats.TotalReads()); ratio > 0.25 {
		t.Errorf("adaptive: %.2f of the reads remote, want at most 0.25", ratio)
	}
	if adapt.Throughput() < 0.9*static.Throughput() {
		t.Errorf("adaptive %.0f ops/s vs static replication %.0f ops/s, want at least 0.9x", adapt.Throughput(), static.Throughput())
	}
	// The point covers the measured window only; the transitions of the
	// whole run (warm-up included) are what churn would inflate.
	tot := metrics.Sum(ps.Stats())
	var managed int64
	for _, n := range tot.AdaptManaged {
		managed += int64(n)
	}
	transitions := tot.AdaptPromotions + tot.AdaptDemotions + tot.AdaptRelocations
	if managed < 20 {
		t.Errorf("only %d keys managed after warm-up: the top twenty carry 72 %% of the accesses", managed)
	}
	if transitions > 2*managed {
		t.Errorf("%d transitions for %d managed keys, want at most 2 per key", transitions, managed)
	}
	t.Logf("adaptive %.0f ops/s (static %.0f), remote reads %d/%d, %d transitions for %d managed keys",
		adapt.Throughput(), static.Throughput(), adapt.Stats.RemoteReads, adapt.Stats.TotalReads(), transitions, managed)
}
