package driver

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"lapse/internal/cluster"
	"lapse/internal/core"
	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/simnet"
)

// The tests in this file compare the ways Lapse can manage one skewed
// workload — relocation only, a localize before every access, static
// replication, the adaptive controller, serving leases — by the counters and
// timings each leaves behind. zipfLoad is that workload: every worker draws
// keys from a Zipf distribution in which key i is the (i+1)-th most frequent
// (so the hot set is simply the first keys), reads them, and pushes them back
// after every pushEvery-th read. The workers first run it unmeasured for
// warmup, so location caches, replicas and the controller settle; a barrier
// then opens a window of ops reads per worker, and a second one closes it.

// paperNet is the paper testbed's link on the simulated network: 300 µs one
// way, 20 µs loopback, 10 GBit/s.
var paperNet = simnet.Config{
	Latency:         300 * time.Microsecond,
	LoopbackLatency: 20 * time.Microsecond,
	BytesPerSecond:  1.25e9,
}

const zipfValLen = 8

type zipfLoad struct {
	nodes, workers int // workers per node
	net            simnet.Config
	opt            Options // how Lapse manages the keys
	keys           kv.Key
	zipfS          float64
	batch          int  // keys per read; 0 reads one
	pushEvery      int  // 0 never pushes
	localize       bool // localize the keys before every read
	multiGet       bool // read through the serving tier's MultiGet
	// rate, when set, paces the reads open loop: the cluster-wide schedule
	// issues rate reads per second, worker w of W taking arrivals w, w+W, …
	rate   float64
	warmup time.Duration
	ops    int // measured reads per worker
}

// zipfRun is what one run of a zipfLoad measured.
type zipfRun struct {
	elapsed time.Duration
	reads   int64          // the window's reads, cluster-wide
	window  metrics.Totals // server counters of the window
	total   metrics.Totals // server counters of the whole run, warm-up included
	// sojourn is each measured read's completion minus its scheduled
	// arrival (open loop) or its issue (closed loop).
	sojourn metrics.HistSnapshot
}

func (r zipfRun) throughput() float64 { return float64(r.reads) / r.elapsed.Seconds() }

// hotKeys returns the n most frequent keys of every zipfLoad.
func hotKeys(n int) []kv.Key {
	keys := make([]kv.Key, n)
	for i := range keys {
		keys[i] = kv.Key(i)
	}
	return keys
}

// run drives the load on a fresh cluster and Lapse system and tears both
// down before it returns, so an idle cluster never shares the host with the
// next run.
func (l zipfLoad) run(t *testing.T) zipfRun {
	t.Helper()
	cl := cluster.New(cluster.Config{Nodes: l.nodes, WorkersPerNode: l.workers, Net: l.net})
	ps := Build(Lapse, cl, kv.NewUniformLayout(l.keys, zipfValLen), l.opt)
	defer func() { cl.Close(); ps.Shutdown() }()
	var (
		mu    sync.Mutex
		start time.Time
		base  metrics.Totals
		r     zipfRun
	)
	b := cl.Barrier()
	cl.RunWorkers(func(node, worker int) {
		w := newZipfWorker(t, l, ps.Handle(worker), int64(worker))
		for end := time.Now().Add(l.warmup); time.Now().Before(end); {
			w.read()
			w.write()
		}
		w.drain()
		b.Wait(node)
		mu.Lock()
		if start.IsZero() {
			base = metrics.Sum(ps.Stats())
			start = time.Now()
		}
		t0 := start
		mu.Unlock()
		var hist metrics.Histogram
		for i := 0; i < l.ops; i++ {
			at := time.Now()
			if l.rate > 0 {
				at = t0.Add(time.Duration(float64(i*cl.TotalWorkers()+worker) * float64(time.Second) / l.rate))
				if wait := time.Until(at); wait > 0 {
					// The simulated network sleeps through its own
					// scheduler, so paced workers overlap in wall time.
					cl.Compute(wait)
				}
			}
			w.read()
			hist.Observe(time.Since(at))
			w.write()
		}
		w.drain()
		b.Wait(node)
		mu.Lock()
		if r.elapsed == 0 {
			r.elapsed = time.Since(t0)
		}
		r.sojourn.Merge(hist.Snapshot())
		mu.Unlock()
	})
	r.total = metrics.Sum(ps.Stats())
	r.window = r.total.Since(base)
	r.reads = int64(cl.TotalWorkers() * l.ops)
	return r
}

// zipfWorker is one worker's key stream and buffers.
type zipfWorker struct {
	t          *testing.T
	l          zipfLoad
	h          kv.KV
	zipf       *rand.Zipf
	keys       []kv.Key
	buf, delta []float32
	reads      int
}

func newZipfWorker(t *testing.T, l zipfLoad, h kv.KV, seed int64) *zipfWorker {
	n := max(l.batch, 1)
	w := &zipfWorker{t: t, l: l, h: h,
		zipf:  rand.NewZipf(rand.New(rand.NewSource(seed)), l.zipfS, 1, uint64(l.keys-1)),
		keys:  make([]kv.Key, n),
		buf:   make([]float32, n*zipfValLen),
		delta: make([]float32, n*zipfValLen),
	}
	for i := range w.delta {
		w.delta[i] = 0.01
	}
	return w
}

func (w *zipfWorker) read() {
	for i := range w.keys {
		w.keys[i] = kv.Key(w.zipf.Uint64())
	}
	if w.l.localize {
		w.check(w.h.Localize(w.keys))
	}
	if w.l.multiGet {
		w.check(w.h.(multiGetter).MultiGet(w.keys, w.buf).Wait())
	} else {
		w.check(w.h.Pull(w.keys, w.buf))
	}
	w.reads++
}

// write pushes the keys just read after every pushEvery-th read.
func (w *zipfWorker) write() {
	if w.l.pushEvery > 0 && w.reads%w.l.pushEvery == 0 {
		w.check(w.h.Push(w.keys, w.delta))
	}
}

func (w *zipfWorker) drain() { w.check(w.h.WaitAll()) }

func (w *zipfWorker) check(err error) {
	if err != nil {
		w.t.Error(err)
	}
}

// TestZipfReplicationCutsHotKeyRemoteReads: on a Zipf-skewed workload with
// the top keys replicated, remote reads drop at least 10× against
// relocation-only Lapse — the hot keys' reads become node-local replica hits.
// (The O(nodes × shards) messages of a sync round are pinned by
// core.TestReplicaSyncRoundIsONodesMessages.)
func TestZipfReplicationCutsHotKeyRemoteReads(t *testing.T) {
	l := zipfLoad{nodes: 4, workers: 2, keys: 2048, zipfS: 2, pushEvery: 2, ops: 400}
	base := l.run(t).window
	l.opt.Replicate = hotKeys(32)
	repl := l.run(t).window

	if base.RemoteReads < 100 {
		t.Fatalf("relocation-only made only %d remote reads; workload too small to be meaningful", base.RemoteReads)
	}
	floor := max(repl.RemoteReads, 1)
	if ratio := base.RemoteReads / floor; ratio < 10 {
		t.Fatalf("remote reads dropped only %dx (relocation-only %d, replicated %d), want >= 10x",
			ratio, base.RemoteReads, repl.RemoteReads)
	}
	if repl.ReplicaHits == 0 {
		t.Fatal("replicated run recorded no replica hits")
	}
	// The hot keys' reads moved to replicas, not to relocation churn.
	if repl.Relocations > base.Relocations {
		t.Fatalf("replication increased relocations: %d > %d", repl.Relocations, base.Relocations)
	}
	t.Logf("remote reads: relocation-only %d, replicated %d (%.0fx); replica hits %d, sync messages %d",
		base.RemoteReads, repl.RemoteReads, float64(base.RemoteReads)/float64(floor),
		repl.ReplicaHits, repl.ReplicaSyncMessages)
}

// TestLocalizeThrashReplicationWins: localizing shared hot keys before every
// access — the relocation pattern that suits partitionable workloads —
// thrashes when every node wants the same keys, while replication serves
// them locally (the paper's future-work discussion).
func TestLocalizeThrashReplicationWins(t *testing.T) {
	l := zipfLoad{nodes: 4, workers: 2, keys: 256, zipfS: 2, pushEvery: 2, ops: 200}
	thrashLoad := l
	thrashLoad.localize = true
	thrash := thrashLoad.run(t).window
	l.opt.Replicate = hotKeys(16)
	repl := l.run(t).window

	if thrash.Relocations < 50 {
		t.Fatalf("localize-every-access relocated only %d keys; expected thrashing", thrash.Relocations)
	}
	if repl.Relocations*4 > thrash.Relocations {
		t.Fatalf("replication still relocates heavily: %d vs %d under thrash", repl.Relocations, thrash.Relocations)
	}
	if repl.ReplicaHits == 0 {
		t.Fatal("replicated run recorded no replica hits")
	}
	t.Logf("relocations: localize-every-access %d, replicated %d", thrash.Relocations, repl.Relocations)
}

// TestAdaptiveHoldsAtNetworkLatency runs a Zipf mix on the paper's 300 µs
// links, where a remote worker issues about a thousand accesses per second.
// The controller must still find the hot set: at most a quarter of the reads
// stay remote, throughput reaches 0.9× that of the statically replicated top
// keys, and the transitions it takes stay within two per key it ends up
// managing — one promotion per key, not a promote/demote cycle on every noisy
// reading. The window runs about half a second: over 90 ms, host scheduling
// noise alone failed the throughput bar in 2 of 10 runs on a loaded 2-vCPU
// box. Even at half a second a neighbour's burst of CPU can take a tenth off
// one run (1 in 8 runs beside another test package on that box), so each
// configuration runs three times, the two interleaved, and the best
// throughput of each is compared; every adaptive run must meet the other
// bars.
func TestAdaptiveHoldsAtNetworkLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("several seconds of simulated-latency workload")
	}
	staticLoad := zipfLoad{nodes: 2, workers: 1, net: paperNet, keys: 2048, zipfS: 1.3, pushEvery: 2,
		warmup: time.Second, ops: 2000}
	adaptLoad := staticLoad
	staticLoad.opt.Replicate = hotKeys(32)
	adaptLoad.opt = confAdaptiveOptions()

	var static, adapt float64
	for i := 0; i < 3; i++ {
		static = max(static, staticLoad.run(t).throughput())
		r := adaptLoad.run(t)
		adapt = max(adapt, r.throughput())

		w := r.window
		if ratio := float64(w.RemoteReads) / float64(w.TotalReads()); ratio > 0.25 {
			t.Errorf("adaptive: %.2f of the reads remote, want at most 0.25", ratio)
		}
		// Churn inflates the transitions of the whole run, warm-up included.
		var managed int64
		for _, n := range r.total.AdaptManaged {
			managed += int64(n)
		}
		transitions := r.total.AdaptPromotions + r.total.AdaptDemotions + r.total.AdaptRelocations
		if managed < 20 {
			t.Errorf("only %d keys managed after warm-up: the top twenty carry 72 %% of the accesses", managed)
		}
		if transitions > 2*managed {
			t.Errorf("%d transitions for %d managed keys, want at most 2 per key", transitions, managed)
		}
		t.Logf("adaptive %.0f ops/s, remote reads %d/%d, %d transitions for %d managed keys",
			r.throughput(), w.RemoteReads, w.TotalReads(), transitions, managed)
	}
	// Under the race detector throughput measures the instrumentation (as in
	// TestShardedServerThroughputScales): adaptive read 0.84× of static there.
	if !raceEnabled && adapt < 0.9*static {
		t.Errorf("adaptive %.0f ops/s vs static replication %.0f ops/s, want at least 0.9x", adapt, static)
	}
	t.Logf("best of three: adaptive %.0f ops/s, static %.0f ops/s", adapt, static)
}

// servingLoad is the serving schedule: a Zipf read mix of 4-key requests over
// 2k keys with occasional writes on the paper's links, at a rate the plain
// Pull path cannot sustain (each request pays about 2 × 300 µs for its remote
// keys) while the lease-cached MultiGet path absorbs it.
func servingLoad() zipfLoad {
	return zipfLoad{nodes: 2, workers: 2, net: paperNet, keys: 2048, zipfS: 1.6, batch: 4,
		pushEvery: 16, rate: 8000, warmup: 100 * time.Millisecond, ops: 1200}
}

// servingOn turns the serving tier on for l and reads through it.
func servingOn(l zipfLoad) zipfLoad {
	l.opt.Serving = &core.ServingConfig{TTL: 200 * time.Millisecond}
	l.multiGet = true
	return l
}

// TestServingModes runs both read paths open loop at the serving schedule,
// each request's sojourn measured from its scheduled arrival so a backlog
// shows as tail latency. MultiGet must serve from the lease cache — hits,
// grants, and leased copies refreshed or dropped by the writes — and hold p99
// sojourn at most half of plain Pull's, while the Pull path never touches the
// tier.
func TestServingModes(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds of simulated-latency workload")
	}
	pull := servingLoad().run(t)
	mg := servingOn(servingLoad()).run(t)
	for _, r := range []zipfRun{pull, mg} {
		if got := r.sojourn.Count(); got != r.reads {
			t.Fatalf("sojourn histogram holds %d reads, want %d", got, r.reads)
		}
	}
	if pull.window.ServingHits != 0 || pull.window.LeaseGrants != 0 {
		t.Fatalf("pull path touched the serving tier: %+v", pull.window)
	}
	if w := mg.window; w.ServingHits == 0 || w.LeaseGrants == 0 || w.LeaseRefreshes+w.LeaseInvalidations == 0 {
		t.Fatalf("multiget path: %d hits, %d grants, %d refreshes + invalidations; want each nonzero",
			w.ServingHits, w.LeaseGrants, w.LeaseRefreshes+w.LeaseInvalidations)
	}
	p, m := pull.sojourn.Quantile(0.99), mg.sojourn.Quantile(0.99)
	if 2*m > p {
		t.Fatalf("p99 sojourn: multiget %v vs pull %v, want at most half", m, p)
	}
	t.Logf("p99 sojourn: pull %v, multiget %v (%.0fx)", p, m, float64(p)/float64(m))
}

// TestServingOpenLoopSLO is the CI serving smoke: at an arrival rate far
// below the lease-cached path's capacity, p99 sojourn must stay under a bound
// two orders of magnitude above the healthy steady state, so only a broken
// read path (requests queueing behind a stalled cache, revocation storms, a
// lost wakeup) trips it — never a slow runner.
func TestServingOpenLoopSLO(t *testing.T) {
	l := servingOn(servingLoad())
	l.rate, l.ops = 1000, 400
	r := l.run(t)
	const bound = 250 * time.Millisecond
	if p99 := r.sojourn.Quantile(0.99); p99 > bound {
		t.Fatalf("open-loop p99 sojourn = %v at %g req/s, want < %v", p99, l.rate, bound)
	}
	if r.window.ServingHits == 0 {
		t.Fatalf("smoke run recorded no serving-cache hits: %+v", r.window)
	}
}
