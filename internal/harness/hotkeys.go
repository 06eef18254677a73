package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"lapse/internal/adaptive"
	"lapse/internal/cluster"
	"lapse/internal/driver"
	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/simnet"
	"lapse/internal/transport"
)

// The hot-key workloads exercise the case the paper's future-work section
// calls out (Sections 2 and 7): skewed access distributions where a small
// set of keys is read constantly by every node — word2vec negative samples,
// frequent KGE entities. Relocation thrashes on such keys (every node keeps
// stealing them back); replication serves them from node-local replicas.
// The workloads drive Lapse with either management technique so the benefit
// is measurable: remote reads for the hot keys drop to ~zero, paid for by
// O(nodes × shards) sync messages per interval.

// HotKeyMode selects how the workload's keys are managed.
type HotKeyMode string

// The management techniques compared by the hot-key workloads.
const (
	// HotKeyRelocation is relocation-only Lapse: keys stay at their home
	// node unless localized, so hot keys are read over the network.
	HotKeyRelocation HotKeyMode = "relocation"
	// HotKeyLocalize localizes every key before accessing it — the
	// paper's relocation pattern, which thrashes on shared hot keys.
	HotKeyLocalize HotKeyMode = "localize"
	// HotKeyReplication replicates the top-k hottest keys; the rest keep
	// relocation management.
	HotKeyReplication HotKeyMode = "replication"
	// HotKeyAdaptive lets the online controller pick each key's technique
	// at runtime (replicate / relocate / leave home) with no static hot set.
	HotKeyAdaptive HotKeyMode = "adaptive"
)

// HotKeyModes lists the techniques compared by the hot-key workloads.
func HotKeyModes() []HotKeyMode {
	return []HotKeyMode{HotKeyRelocation, HotKeyLocalize, HotKeyReplication, HotKeyAdaptive}
}

// HotKeyConfig parameterizes one hot-key workload.
type HotKeyConfig struct {
	// Keys and ValLen declare the uniform parameter layout.
	Keys   kv.Key
	ValLen int
	// OpsPerWorker is the number of key accesses per worker.
	OpsPerWorker int
	// ZipfS is the Zipf skew exponent (> 1); 0 samples keys uniformly.
	// Key i is the (i+1)-th most frequent key, so the hot set is simply
	// the first HotK keys.
	ZipfS float64
	// HotK is the number of top keys replicated in HotKeyReplication mode.
	HotK int
	// PushEvery issues a push after every Nth pull (0 = pulls only).
	PushEvery int
	// Seed seeds the per-worker RNGs.
	Seed int64
	// Warmup drives the workload unmeasured for this long before the
	// measured window opens, so location caches, relocation queues, and the
	// adaptive controller reach steady state first. The measured windows of
	// the static modes would otherwise compare a settled system against an
	// adaptive controller still inside its first classification epochs.
	Warmup time.Duration
	// Net is the simulated network profile (zero = instantaneous).
	Net simnet.Config
	// PointCost models computation per access via cluster.Compute.
	PointCost time.Duration
}

// HotKeys returns the workload's hot set: the HotK hottest keys.
func (c HotKeyConfig) HotKeys() []kv.Key {
	hot := make([]kv.Key, c.HotK)
	for i := range hot {
		hot[i] = kv.Key(i)
	}
	return hot
}

// HotKeyWorkloads returns the named workload configurations of the
// benchmark runner: a uniform baseline, a Zipf-skewed mix, a
// negative-sampling-like profile (heavier skew, read-mostly, larger
// values — the word2vec access pattern), and the Zipf mix on the paper's
// simulated testbed network.
func HotKeyWorkloads() map[string]HotKeyConfig {
	return map[string]HotKeyConfig{
		// Warmup must cover the evidence the adaptive controller needs (a few
		// thousand recorded accesses per node) so the measured window sees
		// the settled hot set: tens of milliseconds on an instantaneous
		// network, about a second at 300 µs one way.
		"uniform": {
			Keys: 2048, ValLen: 8, OpsPerWorker: 400,
			ZipfS: 0, HotK: 32, PushEvery: 2, Seed: 11,
			Warmup: 50 * time.Millisecond,
		},
		"zipf": {
			Keys: 2048, ValLen: 8, OpsPerWorker: 400,
			ZipfS: 1.3, HotK: 32, PushEvery: 2, Seed: 11,
			Warmup: 50 * time.Millisecond,
		},
		"w2vneg": {
			Keys: 4096, ValLen: 16, OpsPerWorker: 400,
			ZipfS: 2.0, HotK: 64, PushEvery: 4, Seed: 11,
			Warmup: 50 * time.Millisecond,
		},
		"zipf-net": {
			Keys: 2048, ValLen: 8, OpsPerWorker: 400,
			ZipfS: 1.3, HotK: 32, PushEvery: 2, Seed: 11,
			Warmup: time.Second, Net: NetProfile(0),
		},
	}
}

// HotKeyPoint is one measured hot-key workload run.
type HotKeyPoint struct {
	Par     Parallelism
	Mode    HotKeyMode
	Elapsed time.Duration
	Ops     int64
	// Allocs and AllocBytes are the process-wide heap allocation deltas
	// (runtime.MemStats Mallocs / TotalAlloc) across the measured run —
	// the GC-pressure trajectory of the message path.
	Allocs     int64
	AllocBytes int64
	// Stats carries the cluster-wide server-counter totals; Net the
	// transport traffic counters.
	Stats metrics.Totals
	Net   transport.Stats
	// Lat is the end-to-end operation-latency snapshot of the measured
	// window (warmup excluded), merged over this process's workers.
	Lat metrics.LatencySnapshot
}

// Throughput returns key accesses per second of wall-clock time.
func (p HotKeyPoint) Throughput() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Ops) / p.Elapsed.Seconds()
}

// AllocsPerOp returns heap allocations per key access.
func (p HotKeyPoint) AllocsPerOp() float64 {
	if p.Ops <= 0 {
		return 0
	}
	return float64(p.Allocs) / float64(p.Ops)
}

// BytesPerOp returns heap bytes allocated per key access.
func (p HotKeyPoint) BytesPerOp() float64 {
	if p.Ops <= 0 {
		return 0
	}
	return float64(p.AllocBytes) / float64(p.Ops)
}

// RunHotKeys executes the hot-key workload on Lapse with the given
// management technique and returns the measured point.
func RunHotKeys(par Parallelism, cfg HotKeyConfig, mode HotKeyMode) HotKeyPoint {
	cl, ps, done := buildHotKeys(par, cfg, mode)
	defer done()
	return RunHotKeysNode(par, cl, ps, cfg, mode)
}

// buildHotKeys brings up the in-process cluster and parameter server of one
// hot-key run; done tears both down.
func buildHotKeys(par Parallelism, cfg HotKeyConfig, mode HotKeyMode) (cl *cluster.Cluster, ps driver.PS, done func()) {
	net := cfg.Net
	net.Nodes = par.Nodes
	net.Shards = par.Shards
	cl = cluster.New(cluster.Config{Nodes: par.Nodes, WorkersPerNode: par.Workers, Net: net})
	var opt driver.Options
	if mode == HotKeyReplication {
		opt.Replicate = cfg.HotKeys()
	}
	if mode == HotKeyAdaptive {
		opt.Adaptive = &adaptive.Config{}
	}
	ps = driver.Build(driver.Lapse, cl, kv.NewUniformLayout(cfg.Keys, cfg.ValLen), opt)
	return cl, ps, func() {
		cl.Close()
		ps.Shutdown()
	}
}

// RunHotKeysNode executes this process's share of the hot-key workload on a
// cluster that may span OS processes — one per node, each calling this with
// identical par/cfg/mode. The caller owns cl and ps (built for its node of
// the deployment) and closes them afterwards. Workers first drive the
// workload unmeasured for cfg.Warmup; cluster-wide barriers then bound the
// measured window so every process times the same span of settled-state
// work, with counter baselines excluding the warmup traffic. WaitAll inside
// the worker loop completes in-flight operations before the end barrier. Ops counts the whole cluster's accesses, so with the
// barrier-aligned window Throughput is the cluster-wide rate; Stats,
// allocation deltas, and Net cover only this process.
func RunHotKeysNode(par Parallelism, cl *cluster.Cluster, ps driver.PS, cfg HotKeyConfig, mode HotKeyMode) HotKeyPoint {
	b := cl.Barrier()
	var (
		mu            sync.Mutex
		before, after runtime.MemStats
		start         time.Time
		elapsed       time.Duration
		statsBase     metrics.Totals
		netBase       transport.Stats
		latBase       metrics.LatencySnapshot
	)
	cl.RunWorkers(func(node, worker int) {
		warmHotKeyWorker(cl, ps, cfg, mode, worker)
		b.Wait(node)
		mu.Lock()
		if start.IsZero() {
			// Counter baselines exclude the warmup traffic from the
			// reported window (snapshot is racy against workers already
			// past the barrier by at most a few operations).
			statsBase = metrics.Sum(ps.Stats())
			netBase = cl.Net().Stats()
			latBase = ps.Latencies()
			runtime.ReadMemStats(&before)
			start = time.Now()
		}
		mu.Unlock()
		runHotKeyWorker(cl, ps, cfg, mode, worker)
		b.Wait(node)
		mu.Lock()
		if elapsed == 0 {
			elapsed = time.Since(start)
			runtime.ReadMemStats(&after)
		}
		mu.Unlock()
	})
	return HotKeyPoint{
		Par:        par,
		Mode:       mode,
		Elapsed:    elapsed,
		Ops:        int64(par.Nodes * par.Workers * cfg.OpsPerWorker),
		Allocs:     int64(after.Mallocs - before.Mallocs),
		AllocBytes: int64(after.TotalAlloc - before.TotalAlloc),
		Stats:      metrics.Sum(ps.Stats()).Since(statsBase),
		Net:        cl.Net().Stats().Since(netBase),
		Lat:        ps.Latencies().Sub(latBase),
	}
}

// runHotKeyWorker is the measured per-worker access loop shared by
// RunHotKeys and RunHotKeysNode. The worker index is global, so the
// per-worker RNG streams are identical however the nodes are spread over
// processes.
func runHotKeyWorker(cl *cluster.Cluster, ps driver.PS, cfg HotKeyConfig, mode HotKeyMode, worker int) {
	l := newHotKeyLoop(cl, ps, cfg, mode, worker, cfg.Seed+int64(worker))
	for op := 0; op < cfg.OpsPerWorker; op++ {
		l.step(op)
	}
	l.finish()
}

// warmupSeedOffset keeps the warmup RNG streams disjoint from the measured
// phase's, which must stay identical with and without warmup.
const warmupSeedOffset = 1 << 20

// warmHotKeyWorker drives the same workload unmeasured until cfg.Warmup
// elapses, then drains in-flight operations, so the measured window that
// follows starts from steady state.
func warmHotKeyWorker(cl *cluster.Cluster, ps driver.PS, cfg HotKeyConfig, mode HotKeyMode, worker int) {
	if cfg.Warmup <= 0 {
		return
	}
	l := newHotKeyLoop(cl, ps, cfg, mode, worker, cfg.Seed+warmupSeedOffset+int64(worker))
	deadline := time.Now().Add(cfg.Warmup)
	for op := 0; ; op++ {
		if op&63 == 0 && op > 0 && !time.Now().Before(deadline) {
			break
		}
		l.step(op)
	}
	l.finish()
}

// hotKeyLoop is one worker's workload state: the sampled key stream and the
// scratch buffers of its pulls and pushes.
type hotKeyLoop struct {
	cl         *cluster.Cluster
	cfg        HotKeyConfig
	mode       HotKeyMode
	h          kv.KV
	rng        *rand.Rand
	zipf       *rand.Zipf
	buf, delta []float32
	keys       []kv.Key
}

func newHotKeyLoop(cl *cluster.Cluster, ps driver.PS, cfg HotKeyConfig, mode HotKeyMode, worker int, seed int64) *hotKeyLoop {
	l := &hotKeyLoop{
		cl:    cl,
		cfg:   cfg,
		mode:  mode,
		h:     ps.Handle(worker),
		rng:   rand.New(rand.NewSource(seed)),
		buf:   make([]float32, cfg.ValLen),
		delta: make([]float32, cfg.ValLen),
		keys:  make([]kv.Key, 1),
	}
	if cfg.ZipfS > 0 {
		l.zipf = rand.NewZipf(l.rng, cfg.ZipfS, 1, uint64(cfg.Keys-1))
	}
	for i := range l.delta {
		l.delta[i] = 0.01
	}
	return l
}

// step issues the op-th access of the workload.
func (l *hotKeyLoop) step(op int) {
	if l.zipf != nil {
		l.keys[0] = kv.Key(l.zipf.Uint64())
	} else {
		l.keys[0] = kv.Key(l.rng.Int63n(int64(l.cfg.Keys)))
	}
	if l.mode == HotKeyLocalize {
		if err := l.h.Localize(l.keys); err != nil {
			panic(fmt.Sprintf("harness: hotkeys localize: %v", err))
		}
	}
	if err := l.h.Pull(l.keys, l.buf); err != nil {
		panic(fmt.Sprintf("harness: hotkeys pull: %v", err))
	}
	if l.cfg.PushEvery > 0 && op%l.cfg.PushEvery == 0 {
		if err := l.h.Push(l.keys, l.delta); err != nil {
			panic(fmt.Sprintf("harness: hotkeys push: %v", err))
		}
	}
	if l.cfg.PointCost > 0 {
		l.cl.Compute(l.cfg.PointCost)
	}
}

// finish drains the worker's in-flight operations.
func (l *hotKeyLoop) finish() {
	if err := l.h.WaitAll(); err != nil {
		panic(fmt.Sprintf("harness: hotkeys waitall: %v", err))
	}
}
