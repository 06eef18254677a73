package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lapse/internal/cluster"
	"lapse/internal/driver"
	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/simnet"
	"lapse/internal/transport"
)

// Every workload runs 2 nodes × 1 worker × 1 server shard in this process:
// two load-generating goroutines, the core count of the reference box.
const (
	benchNodes   = 2
	benchWorkers = 1
	benchShards  = 1
)

// env is what one run is given.
type env struct {
	seed    int64
	seconds float64 // length of the measured window
	smoke   bool    // ~1/50 problem sizes, for the test
	trace   bool    // a traced run (per-layer metrics)
	outDir  string  // span files
	tmpDir  string  // shm ring files
}

// scaled returns n, or n/50 (at least lo) in a smoke run.
func (e *env) scaled(n, lo int) int {
	if e.smoke {
		return max(lo, n/50)
	}
	return n
}

// roundStat is one fixed-work unit of a measured window: an epoch, a round of
// a fixed number of closed-loop ops, or one open-loop step.
type roundStat struct {
	accesses int64
	dur      time.Duration
}

// oracle is the outcome of a workload's output check.
type oracle struct {
	attempted, failed int64
	notes             []string
}

func (o *oracle) fail(n int64, format string, a ...any) {
	o.failed += n
	if len(o.notes) < 8 {
		o.notes = append(o.notes, fmt.Sprintf(format, a...))
	}
}

// instance is one built workload: data generated, cluster up, parameters
// initialised, warm-up done.
type instance interface {
	parts() (*cluster.Cluster, *shimPS)
	// measure runs fixed-work rounds for about budget.
	measure(budget time.Duration) []roundStat
	// extras returns the workload's own user-facing numbers from the last
	// measure (epoch time, goodput, sojourn, …), keyed by per-layer name.
	extras() map[string]float64
	// verify checks the outputs of everything run so far.
	verify() oracle
	close()
}

type workloadDef struct {
	name, why string
	setupReps int // set-ups per run; setup_s is their median
	build     func(e *env) (instance, error)
	// streamHash hashes the head of the workload's generated input for a seed.
	streamHash func(e *env) uint64
}

// netProfile is the simulated testbed every sim workload runs on: 300 µs one
// way, 20 µs loopback, 10 GBit/s — the numbers of harness.NetProfile, written
// out here so a change to the harness cannot silently change the load.
func netProfile() simnet.Config {
	return simnet.Config{
		Latency:         300 * time.Microsecond,
		LoopbackLatency: 20 * time.Microsecond,
		BytesPerSecond:  1.25e9,
	}
}

func simDeployment(net simnet.Config) driver.Deployment {
	return driver.Deployment{Nodes: benchNodes, WorkersPerNode: benchWorkers, Shards: benchShards, Net: net}
}

// realDeployment is an in-process loopback cluster on TCP sockets or, with
// shmRings, on shared-memory rings in a fresh directory under the run's temp
// dir. Ports are picked by the kernel, so concurrent runs cannot collide.
func realDeployment(e *env, shmRings bool) (driver.Deployment, func(), error) {
	d := driver.Deployment{Nodes: benchNodes, WorkersPerNode: benchWorkers, Shards: benchShards,
		TCP: &driver.TCPDeployment{Addrs: []string{"127.0.0.1:0", "127.0.0.1:0"}, Node: -1, DisableSHM: !shmRings}}
	cleanup := func() {}
	if shmRings {
		if err := os.MkdirAll(e.tmpDir, 0o755); err != nil {
			return d, nil, fmt.Errorf("shm dir: %w", err)
		}
		dir, err := os.MkdirTemp(e.tmpDir, "shm-")
		if err != nil {
			return d, nil, fmt.Errorf("shm dir: %w", err)
		}
		d.TCP.SHMDir = dir
		cleanup = func() { os.RemoveAll(dir) }
	}
	return d, cleanup, nil
}

// psInstance is the cluster + shimmed PS every instance embeds.
type psInstance struct {
	cl      *cluster.Cluster
	ps      *shimPS
	cleanup func()
}

func newPSInstance(d driver.Deployment, cleanup func(), layout kv.Layout, opt driver.Options, every uint32) (*psInstance, error) {
	if cleanup == nil {
		cleanup = func() {}
	}
	cl, err := driver.NewCluster(d)
	if err != nil {
		cleanup()
		return nil, err
	}
	ps := driver.Build(driver.Lapse, cl, layout, opt)
	return &psInstance{cl: cl, ps: newShim(ps, cl.TotalWorkers(), every), cleanup: cleanup}, nil
}

func (p *psInstance) parts() (*cluster.Cluster, *shimPS) { return p.cl, p.ps }

func (p *psInstance) close() {
	p.cl.Close()
	p.ps.Shutdown()
	p.cleanup()
}

// window is the state captured when a measured window opens.
type window struct {
	cl      *cluster.Cluster
	ps      *shimPS
	start   time.Time
	net     transport.Stats
	tot     metrics.Totals
	mallocs uint64
}

// windowDelta is what happened inside a window.
type windowDelta struct {
	elapsed  time.Duration
	net      transport.Stats
	tot      metrics.Totals
	mallocs  uint64
	accesses int64
}

func openWindow(in instance, samples int) window {
	cl, ps := in.parts()
	ps.reset(samples)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return window{cl: cl, ps: ps, net: cl.Net().Stats(), tot: metrics.Sum(ps.Stats()), mallocs: m.Mallocs, start: time.Now()}
}

func (w window) close() windowDelta {
	d := windowDelta{elapsed: time.Since(w.start)}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	d.mallocs = m.Mallocs - w.mallocs
	d.net = w.cl.Net().Stats().Since(w.net)
	d.tot = metrics.Sum(w.ps.Stats()).Since(w.tot)
	d.accesses = w.ps.accesses()
	return d
}

// rates returns each round's key accesses per second.
func rates(rounds []roundStat) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = float64(r.accesses) / r.dur.Seconds()
	}
	return out
}

// sampleRoom is how many timed samples per worker a window of the given
// length reserves up front (growth past it still works, it just allocates).
func sampleRoom(seconds float64) int { return int(seconds*150_000) + 1024 }

// runUntraced builds the workload setupReps times (setup_s is the median),
// measures one window on the last build with tracing off, checks the
// outputs, and returns every end-to-end metric.
func runUntraced(w *workloadDef, e *env) (map[string]float64, oracle, error) {
	var in instance
	var setups []float64
	for i := 0; i < w.setupReps; i++ {
		if in != nil {
			in.close()
		}
		t := time.Now()
		var err error
		if in, err = w.build(e); err != nil {
			return nil, oracle{}, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer in.close()

	win := openWindow(in, sampleRoom(e.seconds))
	rounds := in.measure(time.Duration(e.seconds * float64(time.Second)))
	d := win.close()
	_, ps := in.parts()
	reads, _ := ps.timings()
	readMean, readP95 := batchStats(reads)
	o := in.verify()
	o.failed += ps.opErrors()
	if len(rounds) == 0 || len(readMean) == 0 {
		return nil, o, fmt.Errorf("%s: the window completed no round, or too few reads for %d batches: %v", w.name, batches, o.notes)
	}
	acc := float64(d.accesses)
	return map[string]float64{
		"setup_s":          median(setups),
		"ops_per_s":        median(rates(rounds)),
		"read_mean_us":     median(readMean) / 1e3,
		"read_p95_us":      median(readP95) / 1e3,
		"net_msgs_per_op":  float64(d.net.RemoteMessages) / acc,
		"net_bytes_per_op": float64(d.net.RemoteBytes) / acc,
		"allocs_per_op":    float64(d.mallocs) / acc,
	}, o, nil
}

// runTraced builds the workload once and measures two half-length windows on
// it: one untraced, for the workload's own user-facing numbers and the base
// of the overhead figure, and one with the shim recording spans, written to
// trace_<workload>.json. Counter-derived layer metrics cover both windows.
// The layer probes run last. It returns every per-layer metric.
func runTraced(w *workloadDef, e *env) (map[string]float64, oracle, error) {
	in, err := w.build(e)
	if err != nil {
		return nil, oracle{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	_, ps := in.parts()
	half := time.Duration(e.seconds * float64(time.Second) / 2)
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.name] = 0 // a layer that does no work on this workload reports 0
	}

	win := openWindow(in, sampleRoom(e.seconds))
	plain := in.measure(half)
	for k, v := range in.extras() {
		out[k] = v
	}
	reads, writes := ps.timings()
	read, write := pooled(reads), pooled(writes)
	out["user.read_p50_us"], out["user.read_p99_us"] = read.pct(0.5)/1e3, read.pct(0.99)/1e3
	out["user.write_p50_us"], out["user.write_p99_us"] = write.pct(0.5)/1e3, write.pct(0.99)/1e3
	if means, p95s := batchStats(writes); len(means) > 0 {
		out["user.write_mean_us"], out["user.write_p95_us"] = median(means)/1e3, median(p95s)/1e3
	}
	if ps.trainer {
		var pulls []latencies
		for _, r := range ps.recs {
			pulls = append(pulls, r.read)
		}
		if means, _ := batchStats(pulls); len(means) > 0 {
			out["user.pull_mean_us"] = median(means) / 1e3
		}
	}

	ps.startTrace(ps.spanRoom())
	traced := in.measure(half)
	traces := ps.stopTrace()
	d := win.close()

	o := in.verify()
	o.failed += ps.opErrors()
	in.close()

	shares, spans := traceShares(traces)
	for name, v := range shares {
		out["trace."+name+"_share"] = v
	}
	out["bench.span_count"] = float64(spans)
	if p, t := median(rates(plain)), median(rates(traced)); t > 0 {
		out["bench.trace_overhead_pct"] = (p/t - 1) * 100
	}
	counterMetrics(out, d)
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, o, fmt.Errorf("trace dir: %w", err)
	}
	if err := writeTrace(filepath.Join(e.outDir, "trace_"+w.name+".json"), w.name, traces); err != nil {
		return nil, o, err
	}
	runProbes(out, e)
	return out, o, nil
}

// counterMetrics derives the per-layer metrics that come from the program's
// own counters (ps.Stats(), cl.Net().Stats()) as deltas over the window.
func counterMetrics(out map[string]float64, d windowDelta) {
	t := d.tot
	kop := float64(d.accesses) / 1000
	us := func(x time.Duration) float64 { return float64(x) / 1e3 }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	out["server.serve_p50_us"] = us(t.ServeLatency.Quantile(0.5))
	out["server.serve_p99_us"] = us(t.ServeLatency.Quantile(0.99))
	out["server.serve_busy_share"] = t.ServeLatency.Sum().Seconds() / (d.elapsed.Seconds() * benchNodes * benchShards)
	out["server.queue_wait_p99_us"] = us(t.QueueWait.Quantile(0.99))
	out["server.queued_ops_per_kop"] = float64(t.QueuedOps) / kop
	out["core.remote_read_ratio"] = ratio(t.RemoteReads, t.TotalReads())
	out["core.relocations_per_kop"] = float64(t.Relocations) / kop
	out["core.relocation_p50_us"] = us(t.RelocationTime.Quantile(0.5))
	out["core.relocation_p99_us"] = us(t.RelocationTime.Quantile(0.99))
	out["core.forwards_per_kop"] = float64(t.Forwards) / kop
	out["core.lease_hit_ratio"] = ratio(t.ServingHits, t.ServingHits+t.ServingMisses)
	out["core.revokes_per_write"] = ratio(t.LeaseRevokes, t.LocalWrites+t.RemoteWrites)
	out["replication.replica_hit_ratio"] = ratio(t.ReplicaHits, t.TotalReads())
	out["replication.sync_msgs_per_s"] = float64(t.ReplicaSyncMessages) / d.elapsed.Seconds()
	out["replication.sync_round_p50_us"] = us(t.ReplicaSyncTime.Quantile(0.5))
	out["adaptive.transitions"] = float64(t.AdaptPromotions + t.AdaptDemotions + t.AdaptRelocations)
}
