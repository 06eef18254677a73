// Command lapse-node runs one cluster node as an OS process, so a parameter
// server can be deployed as N communicating processes over real transports —
// the deployment mode of the paper's actual system — instead of the
// in-process simulation of cmd/lapse-sim.
//
// Every process is started with the same topology (the full address list and
// shared workload parameters) plus its own node index; the processes find
// each other over TCP (dials retry while peers are still starting), run the
// quickstart workload, and node 0 verifies that the cluster converged to the
// analytically known result before everyone tears down. Traffic between
// processes on the same host automatically rides shared-memory rings
// (internal/transport/shm) instead of loopback TCP; -no-shm forces plain
// TCP, and cross-host links always use TCP.
//
// Usage (3 nodes on one machine):
//
//	lapse-node -node 0 -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	lapse-node -node 1 -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	lapse-node -node 2 -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//
// The workload mirrors the quickstart example across processes: each worker
// localizes a disjoint share of the keys (on variants with dynamic parameter
// allocation), then every worker pushes 1 to every value for -iters rounds,
// synchronizing on the cluster-wide barrier after each round; finally worker
// 0 of node 0 pulls everything back through the regular read path and checks
// each value equals workers × nodes × iters. Exit status 0 means this node —
// and, on node 0, the whole cluster's converged state — checked out.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"lapse/internal/cluster"
	"lapse/internal/core"
	"lapse/internal/driver"
	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/obs"
)

func main() {
	var (
		node      = flag.Int("node", -1, "this process's node index (required)")
		addrList  = flag.String("addrs", "", "comma-separated listen addresses of all nodes (required)")
		workers   = flag.Int("workers", 2, "worker threads per node")
		shards    = flag.Int("shards", 1, "server shards per node (must be identical in every process)")
		variant   = flag.String("variant", "lapse", "parameter-server variant (classic, classic-fast, lapse, lapse-cached, ssp-client, ssp-server)")
		keys      = flag.Int("keys", 64, "number of parameters")
		valLen    = flag.Int("vallen", 2, "values per parameter")
		iters     = flag.Int("iters", 3, "push rounds")
		staleness = flag.Int("staleness", 1, "SSP staleness bound (stale variants)")
		noSHM     = flag.Bool("no-shm", false, "force TCP even between same-host processes")
		shmDir    = flag.String("shm-dir", "", "shared-memory ring directory (default derived from -addrs; all co-located processes must agree)")
		quiet     = flag.Bool("q", false, "suppress the per-node summary")
		metricsAt = flag.String("metrics-addr", "", "serve /metrics, /debug/trace, /debug/stats over HTTP on this address (empty = off)")
		linger    = flag.Duration("linger", 0, "keep the process (and its metrics endpoint) alive this long after the workload finishes")
		serving   = flag.Duration("serving", 0, "enable the lease-based serving tier with this TTL and re-verify convergence through MultiGet (lapse variants only; 0 = off)")
	)
	flag.Parse()
	addrs := strings.Split(*addrList, ",")
	if *addrList == "" || *node < 0 || *node >= len(addrs) {
		fmt.Fprintln(os.Stderr, "lapse-node: -node and -addrs are required; -node must index -addrs")
		flag.Usage()
		os.Exit(2)
	}
	opts := nodeOptions{noSHM: *noSHM, shmDir: *shmDir, quiet: *quiet,
		metricsAddr: *metricsAt, linger: *linger, serving: *serving}
	if err := run(*node, addrs, *workers, *shards, driver.Kind(*variant), *keys, *valLen, *iters, *staleness, opts); err != nil {
		fmt.Fprintf(os.Stderr, "lapse-node %d: %v\n", *node, err)
		os.Exit(1)
	}
}

// nodeOptions carries the deployment knobs that are not workload parameters.
type nodeOptions struct {
	noSHM       bool
	shmDir      string
	quiet       bool
	metricsAddr string
	linger      time.Duration
	serving     time.Duration
}

func run(node int, addrs []string, workers, shards int, kind driver.Kind, nKeys, valLen, iters, staleness int, opts nodeOptions) error {
	cl, err := driver.NewCluster(driver.Deployment{
		Nodes:          len(addrs),
		WorkersPerNode: workers,
		Shards:         shards,
		TCP: &driver.TCPDeployment{Addrs: addrs, Node: node,
			DisableSHM: opts.noSHM, SHMDir: opts.shmDir},
	})
	if err != nil {
		return err
	}
	layout := kv.NewUniformLayout(kv.Key(nKeys), valLen)
	buildOpts := driver.Options{Staleness: staleness}
	if opts.serving > 0 {
		buildOpts.Serving = &core.ServingConfig{TTL: opts.serving}
	}
	ps := driver.Build(kind, cl, layout, buildOpts)

	if opts.metricsAddr != "" {
		srv, err := obs.Serve(opts.metricsAddr, obs.Source{
			Node:      node,
			Stats:     func() metrics.Totals { return metrics.Sum(ps.Stats()) },
			Latencies: ps.Latencies,
			Trace:     cl.Trace(),
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		if !opts.quiet {
			fmt.Printf("lapse-node %d: metrics on http://%s/metrics\n", node, srv.Addr())
		}
	}

	// A failed link (peer crashed, wrong address) silently drops its
	// messages, which would leave workers blocked on futures or barriers
	// forever. Watch the transport and fail the whole process instead.
	go func() {
		for range time.Tick(200 * time.Millisecond) {
			if err := cl.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "lapse-node %d: transport failed: %v\n", node, err)
				os.Exit(1)
			}
		}
	}()

	var failure atomic.Value
	cl.RunWorkers(func(_, worker int) {
		if err := runWorker(cl, ps, kind, worker, nKeys, valLen, iters, opts.serving > 0); err != nil {
			failure.Store(fmt.Errorf("worker %d: %w", worker, err))
		}
	})

	// Linger before teardown so the metrics endpoint stays scrapeable (the
	// cluster is still up — other nodes may also be lingering).
	if opts.linger > 0 {
		time.Sleep(opts.linger)
	}

	cl.Close()
	ps.Shutdown()
	if err, ok := failure.Load().(error); ok {
		return err
	}
	if err := cl.Err(); err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	if !opts.quiet {
		s := cl.Net().Stats()
		fmt.Printf("lapse-node %d (%s, transport=%s): converged; sent %d remote msgs / %d bytes, %d loopback msgs\n",
			node, kind, driver.Transport(cl), s.RemoteMessages, s.RemoteBytes, s.LoopbackMessages)
	}
	return nil
}

// runWorker is the per-worker quickstart workload; worker 0 (on node 0)
// additionally verifies the converged values between the last two barriers,
// while every other worker is parked on the final barrier keeping its node's
// server responsive.
//
// The workload crosses iters+1 cluster-wide barriers. A worker that fails
// must still participate in the remaining ones (clocking so the stale PS's
// global clock keeps advancing), otherwise its error would deadlock every
// other worker — across all processes — instead of being reported.
func runWorker(cl *cluster.Cluster, ps driver.PS, kind driver.Kind, worker, nKeys, valLen, iters int, serving bool) error {
	h := ps.Handle(worker)
	barriersLeft := iters + 1
	defer func() {
		for ; barriersLeft > 0; barriersLeft-- {
			h.Clock()
			h.Barrier()
		}
	}()
	barrier := func() {
		h.Barrier()
		barriersLeft--
	}

	allKeys := make([]kv.Key, nKeys)
	for i := range allKeys {
		allKeys[i] = kv.Key(i)
	}
	ones := make([]float32, nKeys*valLen)
	for i := range ones {
		ones[i] = 1
	}

	if driver.SupportsLocalize(kind) {
		// Localize a disjoint per-worker share, exercising the
		// relocation protocol across process boundaries.
		total := cl.TotalWorkers()
		lo, hi := worker*nKeys/total, (worker+1)*nKeys/total
		if err := h.Localize(allKeys[lo:hi]); err != nil {
			return fmt.Errorf("localize: %w", err)
		}
	}
	for iter := 0; iter < iters; iter++ {
		if err := h.Push(allKeys, ones); err != nil {
			return fmt.Errorf("push round %d: %w", iter, err)
		}
		h.Clock()
		barrier()
	}
	if serving {
		// Every worker re-reads a hot prefix of the key space through the
		// serving tier: the first MultiGet misses and takes leases, the rest
		// are served from the node-local cache, so a deployment smoke test
		// can assert nonzero lapse_serving_hits_total on /metrics.
		if err := runServingReads(cl, h, nKeys, valLen, iters); err != nil {
			return err
		}
	}
	if worker == 0 {
		want := float32(cl.TotalWorkers() * iters)
		dst := make([]float32, nKeys*valLen)
		if err := h.Pull(allKeys, dst); err != nil {
			return fmt.Errorf("verification pull: %w", err)
		}
		for i, v := range dst {
			if v != want {
				return fmt.Errorf("value %d = %v, want %v: cluster did not converge", i, v, want)
			}
		}
	}
	// Hold every node up until verification finished, so no process
	// tears its transport down while node 0 is still pulling.
	barrier()
	return h.WaitAll()
}

// multiGetter is the serving-tier batched read path; only the Lapse variants
// implement it.
type multiGetter interface {
	MultiGet(keys []kv.Key, dst []float32) *kv.Future
}

// runServingReads verifies the converged prefix of the key space through the
// serving tier. Repeated MultiGets of the same keys keep hitting the lease
// cache, which is what the CI serving smoke job scrapes for.
func runServingReads(cl *cluster.Cluster, h kv.KV, nKeys, valLen, iters int) error {
	mg, ok := h.(multiGetter)
	if !ok {
		return fmt.Errorf("-serving requires a variant with a MultiGet read path (lapse, lapse-cached)")
	}
	hot := nKeys
	if hot > 8 {
		hot = 8
	}
	// Stride the hot set across the whole key space: a contiguous prefix
	// would be local to one node, whose reads bypass the lease cache — every
	// node must take some cross-node leases for its hit counters to move.
	keys := make([]kv.Key, hot)
	for i := range keys {
		keys[i] = kv.Key(i * nKeys / hot)
	}
	dst := make([]float32, hot*valLen)
	want := float32(cl.TotalWorkers() * iters)
	for r := 0; r < 32; r++ {
		if err := mg.MultiGet(keys, dst).Wait(); err != nil {
			return fmt.Errorf("serving read %d: %w", r, err)
		}
		for i, v := range dst {
			if v != want {
				return fmt.Errorf("serving read %d: value %d = %v, want %v", r, i, v, want)
			}
		}
	}
	return nil
}
