// Command lapse-node runs one Lapse node as an OS process, so a parameter
// server can be deployed as N communicating processes over real transports —
// the deployment mode of the paper's actual system — instead of the
// in-process simulation of cmd/lapse-sim. It is a client of the public lapse
// package: lapse.NewCluster with a TCPDeployment naming this process's node,
// then Cluster.Run with the workload below.
//
// Every process is started with the same topology (the full address list and
// shared workload parameters) plus its own node index; the processes find
// each other over TCP (dials retry while peers are still starting), run the
// quickstart workload, and node 0 verifies that the cluster converged to the
// analytically known result before everyone tears down. Traffic between
// processes on the same host automatically rides shared-memory rings instead
// of loopback TCP; -no-shm forces plain TCP, and cross-host links always use
// TCP.
//
// Usage (3 nodes on one machine):
//
//	lapse-node -node 0 -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	lapse-node -node 1 -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	lapse-node -node 2 -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//
// The workload mirrors the quickstart example across processes: each worker
// localizes a disjoint share of the keys, then every worker pushes 1 to every
// value for -iters rounds, synchronizing on the cluster-wide barrier after
// each round; finally worker 0 of node 0 pulls everything back through the
// regular read path and checks each value equals workers × nodes × iters.
// With -serving, every worker first re-reads a strided hot set through
// Worker.MultiGet. Exit status 0 means this node — and, on node 0, the whole
// cluster's converged state — checked out; 1 means the cluster failed or
// rejected the configuration, 2 a usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lapse"
)

func main() {
	var (
		node      = flag.Int("node", -1, "this process's node index (required)")
		addrList  = flag.String("addrs", "", "comma-separated listen addresses of all nodes (required)")
		workers   = flag.Int("workers", 2, "worker threads per node")
		shards    = flag.Int("shards", 1, "server shards per node, at least 1 (must be identical in every process)")
		keys      = flag.Int("keys", 64, "number of parameters, at least 1")
		valLen    = flag.Int("vallen", 2, "values per parameter")
		iters     = flag.Int("iters", 3, "push rounds")
		noSHM     = flag.Bool("no-shm", false, "force TCP even between same-host processes")
		shmDir    = flag.String("shm-dir", "", "shared-memory ring directory (default derived from -addrs; all co-located processes must agree)")
		quiet     = flag.Bool("q", false, "suppress the per-node summary")
		metricsAt = flag.String("metrics-addr", "", "serve /metrics, /debug/trace, /debug/stats over HTTP on this address (empty = off)")
		linger    = flag.Duration("linger", 0, "keep the process (and its metrics endpoint) alive this long after the workload finishes")
		serving   = flag.Duration("serving", 0, "enable the lease-based serving tier with this TTL and re-verify convergence through MultiGet (0 = off)")
	)
	flag.Parse()
	addrs := strings.Split(*addrList, ",")
	// lapse.Config reads ServerShards 0 as a per-process default, which the
	// processes of one deployment need not share: -shards must be explicit.
	if *addrList == "" || *node < 0 || *node >= len(addrs) || *shards < 1 || *keys < 1 {
		fmt.Fprintln(os.Stderr, "lapse-node: -node and -addrs are required, -node must index -addrs, -shards and -keys must be at least 1")
		flag.Usage()
		os.Exit(2)
	}
	cfg := lapse.Config{
		Nodes:          len(addrs),
		WorkersPerNode: *workers,
		Keys:           lapse.Key(*keys),
		ValueLength:    *valLen,
		TCP:            &lapse.TCPDeployment{Addrs: addrs, Node: *node, DisableSHM: *noSHM, SHMDir: *shmDir},
		ServerShards:   *shards,
		MetricsAddr:    *metricsAt,
	}
	if *serving > 0 {
		cfg.Serving = &lapse.ServingConfig{TTL: *serving}
	}
	if err := run(cfg, *iters, *linger, *quiet); err != nil {
		fmt.Fprintf(os.Stderr, "lapse-node %d: %v\n", *node, err)
		os.Exit(1)
	}
}

func run(cfg lapse.Config, iters int, linger time.Duration, quiet bool) error {
	node := cfg.TCP.Node
	cl, err := lapse.NewCluster(cfg)
	if err != nil {
		return err
	}
	if addr := cl.MetricsAddr(); addr != "" && !quiet {
		fmt.Printf("lapse-node %d: metrics on http://%s/metrics\n", node, addr)
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

	err = cl.Run(func(w *lapse.Worker) error {
		return runWorker(w, cl.Workers(), int(cfg.Keys), cfg.ValueLength, iters, cfg.Serving != nil)
	})

	// Linger before teardown so the metrics endpoint stays scrapeable (the
	// cluster is still up — other nodes may also be lingering).
	time.Sleep(linger)

	cl.Close()
	if err != nil {
		return err
	}
	if err := cl.Err(); err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	if !quiet {
		s := cl.Stats()
		fmt.Printf("lapse-node %d (transport=%s): converged; sent %d remote msgs / %d bytes\n",
			node, cl.Transport(), s.NetworkMessages, s.NetworkBytes)
	}
	return nil
}

// runWorker is the per-worker quickstart workload; worker 0 (on node 0)
// additionally verifies the converged values between the last two barriers,
// while every other worker is parked on the final barrier keeping its node's
// server responsive.
//
// The workload crosses iters+1 cluster-wide barriers. A worker that fails
// must still take part in the remaining ones, otherwise its error would
// deadlock every other worker — across all processes — instead of being
// reported.
func runWorker(w *lapse.Worker, total, nKeys, valLen, iters int, serving bool) error {
	barriersLeft := iters + 1
	defer func() {
		for ; barriersLeft > 0; barriersLeft-- {
			w.Barrier()
		}
	}()
	barrier := func() {
		w.Barrier()
		barriersLeft--
	}

	allKeys := make([]lapse.Key, nKeys)
	for i := range allKeys {
		allKeys[i] = lapse.Key(i)
	}
	ones := make([]float32, nKeys*valLen)
	for i := range ones {
		ones[i] = 1
	}

	// Localize a disjoint per-worker share, exercising the relocation
	// protocol across process boundaries.
	lo, hi := w.ID()*nKeys/total, (w.ID()+1)*nKeys/total
	if err := w.Localize(allKeys[lo:hi]); err != nil {
		return fmt.Errorf("localize: %w", err)
	}
	for iter := 0; iter < iters; iter++ {
		if err := w.Push(allKeys, ones); err != nil {
			return fmt.Errorf("push round %d: %w", iter, err)
		}
		barrier()
	}
	want := float32(total * iters)
	if serving {
		// Every worker re-reads a hot prefix of the key space through the
		// serving tier: the first MultiGet misses and takes leases, the rest
		// are served from the node-local cache, so a deployment smoke test
		// can assert nonzero lapse_serving_hits_total on /metrics.
		if err := runServingReads(w, nKeys, valLen, want); err != nil {
			return err
		}
	}
	if w.ID() == 0 {
		dst := make([]float32, nKeys*valLen)
		if err := w.Pull(allKeys, dst); err != nil {
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
	return w.WaitAll()
}

// runServingReads verifies the converged prefix of the key space through the
// serving tier. Repeated MultiGets of the same keys keep hitting the lease
// cache, which is what the CI serving smoke job scrapes for.
func runServingReads(w *lapse.Worker, nKeys, valLen int, want float32) error {
	hot := min(nKeys, 8)
	// Stride the hot set across the whole key space: a contiguous prefix
	// would be local to one node, whose reads bypass the lease cache — every
	// node must take some cross-node leases for its hit counters to move.
	keys := make([]lapse.Key, hot)
	for i := range keys {
		keys[i] = lapse.Key(i * nKeys / hot)
	}
	dst := make([]float32, hot*valLen)
	for r := 0; r < 32; r++ {
		if err := w.MultiGet(keys, dst); err != nil {
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
