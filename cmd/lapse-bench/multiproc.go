package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"time"

	"lapse/internal/adaptive"
	"lapse/internal/driver"
	"lapse/internal/harness"
	"lapse/internal/kv"
	"lapse/internal/transport/shm"
)

// The multi-process cells measure the real transports the deployment layer
// selects between. Each node of a small cluster runs as its own OS process
// on this machine — once forced onto loopback TCP sockets and once on the
// shared-memory ring transport the driver auto-selects for co-located
// processes — re-executing this binary with the child spec in mpChildEnv.
// The spec travels in the environment rather than a flag so the test binary
// can act as a child too (see TestMain). The in-process sweep above them
// keeps using the simulated network; these cells are where transport-level
// changes (syscall batching, ring wakeup) show up in the trajectory.

// mpChildEnv carries the JSON childSpec to a re-executed child process.
const mpChildEnv = "LAPSE_BENCH_MP_NODE"

const (
	mpNodes   = 2
	mpWorkers = 2
	mpShards  = 4
	// mpOpsPerWorker exceeds the in-process sweep's op counts: the cells
	// compare transports, so each run must spend long enough in the message
	// path to dominate process spawn and scheduler noise (the measured
	// window is barrier-bounded, but short windows still jitter).
	mpOpsPerWorker = 3000
	mpQuickOps     = 1500
	// mpTimeout aborts a wedged cell — a child that never converges — with
	// its stderr, instead of hanging the run.
	mpTimeout = 120 * time.Second
	// mpWarmup replaces the workload's in-process warmup: the real
	// transports push one to two orders of magnitude fewer ops per second,
	// so the adaptive controller needs more wall time to see the same
	// traffic and settle before the measured window opens.
	mpWarmup = 250 * time.Millisecond
)

// mpModes is the management-technique sweep of the multi-process cells;
// localize is omitted because its thrash behaviour is covered in-process and
// adds no transport signal.
func mpModes() []harness.HotKeyMode {
	return []harness.HotKeyMode{harness.HotKeyRelocation, harness.HotKeyReplication, harness.HotKeyAdaptive}
}

// mpTransports lists the transports swept by the multi-process cells.
func mpTransports() []string {
	if shm.Supported() {
		return []string{"tcp", "shm"}
	}
	fmt.Println("multi-process cells: shared-memory rings unsupported on this platform; sweeping tcp only")
	return []string{"tcp"}
}

// childSpec tells a -multiproc-node child which share of which cell to run.
type childSpec struct {
	Node         int
	Nodes        int
	Workers      int
	Shards       int
	Addrs        []string
	Transport    string // "tcp" or "shm"
	SHMDir       string
	Workload     string
	Mode         string
	OpsPerWorker int
}

// childReport is what the node-0 child prints on stdout: the transport the
// driver actually selected plus its measured point. Ops (and so Throughput)
// are cluster-wide — the measured window is barrier-aligned across the
// processes — while Stats and Net are node 0's local view.
type childReport struct {
	Transport string
	Point     harness.HotKeyPoint
}

// runChildNode hosts one node of a multi-process cell. Exit status is the
// cell's verdict: nonzero on any setup, transport-selection, or delivery
// failure.
func runChildNode(specJSON string) int {
	var sp childSpec
	if err := json.Unmarshal([]byte(specJSON), &sp); err != nil {
		fmt.Fprintf(os.Stderr, "lapse-bench: child spec: %v\n", err)
		return 1
	}
	cfg, ok := harness.HotKeyWorkloads()[sp.Workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "lapse-bench: child: unknown workload %q\n", sp.Workload)
		return 1
	}
	cfg.OpsPerWorker = sp.OpsPerWorker
	cfg.Warmup = mpWarmup
	mode := harness.HotKeyMode(sp.Mode)
	cl, err := driver.NewCluster(driver.Deployment{
		Nodes:          sp.Nodes,
		WorkersPerNode: sp.Workers,
		Shards:         sp.Shards,
		TCP: &driver.TCPDeployment{
			Addrs:      sp.Addrs,
			Node:       sp.Node,
			DisableSHM: sp.Transport != "shm",
			SHMDir:     sp.SHMDir,
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lapse-bench: node %d: %v\n", sp.Node, err)
		return 1
	}
	if got := driver.Transport(cl); got != sp.Transport {
		// The driver fell back (e.g. ring establishment failed): refuse to
		// measure, a cell labelled shm must not silently report TCP numbers.
		fmt.Fprintf(os.Stderr, "lapse-bench: node %d selected transport %s, cell wants %s\n", sp.Node, got, sp.Transport)
		cl.Close()
		return 1
	}
	var opt driver.Options
	if mode == harness.HotKeyReplication {
		opt.Replicate = cfg.HotKeys()
	}
	if mode == harness.HotKeyAdaptive {
		opt.Adaptive = &adaptive.Config{}
	}
	ps := driver.Build(driver.Lapse, cl, kv.NewUniformLayout(cfg.Keys, cfg.ValLen), opt)
	par := harness.Parallelism{Nodes: sp.Nodes, Workers: sp.Workers, Shards: sp.Shards}
	pt := harness.RunHotKeysNode(par, cl, ps, cfg, mode)
	cl.Close()
	ps.Shutdown()
	if err := cl.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "lapse-bench: node %d transport error: %v\n", sp.Node, err)
		return 1
	}
	if sp.Node == 0 {
		if err := json.NewEncoder(os.Stdout).Encode(childReport{Transport: sp.Transport, Point: pt}); err != nil {
			fmt.Fprintf(os.Stderr, "lapse-bench: node 0 report: %v\n", err)
			return 1
		}
	}
	return 0
}

// runMultiProcessCells executes the real-transport sweep and returns its
// result cells.
func runMultiProcessCells(quick bool) ([]Result, error) {
	ops, attempts := mpOpsPerWorker, 1
	if quick {
		// Same best-of-N policy as the in-process quick cells: short runs
		// are noisy, the -compare gate wants minima of the noise floor.
		ops, attempts = mpQuickOps, 3
	}
	var results []Result
	for _, tr := range mpTransports() {
		for _, mode := range mpModes() {
			pt, err := runMultiProcessOnce(tr, mode, ops)
			if err != nil {
				return nil, err
			}
			allocs, bytesPer := pt.AllocsPerOp(), pt.BytesPerOp()
			p50, p99, p999 := pullQuantiles(pt)
			for a := 1; a < attempts; a++ {
				again, err := runMultiProcessOnce(tr, mode, ops)
				if err != nil {
					return nil, err
				}
				if again.Throughput() > pt.Throughput() {
					pt = again
				}
				allocs = min(allocs, again.AllocsPerOp())
				bytesPer = min(bytesPer, again.BytesPerOp())
				a50, a99, a999 := pullQuantiles(again)
				p50, p99, p999 = min(p50, a50), min(p99, a99), min(p999, a999)
			}
			results = append(results, Result{
				Workload:            "zipf",
				Mode:                string(mode),
				Nodes:               mpNodes,
				Workers:             mpWorkers,
				Shards:              mpShards,
				Transport:           tr,
				Ops:                 pt.Ops,
				Seconds:             pt.Elapsed.Seconds(),
				Throughput:          pt.Throughput(),
				AllocsPerOp:         allocs,
				BytesPerOp:          bytesPer,
				NetworkMessages:     pt.Net.RemoteMessages,
				NetworkBytes:        pt.Net.RemoteBytes,
				LocalReads:          pt.Stats.LocalReads,
				RemoteReads:         pt.Stats.RemoteReads,
				ReplicaHits:         pt.Stats.ReplicaHits,
				ReplicaSyncMessages: pt.Stats.ReplicaSyncMessages,
				Relocations:         pt.Stats.Relocations,
				AdaptTransitions:    pt.Stats.AdaptPromotions + pt.Stats.AdaptDemotions + pt.Stats.AdaptRelocations,
				PullP50Ns:           p50,
				PullP99Ns:           p99,
				PullP999Ns:          p999,
			})
		}
	}
	return results, nil
}

// runMultiProcessOnce launches one process per node for a single cell run
// and returns node 0's measured point.
func runMultiProcessOnce(transport string, mode harness.HotKeyMode, ops int) (harness.HotKeyPoint, error) {
	var zero harness.HotKeyPoint
	exe, err := os.Executable()
	if err != nil {
		return zero, fmt.Errorf("lapse-bench: multiproc: %w", err)
	}
	addrs, err := reserveAddrs(mpNodes)
	if err != nil {
		return zero, err
	}
	shmDir := ""
	if transport == "shm" {
		// A fresh private ring directory per run: concurrent bench
		// invocations must not rendezvous through the Addrs-derived default.
		shmDir, err = os.MkdirTemp(shmTempBase(), "lapse-bench-shm-")
		if err != nil {
			return zero, fmt.Errorf("lapse-bench: multiproc: %w", err)
		}
		defer os.RemoveAll(shmDir)
	}
	ctx, cancel := context.WithTimeout(context.Background(), mpTimeout)
	defer cancel()
	var node0 bytes.Buffer
	cmds := make([]*exec.Cmd, mpNodes)
	stderrs := make([]bytes.Buffer, mpNodes)
	for node := range cmds {
		spec, err := json.Marshal(childSpec{
			Node:         node,
			Nodes:        mpNodes,
			Workers:      mpWorkers,
			Shards:       mpShards,
			Addrs:        addrs,
			Transport:    transport,
			SHMDir:       shmDir,
			Workload:     "zipf",
			Mode:         string(mode),
			OpsPerWorker: ops,
		})
		if err != nil {
			return zero, fmt.Errorf("lapse-bench: multiproc: %w", err)
		}
		cmd := exec.CommandContext(ctx, exe)
		cmd.Env = append(os.Environ(), mpChildEnv+"="+string(spec))
		if node == 0 {
			cmd.Stdout = &node0
		}
		cmd.Stderr = &stderrs[node]
		if err := cmd.Start(); err != nil {
			return zero, fmt.Errorf("lapse-bench: multiproc: start node %d: %w", node, err)
		}
		cmds[node] = cmd
	}
	var firstErr error
	for node, cmd := range cmds {
		if err := cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("lapse-bench: multiproc %s/%s node %d: %w\n%s",
				transport, mode, node, err, stderrs[node].Bytes())
		}
	}
	if firstErr != nil {
		return zero, firstErr
	}
	var rep childReport
	if err := json.Unmarshal(node0.Bytes(), &rep); err != nil {
		return zero, fmt.Errorf("lapse-bench: multiproc %s/%s: parse node 0 report: %w\n%s",
			transport, mode, err, node0.Bytes())
	}
	return rep.Point, nil
}

// reserveAddrs picks n distinct loopback ports by briefly binding them; the
// tiny release window before the children bind again is the usual test-only
// compromise.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range listeners {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("lapse-bench: reserve port: %w", err)
		}
		listeners = append(listeners, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// shmTempBase prefers the tmpfs at /dev/shm for ring files.
func shmTempBase() string {
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		return "/dev/shm"
	}
	return ""
}

// transportTag renders the transport column of the summary lines; the
// in-process simulated-network cells print no tag.
func transportTag(tr string) string {
	if tr == "" {
		return ""
	}
	return "/" + tr
}

// printTransportRatios prints what the paired multi-process cells exist to
// show: the shm-vs-tcp throughput ratio for each workload/mode pair.
func printTransportRatios(r Report) {
	byCell := make(map[cell]Result, len(r.Results))
	for _, res := range r.Results {
		byCell[res.cell()] = res
	}
	for _, res := range r.Results {
		if res.Transport != "shm" {
			continue
		}
		key := res.cell()
		key.Transport = "tcp"
		if tcp, ok := byCell[key]; ok && tcp.Throughput > 0 {
			fmt.Printf("shm vs tcp %-8s %-11s %dx%ds%d: %.2fx throughput\n",
				res.Workload, res.Mode, res.Nodes, res.Workers, res.Shards, res.Throughput/tcp.Throughput)
		}
	}
}
