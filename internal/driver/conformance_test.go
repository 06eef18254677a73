package driver

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lapse/internal/cluster"
	"lapse/internal/core"
	"lapse/internal/kv"
	"lapse/internal/simnet"
	"lapse/internal/transport"
	"lapse/internal/transport/shm"
	"lapse/internal/transport/tcp"
)

// The conformance suite runs the same multi-worker workloads against every
// parameter-server variant on every transport, at server shard counts 1 and
// 4, and checks that all of them (a) converge to the same parameter values
// through the unified server runtime and (b) honor the kv.KV contract,
// including the ErrUnsupported paths of variants without dynamic parameter
// allocation. The simulated network, TCP loopback sockets, and shared-memory
// rings must be observationally identical here — all carry every message
// through the msg codec — and sharding the runtime must never change
// results, only spread the serving work.
//
// How keys are managed is one more axis of the same matrix (confModes):
// relocation only, static replication of a hot set, the adaptive controller,
// serving leases, and the controller with leases on. Every mode runs on every
// transport and shard count, in one process and across two transport
// instances, through confConvergence and confMultiProcess.

const (
	confNodes   = 2
	confWorkers = 2 // per node
	confKeys    = 40
	confValLen  = 2
	confIters   = 3
)

// confTransports names the transports every conformance test runs on;
// confShards the server shard counts.
var (
	confTransports = []string{"simnet", "tcp", "shm"}
	confShards     = []int{1, 4}
)

func confLayout() kv.Layout { return kv.NewUniformLayout(confKeys, confValLen) }

// confName names one (transport, variant, shards) conformance cell.
func confName(transport string, kind Kind, shards int) string {
	return fmt.Sprintf("%s/%s/shards=%d", transport, kind, shards)
}

// confNameLapse names a cell of a mode that runs on the Lapse variant only.
func confNameLapse(transport string, _ Kind, shards int) string {
	return fmt.Sprintf("%s/shards=%d", transport, shards)
}

// newConfNet builds the named transport hosting the whole conformance
// topology, with the given per-node server shard count.
func newConfNet(t *testing.T, tr string, shards int) transport.Network {
	t.Helper()
	switch tr {
	case "simnet":
		return simnet.New(simnet.Config{Nodes: confNodes, Shards: shards})
	case "tcp":
		addrs := make([]string, confNodes)
		for i := range addrs {
			addrs[i] = "127.0.0.1:0"
		}
		net, err := tcp.New(tcp.Config{Addrs: addrs, Shards: shards})
		if err != nil {
			t.Fatalf("tcp.New: %v", err)
		}
		return net
	case "shm":
		if !shm.Supported() {
			t.Skip("shm transport not supported on this platform")
		}
		net, err := shm.New(shm.Config{Dir: t.TempDir(), Nodes: confNodes, Shards: shards})
		if err != nil {
			t.Fatalf("shm.New: %v", err)
		}
		return net
	default:
		t.Fatalf("unknown transport %q", tr)
		return nil
	}
}

// newConfCluster builds the conformance topology on the named transport.
func newConfCluster(t *testing.T, tr string, workersPerNode, shards int) *cluster.Cluster {
	t.Helper()
	return cluster.New(cluster.Config{Nodes: confNodes, WorkersPerNode: workersPerNode, Transport: newConfNet(t, tr, shards)})
}

// newConfNetPair builds two instances of the named transport (tcp or shm)
// hosting one node each — the multi-process deployment of cmd/lapse-node,
// minus the process boundary.
func newConfNetPair(t *testing.T, tr string, shards int) (a, b transport.Network) {
	t.Helper()
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
		ta, tb := mkNet(0), mkNet(1)
		ta.SetAddr(1, tb.Addr(1))
		tb.SetAddr(0, ta.Addr(0))
		return ta, tb
	case "shm":
		if !shm.Supported() {
			t.Skip("shm transport not supported on this platform")
		}
		dir := t.TempDir()
		mkNet := func(node int) *shm.Network {
			net, err := shm.New(shm.Config{Dir: dir, Nodes: confNodes, Local: []int{node},
				Shards: shards, DrainTimeout: 200 * time.Millisecond})
			if err != nil {
				t.Fatalf("shm.New(node %d): %v", node, err)
			}
			return net
		}
		return mkNet(0), mkNet(1)
	default:
		t.Fatalf("no multi-instance deployment on transport %q", tr)
		return nil, nil
	}
}

// confMode is one management mode of the conformance matrix.
type confMode struct {
	// kinds lists the variants the mode runs on: every one for plain
	// relocation, the Lapse variants for anything beyond it.
	kinds []Kind
	opts  func() Options
	// leases marks the modes that read through MultiGet. wait is how long a
	// reader waits for the converged values: no time where reads are
	// sequentially consistent, confWait where replicas or leases make them
	// eventual.
	leases bool
	wait   time.Duration
	// work runs the mode's workload on every worker of cl (one transport
	// instance's share of the cluster) and returns when they are done; check
	// asserts what must hold afterwards. ps is nil in check when the cluster
	// spans two instances: authoritative values are then not all readable
	// from one of them, and the workers have verified the converged values
	// through the read path.
	work  func(r *confRun, cl *cluster.Cluster, ps PS)
	check func(t *testing.T, r *confRun, ps PS)
	// mp lists the transports of the two-instance run. cell names a sub-test;
	// mpCell, if set, one of the two-instance run.
	mp           []string
	cell, mpCell func(tr string, kind Kind, shards int) string
}

// confRun is the state of one cell's run, shared by its workers.
type confRun struct {
	mode *confMode
	kind Kind
	// all lists the PS instances of the cluster: two when it spans transport
	// instances.
	all  []PS
	errs []error // per worker
	// hot and alt are the exact cluster-wide push counts of the goal-driven
	// adaptive phases.
	hot, alt atomic.Int64
}

var bothInstances = []string{"tcp", "shm"}

var confModes = map[string]*confMode{
	"none": {kinds: Kinds(), opts: func() Options { return Options{Staleness: 1} },
		work: runStaticWorkers, check: checkStaticRun, mp: bothInstances, cell: confName},
	"replicate": {kinds: []Kind{Lapse, LapseCached},
		opts: func() Options {
			return Options{Replicate: confHotKeys}
		},
		wait: confWait, work: runStaticWorkers, check: checkStaticRun, mp: []string{"tcp"}, cell: confName,
		mpCell: func(_ string, kind Kind, shards int) string { return fmt.Sprintf("%s/shards=%d", kind, shards) }},
	"adaptive": {kinds: []Kind{Lapse}, opts: confAdaptiveOptions, wait: confWait,
		work: runAdaptiveWorkers, check: checkAdaptiveRun, mp: bothInstances, cell: confNameLapse},
	"serving": {kinds: []Kind{Lapse}, leases: true, wait: confWait,
		opts: func() Options { return Options{Serving: confServing} },
		work: runStaticWorkers, check: checkStaticRun, mp: bothInstances, cell: confNameLapse},
	"adaptive+serving": {kinds: []Kind{Lapse}, leases: true, wait: confWait,
		opts: func() Options { o := confAdaptiveOptions(); o.Serving = confServing; return o },
		work: runAdaptiveWorkers, check: checkAdaptiveRun, mp: bothInstances, cell: confNameLapse},
}

// confHotKeys is the statically replicated set of the "replicate" mode:
// interleaved with relocated keys, spanning both homes.
var confHotKeys = func() []kv.Key {
	hot := make([]kv.Key, 10)
	for i := range hot {
		hot[i] = kv.Key(i * 4)
	}
	return hot
}()

// confServing is the serving tier of the lease modes. The lease is short:
// the one staleness the tier tolerates (a grant racing the owner's own
// worker's write) lasts until the lease runs out, and the readers wait it out.
var confServing = &core.ServingConfig{TTL: 20 * time.Millisecond}

// reader returns the mode's read path on h: MultiGet where leases are on,
// Pull elsewhere.
func (r *confRun) reader(h kv.KV) func(keys []kv.Key, dst []float32) error {
	if !r.mode.leases {
		return h.Pull
	}
	return func(keys []kv.Key, dst []float32) error { return h.(multiGetter).MultiGet(keys, dst).Wait() }
}

// multiGetter is the lease-cached read path of the Lapse variants' handles.
type multiGetter interface {
	MultiGet(keys []kv.Key, dst []float32) *kv.Future
}

// awaitConverged reads keys until every value equals want, for at most wait
// (0: the first read must show it).
func awaitConverged(read func([]kv.Key, []float32) error, keys []kv.Key, want float32, wait time.Duration) error {
	dst := make([]float32, confValLen*len(keys))
	deadline := time.Now().Add(wait)
	for {
		if err := read(keys, dst); err != nil {
			return err
		}
		converged := true
		for _, v := range dst {
			if v != want {
				converged = false
				break
			}
		}
		if converged {
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("read %v, want %v everywhere", dst, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// confWait is how long a reader of an eventually consistent mode waits for
// the converged values (confMode.wait).
const confWait = 10 * time.Second

// confAllKeys returns every key of the conformance layout and a push of 1 to
// every value.
func confAllKeys() (keys []kv.Key, ones []float32) {
	keys = make([]kv.Key, confKeys)
	ones = make([]float32, confKeys*confValLen)
	for i := range keys {
		keys[i] = kv.Key(i)
	}
	for i := range ones {
		ones[i] = 1
	}
	return keys, ones
}

// runStaticWorkers is the workload of the modes without a controller: every
// worker pushes 1 to every value confIters times, advancing its clock
// (flushes the stale PS's write-back cache; no-op elsewhere) and
// synchronizing on the barrier each round; variants that can, localize a
// slice of the keys after the first round, so operations span relocated,
// replicated and (lease modes: each round ends with a read) leased keys, and
// keys move with leases outstanding. One reader per node then observes the
// exact converged values through the mode's read path, within the mode's
// wait.
func runStaticWorkers(r *confRun, cl *cluster.Cluster, ps PS) {
	keys, ones := confAllKeys()
	total := confNodes * confWorkers
	cl.RunWorkers(func(_, worker int) {
		h := ps.Handle(worker)
		read := r.reader(h)
		dst := make([]float32, len(ones))
		for iter := 0; iter < confIters; iter++ {
			if err := h.Push(keys, ones); err != nil {
				r.errs[worker] = err
				return
			}
			h.Clock()
			h.Barrier()
			if iter == 0 && SupportsLocalize(r.kind) {
				if err := h.Localize(keys[worker*confKeys/total : (worker+1)*confKeys/total]); err != nil {
					r.errs[worker] = fmt.Errorf("localize: %w", err)
					return
				}
			}
			if r.mode.leases {
				if err := read(keys, dst); err != nil {
					r.errs[worker] = err
					return
				}
			}
		}
		if worker%confWorkers == 0 {
			if err := awaitConverged(read, keys, float32(total*confIters), r.mode.wait); err != nil {
				r.errs[worker] = fmt.Errorf("worker %d: %w", worker, err)
			}
		}
		h.Barrier() // keep every node serving until the readers are done
	})
}

// checkStaticRun: all variants and modes must agree on the authoritative
// final values.
func checkStaticRun(t *testing.T, r *confRun, ps PS) {
	t.Helper()
	if ps == nil {
		return
	}
	keys, _ := confAllKeys()
	checkAuthoritative(t, ps, keys, float32(confNodes*confWorkers*confIters))
}

// checkAuthoritative compares the authoritative value of every key with want.
// The cluster is still up, and in the controller modes so is the controller:
// ReadParameter is defined between transitions only and panics on a key it
// catches with its value between two stores or two owners (about one run in
// 500 did). Those states last microseconds, so such a read is tried again.
func checkAuthoritative(t *testing.T, ps PS, keys []kv.Key, want float32) {
	t.Helper()
	buf := make([]float32, confValLen)
	read := func(k kv.Key) (midTransition any) {
		defer func() { midTransition = recover() }()
		ps.ReadParameter(k, buf)
		return nil
	}
	for _, k := range keys {
		for try := 0; ; try++ {
			if p := read(k); p == nil {
				break
			} else if try == 100 {
				t.Fatalf("key %d never settled: %v", k, p)
			}
			time.Sleep(time.Millisecond)
		}
		for i, v := range buf {
			if v != want {
				t.Fatalf("key %d value %d = %v, want %v", k, i, v, want)
			}
		}
	}
}

// confConvergence runs one mode's workload on every transport × shard count ×
// variant, all nodes in one transport instance.
func confConvergence(t *testing.T, mode string) {
	m := confModes[mode]
	for _, tr := range confTransports {
		for _, shards := range confShards {
			for _, kind := range m.kinds {
				t.Run(m.cell(tr, kind, shards), func(t *testing.T) {
					cl := newConfCluster(t, tr, confWorkers, shards)
					ps := Build(kind, cl, confLayout(), m.opts())
					defer func() { cl.Close(); ps.Shutdown() }()
					r := &confRun{mode: m, kind: kind, all: []PS{ps}, errs: make([]error, cl.TotalWorkers())}
					m.work(r, cl, ps)
					if err := errors.Join(r.errs...); err != nil {
						t.Fatal(err)
					}
					m.check(t, r, ps)
				})
			}
		}
	}
}

// confMultiProcess runs one mode's workload on two transport instances
// hosting one node each, so its traffic crosses real sockets (or
// shared-memory rings) in both directions and the barrier runs its
// distributed coordinator protocol. The readers verify the converged values
// before anyone tears down.
func confMultiProcess(t *testing.T, mode string) {
	m := confModes[mode]
	cell := m.mpCell
	if cell == nil {
		cell = m.cell
	}
	for _, tr := range m.mp {
		if tr == "shm" && !shm.Supported() {
			continue
		}
		for _, shards := range confShards {
			for _, kind := range m.kinds {
				t.Run(cell(tr, kind, shards), func(t *testing.T) {
					netA, netB := newConfNetPair(t, tr, shards)
					mkCluster := func(net transport.Network) *cluster.Cluster {
						return cluster.New(cluster.Config{Nodes: confNodes, WorkersPerNode: confWorkers, Transport: net})
					}
					clA, clB := mkCluster(netA), mkCluster(netB)
					psA := Build(kind, clA, confLayout(), m.opts())
					psB := Build(kind, clB, confLayout(), m.opts())
					r := &confRun{mode: m, kind: kind, all: []PS{psA, psB}, errs: make([]error, confNodes*confWorkers)}

					var wg sync.WaitGroup
					wg.Add(2)
					go func() { defer wg.Done(); m.work(r, clA, psA) }()
					go func() { defer wg.Done(); m.work(r, clB, psB) }()
					wg.Wait()

					clA.Close()
					clB.Close()
					psA.Shutdown()
					psB.Shutdown()
					if err := errors.Join(r.errs...); err != nil {
						t.Fatal(err)
					}
					m.check(t, r, nil)
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
}

// One test per (mode, deployment shape); the names predate the shared matrix.
func TestConformanceConvergence(t *testing.T)            { confConvergence(t, "none") }
func TestConformanceMultiProcess(t *testing.T)           { confMultiProcess(t, "none") }
func TestReplicationConformanceConvergence(t *testing.T) { confConvergence(t, "replicate") }
func TestReplicationConformanceMultiProcess(t *testing.T) {
	confMultiProcess(t, "replicate")
}
func TestAdaptiveConformanceConvergence(t *testing.T)  { confConvergence(t, "adaptive") }
func TestAdaptiveConformanceMultiProcess(t *testing.T) { confMultiProcess(t, "adaptive") }
func TestServingConformanceConvergence(t *testing.T)   { confConvergence(t, "serving") }
func TestServingConformanceMultiProcess(t *testing.T)  { confMultiProcess(t, "serving") }
func TestAdaptiveServingConformanceConvergence(t *testing.T) {
	confConvergence(t, "adaptive+serving")
}
func TestAdaptiveServingConformanceMultiProcess(t *testing.T) {
	confMultiProcess(t, "adaptive+serving")
}

func TestConformanceAsyncAndWaitAll(t *testing.T) {
	for _, tr := range confTransports {
		for _, shards := range confShards {
			for _, kind := range Kinds() {
				t.Run(confName(tr, kind, shards), func(t *testing.T) {
					cl := newConfCluster(t, tr, confWorkers, shards)
					ps := Build(kind, cl, confLayout(), Options{Staleness: 1})
					defer func() { cl.Close(); ps.Shutdown() }()

					keys := []kv.Key{0, confKeys / 2, confKeys - 1} // spans both nodes
					vals := make([]float32, len(keys)*confValLen)
					for i := range vals {
						vals[i] = 2
					}
					errs := make([]error, cl.TotalWorkers())
					cl.RunWorkers(func(_, worker int) {
						h := ps.Handle(worker)
						for iter := 0; iter < confIters; iter++ {
							h.PushAsync(keys, vals)
						}
						if err := h.WaitAll(); err != nil {
							errs[worker] = err
							return
						}
						h.Clock()
						h.Barrier()
						// Asynchronous pull after the barrier; WaitAll must
						// block until dst is filled.
						dst := make([]float32, len(keys)*confValLen)
						h.PullAsync(keys, dst)
						if err := h.WaitAll(); err != nil {
							errs[worker] = err
							return
						}
						for _, v := range dst {
							if v == 0 {
								errs[worker] = errors.New("async pull observed zero after WaitAll")
								return
							}
						}
					})
					if err := errors.Join(errs...); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

func TestConformanceKVContract(t *testing.T) {
	for _, tr := range confTransports {
		for _, shards := range confShards {
			for _, kind := range Kinds() {
				t.Run(confName(tr, kind, shards), func(t *testing.T) {
					cl := newConfCluster(t, tr, 1, shards)
					ps := Build(kind, cl, confLayout(), Options{Staleness: 1})
					defer func() { cl.Close(); ps.Shutdown() }()

					var mu sync.Mutex
					fail := func(format string, args ...any) {
						mu.Lock()
						defer mu.Unlock()
						t.Errorf(format, args...)
					}
					cl.RunWorkers(func(node, worker int) {
						if worker != 0 {
							// Keep the barrier population complete but idle.
							return
						}
						h := ps.Handle(worker)
						if h.WorkerID() != worker || h.NodeID() != node {
							fail("%s: handle identity = (%d,%d), want (%d,%d)", kind, h.NodeID(), h.WorkerID(), node, worker)
						}
						// Buffer-size validation, sync and async: each call
						// fails, whichever way its buffer is wrong.
						two, short, long := []kv.Key{0, 1}, make([]float32, 1), make([]float32, 2*confValLen+1)
						for _, c := range []struct {
							call        string
							sync, async error
						}{
							{"Pull with a short buffer", h.Pull(two, short), h.PullAsync(two, short).Wait()},
							{"Push with a short buffer", h.Push(two, short), h.PushAsync(two, short).Wait()},
							{"Pull with a long buffer", h.Pull(two, long), h.PullAsync(two, long).Wait()},
							{"Push with a long buffer", h.Push(two, long), h.PushAsync(two, long).Wait()},
							{"Pull of no keys into a buffer", h.Pull(nil, short), h.PullAsync(nil, short).Wait()},
							{"Push of no keys from a buffer", h.Push(nil, short), h.PushAsync(nil, short).Wait()},
						} {
							if c.sync == nil || c.async == nil {
								fail("%s: %s = %v (sync) / %v (async), want errors", kind, c.call, c.sync, c.async)
							}
						}
						if SupportsLocalize(kind) {
							mg := h.(interface {
								MultiGet([]kv.Key, []float32) *kv.Future
							})
							if err := mg.MultiGet(two, short).Wait(); err == nil {
								fail("%s: MultiGet with a short buffer succeeded", kind)
							}
						}
						// Localize support matches the declared capability.
						locErr := h.Localize([]kv.Key{1})
						asyncLocErr := h.LocalizeAsync([]kv.Key{1}).Wait()
						if SupportsLocalize(kind) {
							if locErr != nil || asyncLocErr != nil {
								fail("%s: Localize = %v / %v, want nil", kind, locErr, asyncLocErr)
							}
							// After localization the key is readable with no
							// network communication.
							dst := make([]float32, confValLen)
							ok, err := h.PullIfLocal([]kv.Key{1}, dst)
							if err != nil || !ok {
								fail("%s: PullIfLocal after Localize = (%v, %v), want (true, nil)", kind, ok, err)
							}
						} else {
							if !errors.Is(locErr, kv.ErrUnsupported) {
								fail("%s: Localize = %v, want ErrUnsupported", kind, locErr)
							}
							if !errors.Is(asyncLocErr, kv.ErrUnsupported) {
								fail("%s: LocalizeAsync = %v, want ErrUnsupported", kind, asyncLocErr)
							}
						}
						// A key assigned to the remote node is not local (for
						// the stale PS nothing is local before the first pull).
						dst := make([]float32, confValLen)
						if ok, err := h.PullIfLocal([]kv.Key{confKeys - 1}, dst); err != nil || ok {
							fail("%s: PullIfLocal of remote key = (%v, %v), want (false, nil)", kind, ok, err)
						}
						// A pull that names a key twice fills both slots, the
						// worker's own (for the stale PS, buffered) write included.
						if err := h.Push([]kv.Key{confKeys - 1}, []float32{5, 5}); err != nil {
							fail("%s: Push = %v", kind, err)
						}
						rep := []float32{-1, -1, -1, -1, -1, -1}
						if err := h.Pull([]kv.Key{confKeys - 1, 1, confKeys - 1}, rep); err != nil {
							fail("%s: Pull of a repeated key = %v", kind, err)
						} else if want := []float32{5, 5, 0, 0, 5, 5}; !slices.Equal(rep, want) {
							fail("%s: Pull of a repeated key = %v, want %v", kind, rep, want)
						}
					})
				})
			}
		}
	}
}

// TestConformanceTCPMatchesSimnet runs the identical deterministic workload
// once per (transport, shard count) and compares every parameter value: the
// transport layer and the runtime sharding must not change results, only
// carry and spread them.
func TestConformanceTCPMatchesSimnet(t *testing.T) {
	results := make(map[string][]float32)
	var names []string
	for _, tr := range confTransports {
		for _, shards := range confShards {
			name := fmt.Sprintf("%s/shards=%d", tr, shards)
			names = append(names, name)
			cl := newConfCluster(t, tr, confWorkers, shards)
			ps := Build(Lapse, cl, confLayout(), Options{})
			keys := make([]kv.Key, confKeys)
			for i := range keys {
				keys[i] = kv.Key(i)
			}
			vals := make([]float32, confKeys*confValLen)
			for i := range vals {
				vals[i] = float32(i%7) * 0.5
			}
			errs := make([]error, cl.TotalWorkers())
			cl.RunWorkers(func(_, worker int) {
				h := ps.Handle(worker)
				if err := h.Localize(keys[worker : worker+4]); err != nil {
					errs[worker] = err
					return
				}
				for iter := 0; iter < confIters; iter++ {
					if err := h.Push(keys, vals); err != nil {
						errs[worker] = err
						return
					}
					h.Barrier()
				}
			})
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
			out := make([]float32, 0, confKeys*confValLen)
			buf := make([]float32, confValLen)
			for _, k := range keys {
				ps.ReadParameter(k, buf)
				out = append(out, buf...)
			}
			results[name] = out
			cl.Close()
			ps.Shutdown()
		}
	}
	ref := results[names[0]]
	for _, name := range names[1:] {
		got := results[name]
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("value %d differs across deployments: %s %v, %s %v",
					i, names[0], ref[i], name, got[i])
			}
		}
	}
}
