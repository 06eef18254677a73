// Package lapse is a Go implementation of Lapse, the parameter server with
// dynamic parameter allocation (DPA) from "Dynamic Parameter Allocation in
// Parameter Servers" (Renz-Wieland et al., VLDB 2020), together with a
// simulated multi-node runtime for running it on a single machine.
//
// A parameter server stores the model parameters of a distributed machine
// learning job as key–value pairs (one fixed-length float32 vector per key)
// and exposes pull (read) and cumulative push (add) primitives. Lapse adds a
// third primitive, Localize, which relocates parameters to the calling
// node at runtime while preserving classic-PS (per-key sequential)
// consistency. Relocation lets applications exploit parameter access
// locality — data clustering, parameter blocking, and latency hiding — and
// turn most parameter accesses into shared-memory reads.
//
// For hot keys that every node reads constantly (word2vec negative samples,
// frequent knowledge-graph entities) relocation thrashes; such keys can
// instead be managed by eventually-consistent replication: every node then
// holds a local replica and a background sync cycle merges updates.
// Config.Adaptive picks those keys online, from the accesses it observes;
// Config.Replicate takes a hot set the application already knows from its
// data (word2vec's unigram table, a Zipf head). See examples/hotkeys for both.
//
// # Quick start
//
//	cfg := lapse.Config{Nodes: 2, WorkersPerNode: 2, Keys: 100, ValueLength: 4}
//	cl, err := lapse.NewCluster(cfg)
//	if err != nil { ... }
//	defer cl.Close()
//	err = cl.Run(func(w *lapse.Worker) error {
//		keys := []lapse.Key{lapse.Key(w.ID())}
//		if err := w.Localize(keys); err != nil {
//			return err
//		}
//		if err := w.Push(keys, []float32{1, 2, 3, 4}); err != nil {
//			return err
//		}
//		buf := make([]float32, 4)
//		return w.Pull(keys, buf)
//	})
//
// The cluster is simulated in-process by default: each node runs
// Config.ServerShards server goroutines, each serving an interleaved slice of
// the keys, and WorkersPerNode worker goroutines, and inter-node traffic
// crosses a simulated network with configurable latency and bandwidth (zero
// values mean instantaneous delivery); Config.TCP runs the same nodes over
// real sockets and shared-memory rings, in one process or one per node. The
// parameter-server protocol — home-node
// location management, the three-message relocation protocol, operation
// queuing during relocations, optional location caches — is the full
// system described in the paper; see the internal packages for details and
// DESIGN.md for the architecture overview.
package lapse

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"lapse/internal/cluster"
	"lapse/internal/core"
	"lapse/internal/driver"
	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/obs"
	"lapse/internal/simnet"
)

// Key identifies one parameter.
type Key = kv.Key

// ErrUnsupported is returned by primitives the configured server variant
// does not support.
var ErrUnsupported = kv.ErrUnsupported

// Range declares Count consecutive keys of Length float32 values each, for
// models with heterogeneous parameter sizes (e.g. RESCAL's d-dimensional
// entity and d²-dimensional relation embeddings).
type Range struct {
	Count  Key
	Length int
}

// NetworkConfig models the simulated interconnect. The zero value means
// instantaneous delivery (useful for tests); DefaultNetwork returns values
// mirroring the paper's 10 GBit testbed.
type NetworkConfig struct {
	// Latency is the one-way delay between distinct nodes.
	Latency time.Duration
	// LoopbackLatency is the node-local (IPC) delay.
	LoopbackLatency time.Duration
	// BytesPerSecond is the inter-node link bandwidth (0 = infinite).
	BytesPerSecond float64
}

// TCPDeployment runs the cluster over real transports. Addrs is every
// node's listen address, indexed by node; Node is the single node hosted by
// this process, or -1 to host all nodes in-process over loopback sockets.
// MaxMessage optionally raises the per-message size bound (0 = transport
// default). Traffic between co-located nodes automatically uses
// shared-memory rings instead of loopback sockets — set DisableSHM to force
// plain TCP, SHMDir to override the ring directory (co-located processes
// must agree on it; defaults to a per-deployment directory derived from
// Addrs). In multi-process mode (Node >= 0), every process calls NewCluster
// with the same Config but its own Node, Run executes the worker function
// only for this node's workers, the cluster barrier spans processes, and
// Init / Read are limited to keys owned by this process's node — read
// converged values through Worker.Pull instead. Watch Cluster.Err for link
// failures: operations whose messages were lost never complete.
// cmd/lapse-node is such a process, written against this package alone.
type TCPDeployment struct {
	Addrs      []string
	Node       int
	MaxMessage int
	DisableSHM bool
	SHMDir     string
}

// DefaultServerShards returns the server shard count used when
// Config.ServerShards is zero: one shard per available core, capped at 8 —
// beyond that, shard goroutines outnumber what worker threads can feed and
// the extra per-shard messages stop paying for themselves.
func DefaultServerShards() int {
	s := runtime.GOMAXPROCS(0)
	if s > 8 {
		s = 8
	}
	if s < 1 {
		s = 1
	}
	return s
}

// DefaultNetwork mirrors the paper's cluster network.
func DefaultNetwork() NetworkConfig {
	d := simnet.DefaultTestbed(1)
	return NetworkConfig{
		Latency:         d.Latency,
		LoopbackLatency: d.LoopbackLatency,
		BytesPerSecond:  d.BytesPerSecond,
	}
}

// Config describes a Lapse cluster.
type Config struct {
	// Nodes is the number of simulated machines (>= 1).
	Nodes int
	// WorkersPerNode is the number of worker threads per node (>= 1).
	WorkersPerNode int
	// Keys and ValueLength declare a uniform parameter layout: Keys keys
	// of ValueLength float32 values each. Leave zero when using Ranges.
	Keys        Key
	ValueLength int
	// Ranges declares a heterogeneous layout; mutually exclusive with
	// Keys/ValueLength.
	Ranges []Range
	// Network configures the simulated interconnect; ignored when TCP is
	// set.
	Network NetworkConfig
	// TCP, when non-nil, deploys the cluster over real TCP sockets
	// instead of the simulated network: either all nodes in this process
	// (loopback) or one node per OS process, as cmd/lapse-node runs it.
	TCP *TCPDeployment
	// ServerShards is the number of independent server shards per node
	// (0 = DefaultServerShards, derived from GOMAXPROCS). Each shard owns
	// the static key slice k ≡ s (mod ServerShards) and runs its own
	// message loop, so one node's server work spreads across cores while
	// per-key operation order is preserved.
	//
	// Tuning: the default saturates the host for server-bound workloads.
	// More shards than cores adds goroutine-scheduling overhead without
	// benefit; shards = 1 restores the paper's single-server-thread layout
	// and minimizes message count (a multi-key operation sends one message
	// per destination node instead of one per destination node and shard).
	// Set it to 1 when measuring message counts. In multi-process
	// deployments every process must use the same value.
	//
	// Consistency: synchronous operations stay sequentially consistent
	// per key at every shard count. With more than one shard, a worker's
	// *asynchronous* operations on keys of different shards may be applied
	// out of program order (each shard is an independent message loop), so
	// cross-key async sequential consistency — which the paper's Section
	// 3.4 guarantees without location caches — holds only per shard; use
	// ServerShards = 1 (or WaitAll/synchronous operations at ordering
	// points) when that cross-key guarantee matters.
	ServerShards int
	// LocationCaches enables Lapse's optional location caches. Note that
	// with caches on, asynchronous operations are only eventually
	// consistent (Theorem 3 of the paper).
	LocationCaches bool
	// Replicate designates hot keys managed by eventually-consistent
	// replication instead of relocation: every node holds a local replica,
	// so all reads and writes of these keys are shared-memory operations,
	// and a background sync cycle merges the cumulative updates across
	// nodes. Right for keys every node accesses constantly (word2vec
	// negative samples, frequent KGE entities), where relocation would
	// thrash, when the application knows them from its data (a unigram
	// table, a Zipf head); Adaptive picks them online instead.
	// Replicated keys are only eventually consistent: a node observes
	// remote pushes after up to two sync intervals (1ms each) plus network
	// latency (its own pushes are always visible immediately). Localize is a
	// no-op for replicated keys. Replicate keys stay replicated for the
	// cluster's lifetime, Adaptive or not. In multi-process deployments,
	// Replicate must be identical in every process.
	Replicate []Key
	// Adaptive enables adaptive per-key parameter management: an online
	// controller that chooses each key's management technique at runtime —
	// replication for keys hot at every node, relocation to the dominant
	// accessor for locality-skewed keys, plain home placement for cold keys —
	// instead of requiring a static Replicate list. It demotes only the keys
	// it promoted; Replicate keys are pinned.
	//
	// There is nothing to tune: one set of thresholds is meant to hold across
	// workloads and network latencies. The controller judges every node on a
	// window of its most recent recorded accesses — a fixed amount of evidence
	// (a few thousand observations), not a span of time, so a worker that
	// waits on the network for every access is judged as precisely as one
	// that runs from memory, only later. Accesses that wait for the network
	// are all recorded; local ones are sampled. A node is interested in a key
	// that accounts for half a percent of what it waits for, on at least
	// sixteen observations. A key two nodes are interested in is replicated;
	// one for which a single node holds at least three quarters of the demand
	// is relocated to it. As keys become local they leave the waiting and the
	// next-hottest stand out: a skewed tail is worked off key by key, a
	// uniform workload is left alone. A key that transitioned stays put for
	// two controller epochs (5ms each), and a promoted key is demoted only
	// after eight consecutive epochs cold at every node, on windows long
	// enough to have shown it. In multi-process deployments, Adaptive must be
	// identical in every process.
	Adaptive bool
	// Serving, when non-nil, enables the read-path serving tier for
	// read-mostly workloads: Worker.MultiGet misses install TTL-leased
	// values in a node-local serving cache, and repeat MultiGets of leased
	// keys are shared-memory reads that complete without a single
	// allocation. A write does not end a lease: the key's owner sends every
	// node holding one the new value, the writer's node included, and the
	// copies are overwritten in place — a hot key that is also written costs
	// one miss per lease term, not one per write. Copies are dropped only
	// when the value leaves its owner (relocation, promotion into
	// replication). A read through the cache normally lags another node's
	// write by one message latency, and by at most the lease TTL plus one
	// latency if that message is lost or — in one tolerated race between a
	// write by the owner's own worker and a lease being granted at that
	// moment — never sent. A worker always observes its own preceding
	// synchronous writes: while one of its node's pushes to a key is
	// unacknowledged the key is read over the network behind it, and the
	// owner's new value reaches the node's cache ahead of the
	// acknowledgement. &ServingConfig{} selects the default TTL. In
	// multi-process deployments, Serving must be identical in every process.
	Serving *ServingConfig
	// MetricsAddr, when non-empty, serves live metrics over HTTP on this
	// address (host:port; port 0 picks a free one — see Cluster.MetricsAddr
	// for the bound address): GET /metrics returns Prometheus text-format
	// counters and latency-quantile summaries, /debug/trace the control-plane
	// event ring (relocations, promotions/demotions, transport fallbacks) as
	// JSON, and /debug/stats the raw aggregate statistics. The server runs
	// until Close and uses only the standard library.
	MetricsAddr string
}

// ServingConfig tunes the read-path serving tier (Config.Serving).
type ServingConfig struct {
	// TTL is the lease duration granted to caching nodes: longer leases mean
	// fewer misses on expiry, a longer time a node that stopped reading a key
	// keeps being sent its new values, and a larger worst-case staleness
	// window when such a message is lost (0 = 100ms; capped near 71 minutes
	// by the wire format).
	TTL time.Duration
}

func (c Config) layout() (kv.Layout, error) {
	switch {
	case len(c.Ranges) > 0 && (c.Keys != 0 || c.ValueLength != 0):
		return nil, errors.New("lapse: specify either Keys/ValueLength or Ranges, not both")
	case len(c.Ranges) > 0:
		counts := make([]Key, len(c.Ranges))
		lens := make([]int, len(c.Ranges))
		for i, r := range c.Ranges {
			if r.Count == 0 || r.Length <= 0 {
				return nil, fmt.Errorf("lapse: invalid range %d: %+v", i, r)
			}
			counts[i] = r.Count
			lens[i] = r.Length
		}
		return kv.NewRangeLayout(counts, lens), nil
	case c.Keys > 0 && c.ValueLength > 0:
		return kv.NewUniformLayout(c.Keys, c.ValueLength), nil
	default:
		return nil, errors.New("lapse: parameter layout missing (set Keys/ValueLength or Ranges)")
	}
}

// Cluster is a running simulated Lapse deployment.
type Cluster struct {
	cfg    Config
	cl     *cluster.Cluster
	sys    *core.System
	obs    *obs.Server
	closed bool
	mu     sync.Mutex
}

// NewCluster starts a cluster per cfg. Call Close when done.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 || cfg.WorkersPerNode < 1 {
		return nil, fmt.Errorf("lapse: invalid topology %d×%d", cfg.Nodes, cfg.WorkersPerNode)
	}
	layout, err := cfg.layout()
	if err != nil {
		return nil, err
	}
	shards := cfg.ServerShards
	if shards <= 0 {
		shards = DefaultServerShards()
	}
	deployment := driver.Deployment{
		Nodes:          cfg.Nodes,
		WorkersPerNode: cfg.WorkersPerNode,
		Shards:         shards,
		Net: simnet.Config{
			Latency:         cfg.Network.Latency,
			LoopbackLatency: cfg.Network.LoopbackLatency,
			BytesPerSecond:  cfg.Network.BytesPerSecond,
		},
	}
	if cfg.TCP != nil {
		deployment.TCP = &driver.TCPDeployment{
			Addrs:      cfg.TCP.Addrs,
			Node:       cfg.TCP.Node,
			MaxMessage: cfg.TCP.MaxMessage,
			DisableSHM: cfg.TCP.DisableSHM,
			SHMDir:     cfg.TCP.SHMDir,
		}
	}
	cl, err := driver.NewCluster(deployment)
	if err != nil {
		return nil, err
	}
	for _, k := range cfg.Replicate {
		if k >= layout.NumKeys() {
			cl.Close()
			return nil, fmt.Errorf("lapse: replicated key %d outside layout (%d keys)", k, layout.NumKeys())
		}
	}
	coreCfg := core.Config{
		LocationCaches: cfg.LocationCaches,
		Replicate:      cfg.Replicate,
		Adaptive:       cfg.Adaptive,
	}
	if s := cfg.Serving; s != nil {
		coreCfg.Serving = &core.ServingConfig{TTL: s.TTL}
	}
	sys := core.New(cl, layout, coreCfg)
	c := &Cluster{cfg: cfg, cl: cl, sys: sys}
	if cfg.MetricsAddr != "" {
		node := -1
		if cfg.TCP != nil && cfg.TCP.Node >= 0 {
			node = cfg.TCP.Node
		}
		srv, err := obs.Serve(cfg.MetricsAddr, obs.Source{
			Node:      node,
			Stats:     func() metrics.Totals { return metrics.Sum(sys.Stats()) },
			Latencies: sys.Latencies,
			Trace:     cl.Trace(),
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.obs = srv
	}
	return c, nil
}

// MetricsAddr returns the bound address of the metrics HTTP server, or ""
// when Config.MetricsAddr was empty. Useful with a ":0" port.
func (c *Cluster) MetricsAddr() string {
	if c.obs == nil {
		return ""
	}
	return c.obs.Addr()
}

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// Workers returns the total worker count.
func (c *Cluster) Workers() int { return c.cl.TotalWorkers() }

// Init sets initial parameter values before training: fn is called once per
// key with a zeroed buffer to fill. It must not run concurrently with Run.
func (c *Cluster) Init(fn func(k Key, val []float32)) { c.sys.Init(fn) }

// Read returns the authoritative current value of k (for evaluation between
// Run calls, not for use inside workers).
func (c *Cluster) Read(k Key, dst []float32) { c.sys.ReadParameter(k, dst) }

// Run spawns one goroutine per worker thread executing fn and waits for all
// of them. It returns the errors of every failed worker, joined with
// errors.Join (nil if all workers succeeded). Run may be called multiple
// times (e.g. once per training phase).
func (c *Cluster) Run(fn func(w *Worker) error) error {
	errs := make([]error, c.cl.TotalWorkers())
	c.cl.RunWorkers(func(node, worker int) {
		w := &Worker{c: c, kv: c.sys.Handle(worker).(client)}
		if err := fn(w); err != nil {
			errs[worker] = fmt.Errorf("worker %d: %w", worker, err)
		}
	})
	return errors.Join(errs...)
}

// Stats summarizes the cluster-wide server counters.
type Stats struct {
	LocalReads, RemoteReads int64
	Relocations             int64
	MeanRelocationTime      time.Duration
	NetworkMessages         int64
	NetworkBytes            int64
	// ReplicaHits counts reads of replicated hot keys served from a
	// node-local replica (no network); ReplicaSyncMessages counts the
	// background sync-cycle messages that paid for them.
	ReplicaHits         int64
	ReplicaSyncMessages int64
	// AdaptPromotions, AdaptDemotions, and AdaptRelocations count the
	// transitions executed by the adaptive controller (Config.Adaptive):
	// keys promoted into replication, demoted back to plain ownership, and
	// relocated on the controller's initiative.
	AdaptPromotions  int64
	AdaptDemotions   int64
	AdaptRelocations int64
	// ServingHits and ServingMisses count MultiGet keys served from (or
	// missing) the lease-based serving cache (Config.Serving). LeaseGrants
	// counts leases granted by the keys' owners and LeaseRevokes the
	// coherence messages the owners sent their lease holders: new values
	// after writes, drops on relocations and promotions. At the holders,
	// LeaseRefreshes counts cached copies overwritten in place by such a
	// message and LeaseInvalidations copies actually dropped.
	ServingHits        int64
	ServingMisses      int64
	LeaseGrants        int64
	LeaseRevokes       int64
	LeaseRefreshes     int64
	LeaseInvalidations int64
	// PullP50/P99/P999 and PushP50/P99/P999 are end-to-end operation-latency
	// quantiles over every worker of this process, fast and slow paths
	// merged. Fast-path (shared-memory) operations are sampled 1-in-8 with
	// matching weight, so the quantiles stay unbiased; log-scale bucketing
	// bounds the relative error at about ±3%. Zero when no operation of the
	// kind ran yet.
	PullP50, PullP99, PullP999 time.Duration
	PushP50, PushP99, PushP999 time.Duration
}

// Stats returns a snapshot of the instrumentation counters.
func (c *Cluster) Stats() Stats {
	t := metrics.Sum(c.sys.Stats())
	n := c.cl.Net().Stats()
	lat := c.sys.Latencies()
	pull, push := lat.Pull(), lat.Push()
	return Stats{
		PullP50:             pull.Quantile(0.5),
		PullP99:             pull.Quantile(0.99),
		PullP999:            pull.Quantile(0.999),
		PushP50:             push.Quantile(0.5),
		PushP99:             push.Quantile(0.99),
		PushP999:            push.Quantile(0.999),
		LocalReads:          t.LocalReads,
		RemoteReads:         t.RemoteReads,
		Relocations:         t.Relocations,
		MeanRelocationTime:  t.MeanRelocationTime(),
		NetworkMessages:     n.RemoteMessages,
		NetworkBytes:        n.RemoteBytes,
		ReplicaHits:         t.ReplicaHits,
		ReplicaSyncMessages: t.ReplicaSyncMessages,
		AdaptPromotions:     t.AdaptPromotions,
		AdaptDemotions:      t.AdaptDemotions,
		AdaptRelocations:    t.AdaptRelocations,
		ServingHits:         t.ServingHits,
		ServingMisses:       t.ServingMisses,
		LeaseGrants:         t.LeaseGrants,
		LeaseRevokes:        t.LeaseRevokes,
		LeaseRefreshes:      t.LeaseRefreshes,
		LeaseInvalidations:  t.LeaseInvalidations,
	}
}

// SyncReplicas triggers one replica sync round immediately, in addition to
// the background one every millisecond. Replicas converge after the
// deltas reach their home nodes and the merged values fan back out — i.e.
// eventually; poll reads (or call this again) rather than assuming
// completion on return.
func (c *Cluster) SyncReplicas() { c.sys.FlushReplicas() }

// Err returns the first transport delivery failure (a dead TCP link, a
// malformed frame), or nil. Operations whose messages were lost never
// complete, so multi-process deployments should watch Err: cmd/lapse-node
// polls it while Run is in progress and exits with the error. Simulated
// clusters never fail.
func (c *Cluster) Err() error { return c.cl.Err() }

// Transport names the transport the cluster selected: "simnet", "tcp", or
// "shm" (shared-memory rings between co-located nodes, TCP to the rest).
func (c *Cluster) Transport() string { return driver.Transport(c.cl) }

// Close shuts the cluster down. It is idempotent.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	if c.obs != nil {
		c.obs.Close()
	}
	c.cl.Close()
	c.sys.Shutdown()
}

// Worker is the per-worker-thread view of the parameter server, passed to
// the function given to Run. A Worker must not be shared across goroutines.
type Worker struct {
	c  *Cluster
	kv client
}

// client is a Lapse worker handle: the kv.KV API plus the serving tier's
// MultiGet.
type client interface {
	kv.KV
	MultiGet(keys []kv.Key, dst []float32) *kv.Future
}

// ID returns the global worker index (0 … Workers-1).
func (w *Worker) ID() int { return w.kv.WorkerID() }

// Node returns the node this worker runs on.
func (w *Worker) Node() int { return w.kv.NodeID() }

// Pull retrieves the values of keys into dst (concatenated in key order).
func (w *Worker) Pull(keys []Key, dst []float32) error { return w.kv.Pull(keys, dst) }

// Push sends cumulative updates for keys (vals concatenated in key order).
func (w *Worker) Push(keys []Key, vals []float32) error { return w.kv.Push(keys, vals) }

// PullAsync is Pull without waiting; the returned handle's Wait reports
// completion.
func (w *Worker) PullAsync(keys []Key, dst []float32) *Async {
	return &Async{f: w.kv.PullAsync(keys, dst)}
}

// PushAsync is Push without waiting. vals must stay unmodified until the
// returned handle's Wait reports completion: a push that waits behind a
// relocation is queued with the caller's slice.
func (w *Worker) PushAsync(keys []Key, vals []float32) *Async {
	return &Async{f: w.kv.PushAsync(keys, vals)}
}

// Localize relocates keys to this worker's node and waits for their arrival.
func (w *Worker) Localize(keys []Key) error { return w.kv.Localize(keys) }

// LocalizeAsync requests relocation without waiting.
func (w *Worker) LocalizeAsync(keys []Key) *Async {
	return &Async{f: w.kv.LocalizeAsync(keys)}
}

// MultiGet retrieves the values of keys through the read-path serving tier:
// keys are served from the local replica or owned store, from the node's
// leased serving cache, or — for the residual misses only — over the network
// with a lease request attached, so the next MultiGet of the same keys is a
// shared-memory read, and stays one across writes: the key's owner overwrites
// the cached copy in place with every write it applies. A MultiGet whose keys
// all hit local state completes without allocating. With Config.Serving nil
// the call is equivalent to Pull. Values served from the cache lag another
// node's writes by a message latency, at worst by the lease TTL (see
// Config.Serving); the worker's own preceding synchronous writes are always
// visible, and a MultiGet issued behind an unacknowledged PushAsync of the
// same key travels to the owner behind it.
func (w *Worker) MultiGet(keys []Key, dst []float32) error {
	return w.MultiGetAsync(keys, dst).Wait()
}

// MultiGetAsync is MultiGet without waiting.
func (w *Worker) MultiGetAsync(keys []Key, dst []float32) *Async {
	return &Async{f: w.kv.MultiGet(keys, dst)}
}

// PullIfLocal retrieves keys only if all of them are currently on this
// worker's node, without network communication. On false, dst may be
// partially written.
func (w *Worker) PullIfLocal(keys []Key, dst []float32) (bool, error) {
	return w.kv.PullIfLocal(keys, dst)
}

// WaitAll blocks until all outstanding asynchronous operations of this
// worker completed.
func (w *Worker) WaitAll() error { return w.kv.WaitAll() }

// Barrier blocks until every worker in the cluster reached it.
func (w *Worker) Barrier() { w.kv.Barrier() }

// Compute models d of computation time in the simulated cluster (sleeps
// precisely; overlaps across workers). No-op when the network is configured
// with zero latencies.
func (w *Worker) Compute(d time.Duration) { w.c.cl.Compute(d) }

// Async is a handle to an asynchronous operation.
type Async struct{ f *kv.Future }

// Wait blocks until the operation completes and returns its error.
func (a *Async) Wait() error { return a.f.Wait() }

// Done reports whether the operation has completed, without blocking. It
// discards the operation's error: a failed operation is "done" too. Use
// TryWait (or Wait / WaitAll) when the error matters.
func (a *Async) Done() bool { done, _ := a.f.TryWait(); return done }

// TryWait reports whether the operation has completed, without blocking,
// and returns its error if it has. Unlike Done, a failure is not silently
// discarded.
func (a *Async) TryWait() (done bool, err error) { return a.f.TryWait() }
