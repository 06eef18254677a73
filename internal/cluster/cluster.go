// Package cluster provides the multi-node runtime shared by all
// parameter-server variants: node/worker topology (Figure 2 of the paper:
// one server thread plus several worker threads co-located per node), worker
// spawning, and a cluster-wide barrier.
//
// A cluster runs on any transport.Network. With the default simulated
// network (internal/simnet) every node lives in this process; with a TCP
// transport (internal/transport/tcp) a process hosts only the transport's
// local nodes, and several processes — one Cluster each, sharing the same
// topology — form the full deployment. RunWorkers spawns workers for local
// nodes only, and the barrier switches to a message-based protocol when any
// node is remote.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"lapse/internal/metrics"
	"lapse/internal/msg"
	"lapse/internal/simnet"
	"lapse/internal/transport"
)

// Config describes cluster topology and network behaviour.
type Config struct {
	// Nodes is the number of cluster nodes.
	Nodes int
	// WorkersPerNode is the number of worker threads per node (the paper
	// uses 4 in all experiments, plus 1 server thread).
	WorkersPerNode int
	// Net configures the simulated network used when Transport is nil.
	// Its Nodes field is overwritten with Config.Nodes.
	Net simnet.Config
	// Transport, when set, is a pre-built transport the cluster runs on
	// instead of a fresh simulated network (e.g. a tcp.Network hosting
	// this process's share of the nodes). The cluster takes ownership and
	// closes it in Close.
	Transport transport.Network
}

// Cluster is a running cluster: a transport plus topology metadata.
type Cluster struct {
	cfg     Config
	net     transport.Network
	locals  []int
	barrier *Barrier
	trace   *metrics.TraceRing
}

// New starts a cluster. Call Close when done.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 || cfg.WorkersPerNode <= 0 {
		panic(fmt.Sprintf("cluster: invalid topology %d×%d", cfg.Nodes, cfg.WorkersPerNode))
	}
	net := cfg.Transport
	if net == nil {
		cfg.Net.Nodes = cfg.Nodes
		net = simnet.New(cfg.Net)
	} else if net.Nodes() != cfg.Nodes {
		panic(fmt.Sprintf("cluster: transport has %d nodes, topology %d", net.Nodes(), cfg.Nodes))
	}
	c := &Cluster{cfg: cfg, net: net, trace: metrics.NewTraceRing(metrics.DefaultTraceCap)}
	allLocal := true
	for n := 0; n < cfg.Nodes; n++ {
		if net.Local(n) {
			c.locals = append(c.locals, n)
		} else {
			allLocal = false
		}
	}
	if len(c.locals) == 0 {
		panic("cluster: transport hosts no local nodes")
	}
	if allLocal {
		c.barrier = NewBarrier(cfg.Nodes * cfg.WorkersPerNode)
	} else {
		c.barrier = newNetBarrier(net, cfg.Nodes, cfg.WorkersPerNode, c.locals)
	}
	return c
}

// Nodes returns the cluster-wide node count.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// WorkersPerNode returns the per-node worker-thread count.
func (c *Cluster) WorkersPerNode() int { return c.cfg.WorkersPerNode }

// TotalWorkers returns Nodes × WorkersPerNode (cluster-wide).
func (c *Cluster) TotalWorkers() int { return c.cfg.Nodes * c.cfg.WorkersPerNode }

// Net returns the cluster transport.
func (c *Cluster) Net() transport.Network { return c.net }

// Local reports whether node is hosted by this process.
func (c *Cluster) Local(node int) bool { return c.net.Local(node) }

// LocalNodes returns the nodes hosted by this process, in order.
func (c *Cluster) LocalNodes() []int { return c.locals }

// Barrier returns the cluster-wide worker barrier.
func (c *Cluster) Barrier() *Barrier { return c.barrier }

// Trace returns the cluster's control-plane trace ring. Subsystems append
// relocation, replication, and transport events to it; exposition and tests
// read it back. Never nil for a cluster built by New.
func (c *Cluster) Trace() *metrics.TraceRing { return c.trace }

// HandleBarrier processes a barrier protocol message that arrived at a local
// node. It is called by the server runtime's message loop.
func (c *Cluster) HandleBarrier(node int, m *msg.Barrier) { c.barrier.handle(node, m) }

// NodeOfWorker maps a global worker index to its node.
func (c *Cluster) NodeOfWorker(worker int) int { return worker / c.cfg.WorkersPerNode }

// LocalWorker maps a global worker index to its index within its node.
func (c *Cluster) LocalWorker(worker int) int { return worker % c.cfg.WorkersPerNode }

// GlobalWorker maps (node, localWorker) to the global worker index.
func (c *Cluster) GlobalWorker(node, localWorker int) int {
	return node*c.cfg.WorkersPerNode + localWorker
}

// RunWorkers spawns one goroutine per worker thread hosted by this process,
// running fn(node, worker) (worker is the global index), and waits for all
// of them to return. On an all-local transport that is every worker of the
// cluster; in a multi-process deployment each process runs its own share and
// the cluster barrier spans them.
func (c *Cluster) RunWorkers(fn func(node, worker int)) {
	var wg sync.WaitGroup
	for _, n := range c.locals {
		for lw := 0; lw < c.cfg.WorkersPerNode; lw++ {
			w := c.GlobalWorker(n, lw)
			wg.Add(1)
			go func(n, w int) {
				defer wg.Done()
				fn(n, w)
			}(n, w)
		}
	}
	wg.Wait()
}

// Err returns the first transport delivery failure (a dead TCP link, a
// malformed frame), or nil. Operations whose messages were lost never
// complete, so long-running deployments should watch Err and abort on
// failure; the simulated network never fails.
func (c *Cluster) Err() error { return c.net.Err() }

// Compute models d of worker computation through the transport's clock: the
// simulated network sleeps precisely via its central scheduler (so the
// computation of many simulated workers overlaps in wall-clock time), real
// transports sleep in wall-clock time. With timing disabled (zero-latency
// test networks), Compute returns immediately.
func (c *Cluster) Compute(d time.Duration) { c.net.Sleep(d) }

// Close shuts down the transport. All server loops reading from inboxes
// observe channel close after in-flight messages drain.
func (c *Cluster) Close() { c.net.Close() }

// Barrier is a reusable cluster-wide barrier for worker threads. The paper's
// algorithms use "a global barrier after each subepoch".
//
// On an all-local cluster it is a plain in-process barrier (the coordinator
// round-trip of the real system costs a handful of messages per epoch,
// negligible next to parameter traffic). When nodes span processes it runs
// the coordinator protocol over msg.Barrier messages instead: the workers of
// each node first rendezvous in process, the last one announces the node's
// arrival to node 0, and once all nodes arrived the coordinator broadcasts a
// release that reopens every node's rendezvous. Enter and release messages
// travel the regular transport (and so cross the wire codec like any other
// message); they are consumed by the server runtime's message loop, which
// hands them to Cluster.HandleBarrier.
type Barrier struct {
	// In-process mode: one rendezvous over all workers.
	total int
	mu    sync.Mutex
	cond  *sync.Cond
	count int
	gen   uint64

	// Distributed mode (net != nil).
	net   transport.Network
	nodes int
	wpn   int
	nb    []*nodeBarrier // indexed by node; nil for non-local nodes

	coordMu  sync.Mutex
	arrivals map[uint32]int // barrier seq -> nodes arrived (node 0 only)
}

// nodeBarrier is the in-process rendezvous of one node's workers.
type nodeBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	count int
	gen   uint32 // completed barrier generations (the protocol's Seq)
}

// NewBarrier returns an in-process barrier for total participants.
func NewBarrier(total int) *Barrier {
	b := &Barrier{total: total}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// newNetBarrier returns a barrier running the distributed protocol for the
// given local nodes.
func newNetBarrier(net transport.Network, nodes, wpn int, locals []int) *Barrier {
	b := &Barrier{
		net:      net,
		nodes:    nodes,
		wpn:      wpn,
		nb:       make([]*nodeBarrier, nodes),
		arrivals: make(map[uint32]int),
	}
	for _, n := range locals {
		nb := &nodeBarrier{}
		nb.cond = sync.NewCond(&nb.mu)
		b.nb[n] = nb
	}
	return b
}

// Wait blocks the calling worker of node until every worker in the cluster
// reached the barrier, then releases them. The barrier is reusable. In
// in-process mode node is ignored.
func (b *Barrier) Wait(node int) {
	if b.net == nil {
		b.mu.Lock()
		defer b.mu.Unlock()
		gen := b.gen
		b.count++
		if b.count == b.total {
			b.count = 0
			b.gen++
			b.cond.Broadcast()
			return
		}
		for gen == b.gen {
			b.cond.Wait()
		}
		return
	}
	nb := b.nb[node]
	if nb == nil {
		panic(fmt.Sprintf("cluster: barrier Wait on non-local node %d", node))
	}
	nb.mu.Lock()
	gen := nb.gen
	nb.count++
	if nb.count == b.wpn {
		// Last local worker of this node: announce the node's arrival
		// to the coordinator. The send happens under nb.mu, before any
		// release for gen can bump nb.gen.
		nb.count = 0
		b.net.Send(node, 0, &msg.Barrier{Enter: true, Seq: gen, Worker: int32(node)})
	}
	for gen == nb.gen {
		nb.cond.Wait()
	}
	nb.mu.Unlock()
}

// handle processes one barrier protocol message at a local node.
func (b *Barrier) handle(node int, m *msg.Barrier) {
	if b.net == nil {
		panic("cluster: barrier message on an all-local cluster")
	}
	if m.Enter {
		// Coordinator: count node arrivals per barrier sequence.
		if node != 0 {
			panic(fmt.Sprintf("cluster: barrier enter reached node %d", node))
		}
		b.coordMu.Lock()
		b.arrivals[m.Seq]++
		full := b.arrivals[m.Seq] == b.nodes
		if full {
			delete(b.arrivals, m.Seq)
		}
		b.coordMu.Unlock()
		if full {
			for dst := 0; dst < b.nodes; dst++ {
				b.net.Send(0, dst, &msg.Barrier{Enter: false, Seq: m.Seq})
			}
		}
		return
	}
	// Release at this node: reopen its rendezvous for the next round.
	nb := b.nb[node]
	if nb == nil {
		return
	}
	nb.mu.Lock()
	if nb.gen == m.Seq {
		nb.gen++
		nb.cond.Broadcast()
	}
	nb.mu.Unlock()
}
