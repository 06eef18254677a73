// Package simnet simulates the cluster network of the paper's testbed in a
// single process. It is one implementation of transport.Network; the other,
// internal/transport/tcp, runs over real sockets. Like every transport,
// simnet moves messages through the wire codec of internal/msg: Send encodes
// and the receiver observes a decoded copy, so sender and receiver can never
// alias the same message memory even though both live in one process.
//
// The network consists of one directed link per ordered node pair. Each link
// delivers messages in FIFO order — the property the paper's consistency
// proofs assume of TCP ("we assume that the network layer preserves message
// order") — and models transmission as
//
//	deliver(i) = max(deliver(i-1), send(i) + Latency) + Bytes(i)/Bandwidth
//
// i.e. a fixed one-way propagation latency plus serialization delay on the
// sender's link. Intra-node messages (src == dst) model the inter-process
// communication path of PS-Lite and travel over a loopback link with a
// (much smaller, but non-zero) LoopbackLatency; Lapse-style shared-memory
// access bypasses the network entirely and is not represented here.
//
// Delivery uses real wall-clock time, so latency hiding, pipelining and
// contention emerge naturally and epoch measurements made by the harness are
// directly comparable across parameter-server variants. Because operating
// systems only honour sleeps of roughly a millisecond, all timed events
// (message deliveries and Sleep calls) are driven by one central scheduler
// goroutine that sleeps coarsely while the next event is far away and
// spin-waits (yielding) once it is close, achieving microsecond-scale
// precision with at most one busy core.
//
// Sleep doubles as the simulation's virtual-compute primitive: a worker that
// "computes" by sleeping releases the CPU, so the waits of many simulated
// workers overlap even on a single-core host — which is how distributed
// speedups remain observable in wall-clock time regardless of host
// parallelism.
package simnet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lapse/internal/msg"
	"lapse/internal/transport"
)

// Config parameterizes a simulated network.
type Config struct {
	// Nodes is the number of cluster nodes.
	Nodes int
	// Shards is the number of per-node inbox shards (default 1). The Host
	// puts each delivered message on its msg.ShardOf inbox, preserving FIFO
	// per (link, shard); the server runtime runs one message loop per shard.
	Shards int
	// Latency is the one-way propagation delay between distinct nodes.
	// Zero disables timed delivery (messages are delivered immediately,
	// FIFO order still guaranteed); used by unit tests.
	Latency time.Duration
	// LoopbackLatency is the delay of node-local (IPC) messages.
	LoopbackLatency time.Duration
	// BytesPerSecond is the link bandwidth; 0 means infinite.
	BytesPerSecond float64
}

// DefaultTestbed mirrors the paper's cluster: 10 GBit Ethernet with ~100 µs
// one-way latency, and an IPC loopback far faster than the network but far
// slower than shared memory (the paper measures shared memory 47–91× faster
// than PS-Lite's local access paths).
func DefaultTestbed(nodes int) Config {
	return Config{
		Nodes:           nodes,
		Latency:         100 * time.Microsecond,
		LoopbackLatency: 2 * time.Microsecond,
		BytesPerSecond:  1.25e9, // 10 GBit/s
	}
}

// event is a scheduled occurrence: a message delivery or a sleeper wakeup.
type event struct {
	at  time.Time
	seq uint64
	// Delivery events carry env; wakeups carry ch.
	env transport.Envelope
	ch  chan struct{}
}

// before orders events by due time, ties broken by scheduling order.
func (e *event) before(o *event) bool {
	if e.at.Equal(o.at) {
		return e.seq < o.seq
	}
	return e.at.Before(o.at)
}

// eventHeap is a binary min-heap of events with hand-written sift
// operations: container/heap's interface-based Push/Pop would box every
// event into an `any`, allocating twice per scheduled delivery on the
// network's hottest path.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s[i].before(&s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = event{} // release channel/envelope references
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(s) && s[l].before(&s[least]) {
			least = l
		}
		if r < len(s) && s[r].before(&s[least]) {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

// Network is a simulated cluster network. Send, Sleep and Inbox are safe for
// concurrent use. It hosts every node of the cluster in this process.
type Network struct {
	*transport.Host
	cfg Config

	schedMu   sync.Mutex
	events    eventHeap
	seq       uint64
	last      []time.Time // [src*nodes+dst]: due time of the link's latest delivery
	wake      chan struct{}
	stopped   bool
	schedDone chan struct{}

	sendMu sync.RWMutex
	closed atomic.Bool

	sleepEnabled bool
}

// New creates a network with cfg and starts its delivery scheduler.
func New(cfg Config) *Network {
	h, err := transport.NewHost(cfg.Nodes, cfg.Shards, nil, 0)
	if err != nil {
		panic(fmt.Sprintf("simnet: %v", err))
	}
	n := &Network{
		Host:         h,
		cfg:          cfg,
		last:         make([]time.Time, cfg.Nodes*cfg.Nodes),
		wake:         make(chan struct{}, 1),
		schedDone:    make(chan struct{}),
		sleepEnabled: cfg.Latency > 0 || cfg.LoopbackLatency > 0 || cfg.BytesPerSecond > 0,
	}
	go n.scheduler()
	return n
}

// Send transmits m from src to dst. The message crosses the simulated wire
// through the msg codec: it is encoded here and the receiver gets a freshly
// decoded copy, never the sender's pointer — so mutating m (or its slices)
// after Send cannot affect the receiver, exactly as on a real network. The
// encoded length feeds the bandwidth model and the traffic counters.
//
// Messages sent after Close are dropped (reported by Dropped), mirroring
// sends on a closing TCP connection; this lets server loops answer their
// final in-flight messages during teardown.
func (n *Network) Send(src, dst int, m any) {
	bp := msg.GetBuf()
	buf := msg.AppendTo(*bp, m)
	*bp = buf
	sc := msg.GetScratch()
	copied, _, err := sc.Decode(buf)
	if err != nil {
		panic(fmt.Sprintf("simnet: message %T does not round-trip: %v", m, err))
	}
	// The decode copied every byte out of the encode buffer, so it goes
	// back to the pool before delivery (poisoned in poison mode).
	msg.PutBuf(bp)
	if err := msg.CheckShardPure(copied, n.Shards()); err != nil {
		// The simulated network is the testing transport: a batching bug
		// that mixes shards in one key-addressed message fails loudly here
		// instead of corrupting per-shard server state.
		panic(fmt.Sprintf("simnet: %v", err))
	}
	bytes := len(buf)

	n.sendMu.RLock()
	defer n.sendMu.RUnlock()
	if n.closed.Load() {
		sc.Release()
		n.Drop(1)
		return
	}
	n.Sent(src, dst, bytes)

	env := transport.Envelope{Src: src, Dst: dst, Msg: copied, Scratch: sc}
	if !n.sleepEnabled {
		n.Deliver(env, nil)
		return
	}
	lat, serial := n.cfg.Latency, time.Duration(0)
	if src == dst {
		lat = n.cfg.LoopbackLatency
	} else if n.cfg.BytesPerSecond > 0 {
		// Bandwidth serialization applies to network links only: loopback
		// (IPC) moves data at memory speed.
		serial = time.Duration(float64(bytes) / n.cfg.BytesPerSecond * float64(time.Second))
	}
	n.schedule(event{at: time.Now().Add(lat), env: env}, &n.last[src*n.cfg.Nodes+dst], serial)
}

// Sleep blocks the caller for precisely d, driven by the central scheduler.
// It is the simulation's virtual-compute primitive: sleeping workers release
// the CPU, so concurrent simulated computation overlaps even on one core.
// With timing disabled (all-zero Config), Sleep returns immediately.
func (n *Network) Sleep(d time.Duration) {
	if !n.sleepEnabled || d <= 0 || n.closed.Load() {
		return
	}
	ch := make(chan struct{})
	n.schedule(event{at: time.Now().Add(d), ch: ch}, nil, 0)
	<-ch
}

// schedule queues e for its due time. A delivery passes its link's last due
// time and its serialization delay: under schedMu it is then due no earlier
// than the link's previous delivery plus serial, and gets a later sequence
// number, so a link's deliveries fire in send order (per-link FIFO).
func (n *Network) schedule(e event, last *time.Time, serial time.Duration) {
	n.schedMu.Lock()
	if last != nil {
		if e.at.Before(*last) {
			e.at = *last
		}
		e.at = e.at.Add(serial)
		*last = e.at
	}
	if n.stopped {
		n.schedMu.Unlock()
		// A wakeup after Close (Close shuts Send out before it stops the
		// scheduler, so no delivery gets here): complete it at once.
		n.fire(e)
		return
	}
	n.seq++
	e.seq = n.seq
	n.events.push(e)
	n.schedMu.Unlock()
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

func (n *Network) fire(e event) {
	if e.ch != nil {
		close(e.ch)
		return
	}
	n.Deliver(e.env, nil)
}

// scheduler is the single delivery goroutine: it sleeps coarsely while the
// next event is far away and spin-waits (with yields) when it is near, so
// event times are honoured at microsecond granularity despite the kernel's
// millisecond sleep floor.
func (n *Network) scheduler() {
	defer close(n.schedDone)
	const spinHorizon = 3 * time.Millisecond
	// One timer for every coarse sleep: since Go 1.23, Reset leaves no stale
	// tick in its channel, so a wait cut short by wake needs no Stop.
	timer := time.NewTimer(time.Hour)
	sleep := func(d time.Duration) {
		timer.Reset(d)
		select {
		case <-n.wake:
		case <-timer.C:
		}
	}
	for {
		n.schedMu.Lock()
		if len(n.events) == 0 {
			stopped := n.stopped
			n.schedMu.Unlock()
			if stopped {
				return
			}
			sleep(10 * time.Millisecond)
			continue
		}
		next := n.events[0].at
		now := time.Now()
		// Once stopped, every event is due: Close waits for the rest to
		// fire, in heap (time) order and after the one this loop fired last.
		if n.stopped || !now.Before(next) {
			e := n.events.pop()
			n.schedMu.Unlock()
			n.fire(e)
			continue
		}
		d := next.Sub(now)
		n.schedMu.Unlock()
		if d > spinHorizon {
			sleep(d - spinHorizon + time.Millisecond)
			continue
		}
		// Near: yield-spin until due (or an earlier event arrives).
		runtime.Gosched()
	}
}

// Close drains all in-flight messages and closes every inbox. It must be
// called only when no goroutine will Send anymore; receivers observe channel
// close after the last in-flight message.
func (n *Network) Close() {
	n.sendMu.Lock()
	swapped := n.closed.CompareAndSwap(false, true)
	n.sendMu.Unlock()
	if !swapped {
		return
	}
	// The scheduler alone delivers what is in flight: once stopped it fires
	// the remaining events at once, in order, then exits. Delivering them
	// here instead could overtake the event it is firing.
	n.schedMu.Lock()
	n.stopped = true
	n.schedMu.Unlock()
	select {
	case n.wake <- struct{}{}:
	default:
	}
	<-n.schedDone
	n.CloseInboxes()
}

var _ transport.Network = (*Network)(nil)
