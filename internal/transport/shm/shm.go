// Package shm implements transport.Network over lock-free shared-memory
// rings for co-located processes. Where the tcp transport pays framing
// copies, kernel socket buffers, and at least one syscall per coalesced
// batch, this transport writes the pooled msg encode buffers straight into a
// mmap-ed single-producer single-consumer ring — no re-encode, no kernel
// round-trip on the hot path — and parks idle peers on doorbell FIFOs read
// through the runtime netpoller, so waiting costs no CPU and no P (see
// ring.go for the wakeup protocol).
//
// Topology: one segment file per directed (src, dst) link, created by the
// receiving instance under Config.Dir and opened by the sender, holding one
// ring. The ring is strictly SPSC (the link's one producer, the link's one
// consumer goroutine) and a FIFO, so the link's frames arrive in send order,
// and per-(link, shard) FIFO holds by construction. The consumer decodes each
// frame and the Host finds its shard (msg.ShardOf), as for the tcp reader, so
// a process runs one consumer per incoming link whatever the shard count,
// with one spin budget and one doorbell each.
//
// Sending: the sender encodes into a pooled buffer (msg.GetBuf) and, when
// the link's writer goroutine is idle, copies the frame into the ring inline
// without any goroutine hop. Only when the ring fills does the writer
// goroutine take over, blocking on ring space so callers never do.
//
// Deployments mix transports: Config.UseRing marks which destinations are
// ring-reachable (co-located); traffic to other nodes flows through
// Config.Fallback, a tcp transport whose transport.Host this network shares:
// tcp readers and ring consumers deliver into the same inboxes and count into
// the same counters, so consumers see one inbox per (node, shard). If a ring
// cannot be established at all (peer missing, unsupported platform), the
// link falls back to TCP as a unit — before its first ring frame — so the
// link's stream stays on a single FIFO path for its whole life.
package shm

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lapse/internal/msg"
	"lapse/internal/transport"
	"lapse/internal/transport/tcp"
)

// Config parameterizes a shared-memory transport instance.
type Config struct {
	// Dir is the directory holding the ring files. All co-located instances
	// of a deployment must agree on it. Prefer a tmpfs (e.g. /dev/shm).
	Dir string
	// Nodes is the cluster-wide node count.
	Nodes int
	// Local lists the node indices hosted by this process; nil hosts all.
	Local []int
	// Shards is the per-node inbox shard count (default 1). Every process
	// must use the same value; a sender refuses a segment made for another.
	Shards int
	// DialTimeout is the total budget for a sender to find a peer's ring
	// file (default 10s; covers peers that start slightly later).
	DialTimeout time.Duration
	// DrainTimeout bounds how long Close waits for in-flight traffic from
	// peers that have not closed yet (default 2s).
	DrainTimeout time.Duration
	// MaxMessage bounds the encoded frame size. 0 means the ring's natural
	// cap (half of DefaultRingSize, so a frame always fits); larger values
	// grow the ring to admit them (RingSizeFor). Every process must use the
	// same value.
	MaxMessage int
	// UseRing marks which destination nodes are ring-reachable
	// (co-located). Nil means all. Non-ring destinations require Fallback.
	UseRing []bool
	// Fallback carries traffic to non-ring destinations and receives from
	// non-ring sources. It must host the same Nodes, Shards and Local set;
	// this network shares its inboxes and counters. It is owned by this
	// network once New succeeds: Close closes it.
	Fallback *tcp.Network
}

// busyPoll is how long a link's consumer spins for the next frame after
// processing one before parking on the doorbell, keeping mid-burst latency
// in the sub-microsecond range — when a spare CPU exists: on a single-CPU
// host spinning only steals the producer's time slice, and consumers park
// at once.
const busyPoll = 50 * time.Microsecond

type linkKey struct{ src, dst int }

// Network is a shared-memory-ring cluster transport.
type Network struct {
	*transport.Host // the Fallback's when one is set
	cfg             Config
	ringSize        uint64
	frameCap        int
	spin            time.Duration // busyPoll, or 0 on a single-CPU host
	ringTo          []bool
	segs            map[linkKey]*segment // consumer side, created at New

	linkMu sync.Mutex
	links  map[linkKey]*link

	closed    atomic.Bool
	closeOnce sync.Once
	done      chan struct{}
	drainBy   atomic.Int64 // unix nanos; 0 until Close starts the drain

	consWg  sync.WaitGroup // one per incoming link's consumer
	writeWg sync.WaitGroup
}

// New creates a shared-memory transport hosting cfg.Local (all nodes when
// nil). It creates and maps every incoming segment before returning, so a
// peer that opens them immediately afterwards cannot miss us, and starts one
// consumer per incoming link. Outgoing segments are opened lazily on first
// Send.
func New(cfg Config) (*Network, error) {
	if !Supported() {
		return nil, errors.New("shm: platform not supported")
	}
	if cfg.Dir == "" {
		return nil, errors.New("shm: Dir is required")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 2 * time.Second
	}
	if cfg.UseRing != nil && len(cfg.UseRing) != cfg.Nodes {
		return nil, fmt.Errorf("shm: UseRing has %d entries for %d nodes", len(cfg.UseRing), cfg.Nodes)
	}
	ringSize := uint64(RingSizeFor(cfg.MaxMessage))
	frameCap := maxFrameFor(ringSize)
	if cfg.MaxMessage > 0 && cfg.MaxMessage < frameCap {
		frameCap = cfg.MaxMessage
	}
	var h *transport.Host
	if fb := cfg.Fallback; fb != nil {
		if err := fb.Matches(cfg.Nodes, cfg.Shards, cfg.Local); err != nil {
			return nil, fmt.Errorf("shm: Fallback hosts %w", err)
		}
		h = fb.Host
	} else {
		var err error
		if h, err = transport.NewHost(cfg.Nodes, cfg.Shards, cfg.Local, 0); err != nil {
			return nil, fmt.Errorf("shm: %w", err)
		}
	}
	n := &Network{
		Host:     h,
		cfg:      cfg,
		ringSize: ringSize,
		frameCap: frameCap,
		ringTo:   make([]bool, cfg.Nodes),
		segs:     make(map[linkKey]*segment),
		links:    make(map[linkKey]*link),
		done:     make(chan struct{}),
	}
	if runtime.GOMAXPROCS(0) > 1 {
		n.spin = busyPoll
	}
	for i := range n.ringTo {
		n.ringTo[i] = cfg.UseRing == nil || cfg.UseRing[i] || n.Local(i)
	}
	if cfg.Fallback == nil {
		for i, ok := range n.ringTo {
			if !ok {
				return nil, fmt.Errorf("shm: node %d is not ring-reachable and no Fallback is set", i)
			}
		}
	}
	if err := os.MkdirAll(cfg.Dir, 0o700); err != nil {
		return nil, fmt.Errorf("shm: ring dir: %w", err)
	}
	// Create every incoming segment: one per (ring-reachable src, local
	// dst). Sources that never send cost only a sparse file.
	for dst := 0; dst < cfg.Nodes; dst++ {
		if !n.Local(dst) {
			continue
		}
		for src := 0; src < cfg.Nodes; src++ {
			if !n.ringTo[src] {
				continue // that peer will reach us over the fallback
			}
			s, err := createSegment(cfg.Dir, src, dst, n.Shards(), ringSize)
			if err != nil {
				n.releaseSegments()
				return nil, fmt.Errorf("shm: create segment %d->%d: %w", src, dst, err)
			}
			n.segs[linkKey{src, dst}] = s
		}
	}
	for key, s := range n.segs {
		n.consWg.Add(1)
		go n.consume(s, key.src, key.dst)
	}
	return n, nil
}

func (n *Network) releaseSegments() {
	for _, s := range n.segs {
		s.close()
	}
}

// RingTo reports whether traffic to node rides a shared-memory ring; false
// means sends to it fall back to the underlying transport (TCP). Observability
// layers record the fallback links in the control-plane trace.
func (n *Network) RingTo(node int) bool { return node >= 0 && node < len(n.ringTo) && n.ringTo[node] }

// Send encodes m and writes it onto the (src, dst) ring — inline when
// the link's writer is idle — or routes it through the TCP fallback for
// non-ring destinations. src must be local.
func (n *Network) Send(src, dst int, m any) {
	n.CheckSend(src, dst)
	if !n.ringTo[dst] {
		n.cfg.Fallback.Send(src, dst, m)
		return
	}
	bp := msg.GetBuf()
	*bp = msg.AppendTo(*bp, m)
	if len(*bp) > n.frameCap {
		n.Fail(fmt.Errorf("shm: message %T of %d bytes exceeds ring frame cap %d", m, len(*bp), n.frameCap))
		n.Drop(1)
		msg.PutBuf(bp)
		return
	}
	l := n.getLink(src, dst)
	if l == nil {
		n.Drop(1)
		msg.PutBuf(bp)
		return
	}
	l.send(bp)
}

// Close flushes outgoing links into their rings, marks them closed for the
// peers, waits — bounded by DrainTimeout — for in-flight incoming traffic,
// closes the inboxes (by closing the fallback, which shares them, once its
// own readers are done) and removes this instance's ring files. Idempotent
// and safe concurrently with Send.
func (n *Network) Close() {
	n.closeOnce.Do(func() {
		n.closed.Store(true)
		close(n.done)
		// Flush outgoing first so messages sent just before Close are
		// delivered: each writer drains its queue into its ring (bounded
		// by DrainTimeout against a stalled consumer) and then sets the
		// segment's closed flag for the peer's drain. getLink checks closed
		// under linkMu, so no link is added behind this loop.
		n.linkMu.Lock()
		for _, l := range n.links {
			l.close()
		}
		n.linkMu.Unlock()
		n.writeWg.Wait()
		// Bounded drain of incoming links: a consumer exits once its ring
		// is empty and the producer detached (or never attached: a link
		// from a local source whose writer never started), or when the
		// drain budget for laggard peers expires.
		n.drainBy.Store(time.Now().Add(n.cfg.DrainTimeout).UnixNano())
		for _, s := range n.segs {
			s.wakeConsumer()
		}
		n.consWg.Wait()
		if fb := n.cfg.Fallback; fb != nil {
			fb.Close() // flushes fallback traffic, then closes the shared inboxes
		} else {
			n.CloseInboxes()
		}
		n.releaseSegments()
		for _, l := range n.links { // no writer is left to use them
			if l.seg != nil && !n.Local(l.dst) {
				l.seg.close()
			}
		}
		os.Remove(n.cfg.Dir) // succeeds only for whoever removes the last segment
	})
}

// drained reports whether the link s will bring nothing more for Close's
// drain: its producer detached or never attached, or the drain budget is
// spent. Read before a look that then finds the ring empty, a true answer
// means the consumer has seen every frame: the producer publishes its last
// frames before it sets closed.
func (n *Network) drained(s *segment) bool {
	by := n.drainBy.Load()
	return by != 0 && (s.producerDone() || !s.everAttached() || time.Now().UnixNano() > by)
}

// getLink returns the outgoing link for (src, dst), creating it — and its
// writer goroutine — on first use. Returns nil after Close.
func (n *Network) getLink(src, dst int) *link {
	key := linkKey{src, dst}
	n.linkMu.Lock()
	defer n.linkMu.Unlock()
	if n.closed.Load() {
		return nil
	}
	l, ok := n.links[key]
	if !ok {
		l = &link{n: n, src: src, dst: dst}
		l.cond = sync.NewCond(&l.mu)
		n.links[key] = l
		n.writeWg.Add(1)
		go l.run()
	}
	return l
}

// consume is the consumer goroutine of one incoming link: it takes the
// link's frames in ring order and delivers each through the Host. The frame's
// shard handles it on this goroutine when the shard is idle (DeliverInline)
// and otherwise gets it through its inbox. Frames are delivered one call
// after the other: per-(link, shard) FIFO.
func (n *Network) consume(s *segment, src, dst int) {
	defer n.consWg.Done()
	productive := false // spin only when frames were just flowing
	for {
		done := n.drained(s)
		frame, err := s.peek()
		if err != nil {
			n.Fail(err)
			return
		}
		if frame == nil {
			switch {
			case done:
				return
			case productive && n.drainBy.Load() == 0:
				productive = false
				s.waitData(n.spin)
			default:
				s.waitData(0)
			}
			continue
		}
		productive = true
		sc := msg.GetScratch()
		m, _, err := sc.Decode(frame)
		if err != nil {
			sc.Release()
			n.Fail(fmt.Errorf("shm: malformed frame on ring %d->%d: %w", src, dst, err))
			return
		}
		// The scratch decode copied every byte out of the ring, so release
		// the slot before delivery: the producer unblocks sooner.
		s.advance(len(frame))
		n.DeliverInline(transport.Envelope{Src: src, Dst: dst, Msg: m, Scratch: sc}, n.done)
	}
}

// link is the sending half of one directed ring-reachable node pair. It has
// two producer modes that never overlap: while the writer goroutine is idle
// (direct == true, queue empty), senders copy frames into the ring inline
// under mu — the common, goroutine-hop-free path; when the ring fills or
// frames queue up, the writer goroutine is the sole producer until the
// queue drains. Both modes serialize under mu, so the ring keeps exactly
// one producer at a time and stays SPSC.
type link struct {
	n        *Network
	src, dst int

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*[]byte // pooled encode buffers; whoever dequeues one returns it
	seg    *segment  // set once opened
	direct bool      // writer idle: senders may write inline
	viaTCP bool      // ring establishment failed; frames flow via Fallback
	closed bool
	dead   bool

	// flushBy (unix nanos, 0 = none) bounds ring writes once teardown
	// starts. It is atomic so a writer already blocked on a full ring
	// observes it at its next park without taking mu.
	flushBy atomic.Int64
}

// send hands one encoded frame to the link. Ownership of bp transfers.
func (l *link) send(bp *[]byte) {
	l.mu.Lock()
	if l.closed || l.dead {
		l.mu.Unlock()
		l.n.Drop(1)
		msg.PutBuf(bp)
		return
	}
	if l.viaTCP {
		l.mu.Unlock()
		l.n.cfg.Fallback.SendEncoded(l.src, l.dst, bp)
		return
	}
	if l.direct {
		if l.seg.tryWrite(*bp) {
			size := len(*bp)
			l.mu.Unlock()
			l.n.Sent(l.src, l.dst, size)
			msg.PutBuf(bp)
			return
		}
		// Ring full: hand producership to the writer, which may block.
		l.direct = false
	}
	l.queue = append(l.queue, bp)
	l.cond.Signal()
	l.mu.Unlock()
}

// close tells the writer to flush remaining frames into the ring — bounded
// by DrainTimeout against a stalled consumer — and mark them closed.
func (l *link) close() {
	l.flushBy.Store(time.Now().Add(l.n.cfg.DrainTimeout).UnixNano())
	l.mu.Lock()
	l.closed = true
	l.cond.Signal()
	l.mu.Unlock()
}

// flushDeadline is the re-evaluated bound handed to blocking ring writes.
func (l *link) flushDeadline() time.Time {
	if v := l.flushBy.Load(); v != 0 {
		return time.Unix(0, v)
	}
	return time.Time{}
}

// die marks the link failed and discards queued frames.
func (l *link) die(err error) {
	l.n.Fail(fmt.Errorf("shm: link %d->%d: %w", l.src, l.dst, err))
	l.mu.Lock()
	l.dead = true
	dropped := l.queue
	l.queue = nil
	l.mu.Unlock()
	for _, bp := range dropped {
		msg.PutBuf(bp)
	}
	l.n.Drop(len(dropped))
}

// run is the link's writer goroutine: open the link's segment (falling back
// to TCP as a unit if it cannot be established), then serve as the blocking
// producer whenever senders outrun the consumer.
func (l *link) run() {
	defer l.n.writeWg.Done()
	seg, err := l.open()
	if err != nil {
		if l.n.cfg.Fallback != nil {
			l.fallbackToTCP()
			return
		}
		l.die(err)
		return
	}
	l.mu.Lock()
	l.seg = seg
	for {
		for len(l.queue) == 0 && !l.closed {
			l.direct = true
			l.cond.Wait()
		}
		l.direct = false
		batch := l.queue
		l.queue = nil
		closed := l.closed
		l.mu.Unlock()
		for i, bp := range batch {
			if !seg.write(*bp, l.flushDeadline) {
				// Flush deadline expired mid-teardown: drop the remainder.
				for _, rest := range batch[i:] {
					msg.PutBuf(rest)
				}
				l.n.Drop(len(batch) - i)
				seg.detach()
				return
			}
			l.n.Sent(l.src, l.dst, len(*bp))
			msg.PutBuf(bp)
		}
		l.mu.Lock()
		if closed && len(l.queue) == 0 {
			l.mu.Unlock()
			seg.detach()
			return
		}
	}
}

// open resolves the link's segment: the shared in-process object for a local
// destination, the peer's mmap-ed file otherwise.
func (l *link) open() (*segment, error) {
	n := l.n
	if n.Local(l.dst) {
		s := n.segs[linkKey{l.src, l.dst}]
		s.markAttached()
		return s, nil
	}
	return openSegment(n.cfg.Dir, l.src, l.dst, n.Shards(), n.ringSize, time.Now().Add(n.cfg.DialTimeout), n.done)
}

// fallbackToTCP forwards everything queued so far to the TCP fallback in
// order, then flips the link to direct TCP sends. No ring frame was ever
// written, so the link's whole history rides one FIFO path.
func (l *link) fallbackToTCP() {
	fb := l.n.cfg.Fallback
	for {
		l.mu.Lock()
		if len(l.queue) == 0 {
			l.viaTCP = true
			l.mu.Unlock()
			return
		}
		batch := l.queue
		l.queue = nil
		l.mu.Unlock()
		for _, bp := range batch {
			fb.SendEncoded(l.src, l.dst, bp)
		}
	}
}

var _ transport.Network = (*Network)(nil)
