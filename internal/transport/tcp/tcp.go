// Package tcp implements transport.Network over real TCP sockets, so a
// cluster can run as multiple OS processes — the deployment mode of the
// paper's actual system (ZeroMQ over TCP) — or as one process exercising
// real loopback connections.
//
// Wire protocol: each directed (src, dst) node pair uses one TCP connection,
// dialed lazily by the sender. A connection starts with a 12-byte handshake
// [magic][src][dst] (little endian uint32s) and then carries a stream of
// messages encoded with the internal/msg codec, whose [kind][payloadLen]
// header makes every frame self-delimiting. A link has two modes. While its
// writer goroutine is idle, Send writes the frame itself with one
// non-blocking write; whatever the socket does not take at once is queued,
// and the writer goroutine, which then owns the socket until the queue is
// empty again, writes all frames queued so far with one writev. So Send never
// blocks on the peer, and a stream of frames still goes out in batches. A
// single reader goroutine per accepted connection preserves arrival order
// into the destination inbox. Together with TCP's in-order delivery this
// gives the per-link FIFO guarantee the consistency proofs assume.
//
// A Network instance hosts the nodes listed in Config.Local (all nodes when
// nil, which runs a whole cluster over loopback sockets in one process).
// Each local node listens on its configured address; peer addresses may use
// port 0 placeholders and be learned later through SetAddr, which the tests
// use to wire several in-process instances together.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lapse/internal/msg"
	"lapse/internal/transport"
)

const (
	handshakeMagic = 0x4C505345 // "LPSE"
	handshakeBytes = 12
	headerBytes    = 5 // the msg codec's kind + payload length prefix
)

// Config parameterizes a TCP transport instance.
type Config struct {
	// Addrs is the listen address of every cluster node (the cluster size
	// is len(Addrs)). Local nodes may use ":0" to pick a free port;
	// non-local entries must be dialable or set later via SetAddr.
	Addrs []string
	// Local lists the node indices hosted by this process. Nil hosts all
	// nodes (single-process loopback deployment).
	Local []int
	// Shards is the number of per-node inbox shards (default 1). The Host
	// puts each decoded frame on its msg.ShardOf inbox, preserving FIFO per
	// (connection, shard). Every process of a deployment must use the
	// same value, like the node count.
	Shards int
	// InboxSize bounds each local node's total inbox capacity (default
	// 1<<16), divided evenly across its Shards inbox channels so memory
	// and backpressure stay constant as the shard count grows.
	InboxSize int
	// DialTimeout is the total retry budget for establishing one outgoing
	// link (default 10s); it covers peers that start slightly later.
	DialTimeout time.Duration
	// DrainTimeout bounds how long Close waits for in-flight incoming
	// traffic from peers that have not closed yet (default 2s).
	DrainTimeout time.Duration
	// MaxMessage bounds the accepted frame payload size (default 64 MiB),
	// protecting against corrupt length prefixes: the length is validated
	// before any buffer grows to hold the frame.
	MaxMessage int
}

const (
	// readBuffer is the per-connection read slab size. One kernel read fills
	// the slab with as many frames as are available, and the decode loop
	// consumes them without further syscalls; the slab grows only for single
	// frames larger than it (after MaxMessage validation).
	readBuffer = 64 << 10
)

// Network is a TCP-backed cluster transport.
type Network struct {
	*transport.Host
	cfg       Config
	listeners []net.Listener

	addrMu sync.RWMutex
	addrs  []string // effective dial addresses (resolved for local nodes)

	linkMu sync.Mutex
	links  map[linkKey]*link

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	closed    atomic.Bool
	closeOnce sync.Once
	done      chan struct{}

	readWg  sync.WaitGroup // acceptors + per-connection readers
	writeWg sync.WaitGroup // per-link writers
	// selfDialed counts the links this instance opened to its own nodes (dialed
	// and handshake written), selfAccepted those its readers have picked up;
	// Close keeps the listeners open until the two meet.
	selfDialed, selfAccepted atomic.Int64
}

type linkKey struct{ src, dst int }

// New creates a transport hosting cfg.Local (all nodes when nil): it binds
// every local listener before returning, so a peer that dials immediately
// afterwards cannot miss us. Outgoing links are dialed lazily on first Send.
func New(cfg Config) (*Network, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("tcp: no node addresses")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 2 * time.Second
	}
	if cfg.MaxMessage <= 0 {
		cfg.MaxMessage = 64 << 20
	}
	h, err := transport.NewHost(len(cfg.Addrs), cfg.Shards, cfg.Local, cfg.InboxSize)
	if err != nil {
		return nil, fmt.Errorf("tcp: %w", err)
	}
	n := &Network{
		Host:      h,
		cfg:       cfg,
		listeners: make([]net.Listener, len(cfg.Addrs)),
		addrs:     append([]string(nil), cfg.Addrs...),
		links:     make(map[linkKey]*link),
		conns:     make(map[net.Conn]struct{}),
		done:      make(chan struct{}),
	}
	for node := range cfg.Addrs {
		if !n.Local(node) {
			continue
		}
		ln, err := net.Listen("tcp", cfg.Addrs[node])
		if err != nil {
			for _, l := range n.listeners {
				if l != nil {
					l.Close()
				}
			}
			return nil, fmt.Errorf("tcp: node %d listen on %s: %w", node, cfg.Addrs[node], err)
		}
		n.listeners[node] = ln
		n.addrs[node] = ln.Addr().String()
		n.readWg.Add(1)
		go n.acceptLoop(ln)
	}
	return n, nil
}

// Addr returns the effective address of node: the actual listen address for
// local nodes (resolving ":0"), the configured or SetAddr-provided dial
// address otherwise.
func (n *Network) Addr(node int) string {
	n.addrMu.RLock()
	defer n.addrMu.RUnlock()
	return n.addrs[node]
}

// SetAddr late-binds the dial address of a non-local peer. It must be called
// before the first Send to that node; tests use it to wire several
// in-process instances whose listeners picked their own ports.
func (n *Network) SetAddr(node int, addr string) {
	n.addrMu.Lock()
	defer n.addrMu.Unlock()
	n.addrs[node] = addr
}

// Send encodes m through the msg codec and hands it to the (src, dst) link,
// which writes it inline or queues it; it never waits on the peer. src must
// be local. Sends after Close — or on a link whose connection failed — are
// dropped and counted in Dropped, mirroring writes on a closing connection.
func (n *Network) Send(src, dst int, m any) {
	bp := msg.GetBuf()
	*bp = msg.AppendTo(*bp, m)
	n.SendEncoded(src, dst, bp)
}

// SendEncoded sends an already-encoded frame — a pooled msg buffer whose
// ownership transfers to the transport — on the (src, dst) link. The shm
// transport uses it to fall back to TCP without re-encoding. It applies the
// same validation, drop accounting, and traffic counting as Send.
func (n *Network) SendEncoded(src, dst int, bp *[]byte) {
	n.CheckSend(src, dst)
	if len(*bp) > n.cfg.MaxMessage {
		// Reject on the sender: the receiver would treat the frame as
		// corruption and kill the whole link.
		n.Fail(fmt.Errorf("tcp: frame of %d bytes exceeds MaxMessage %d", len(*bp), n.cfg.MaxMessage))
		n.Drop(1)
		msg.PutBuf(bp)
		return
	}
	size := len(*bp)
	l := n.getLink(src, dst)
	if l == nil || !l.enqueue(bp) {
		n.Drop(1)
		msg.PutBuf(bp)
		return
	}
	n.Sent(src, dst, size)
}

// Close flushes and closes all outgoing links, stops the listeners once every
// link to a local node has been accepted, waits for in-flight incoming traffic
// — each wait bounded by DrainTimeout — then closes the local inboxes. It is
// idempotent and safe to call concurrently with Send.
func (n *Network) Close() {
	n.closeOnce.Do(func() {
		n.closed.Store(true)
		close(n.done)
		// Flush outgoing traffic first: links drain their queues (links
		// still mid-dial get a bounded budget to connect), so messages
		// sent just before Close are delivered, not dropped. Only then
		// stop accepting. getLink checks closed under linkMu, so no link
		// is added behind this loop.
		n.linkMu.Lock()
		for _, l := range n.links {
			l.close()
		}
		n.linkMu.Unlock()
		n.writeWg.Wait()
		// A link to one of our own nodes can be dialed, written and closed by
		// its writer while the connection still sits in the listener's accept
		// backlog; closing the listener now would discard it with everything it
		// carried. Every such link is counted by now — the writers are done —
		// so keep accepting until each has reached a reader.
		for deadline := time.Now().Add(n.cfg.DrainTimeout); n.selfAccepted.Load() < n.selfDialed.Load() && time.Now().Before(deadline); {
			time.Sleep(50 * time.Microsecond)
		}
		for _, ln := range n.listeners {
			if ln != nil {
				ln.Close()
			}
		}
		// Our own loopback links are flushed and closed now, so local
		// readers will see EOF; bound the wait for remote peers that
		// have not closed their side yet.
		n.connMu.Lock()
		for c := range n.conns {
			c.SetReadDeadline(time.Now().Add(n.cfg.DrainTimeout))
		}
		n.connMu.Unlock()
		n.readWg.Wait()
		n.CloseInboxes()
	})
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

// link is the sending half of one directed node pair over one TCP
// connection. Its two producer modes never overlap: while the writer
// goroutine is parked with an empty queue (direct), senders write inline
// under mu; otherwise they queue, and only the writer writes until it finds
// the queue empty. Queued frames are pooled encode buffers (msg.GetBuf);
// whoever removes a frame from the queue owns returning it with msg.PutBuf
// after the write (or on discard).
type link struct {
	n        *Network
	src, dst int

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*[]byte
	spare  []*[]byte                 // the writer's previous batch, reused as the next queue
	off    int                       // bytes of queue[0] already written inline
	conn   net.Conn                  // set by the writer once dialed
	write  func([]byte) (int, error) // inline write; nil: never direct
	direct bool                      // writer parked: senders write inline
	closed bool
	dead   bool // connection failed; enqueues are dropped
}

// enqueue hands one encoded frame to the link: written inline in direct
// mode, queued otherwise. It reports false when the link no longer accepts
// traffic (closed, failed, or the inline write failed) — the caller then
// still owns the buffer.
func (l *link) enqueue(frame *[]byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.dead {
		return false
	}
	// Wake the writer after the inline write, so it does not wake into a
	// held mutex.
	defer l.cond.Signal()
	if l.direct {
		// One inline write per wakeup of the writer: it re-arms direct mode
		// when it finds the queue empty, and frames sent before then share
		// its next writev.
		l.direct = false
		k, err := l.write(*frame)
		if err != nil {
			l.n.Fail(fmt.Errorf("tcp: link %d->%d: %w", l.src, l.dst, err))
			l.dead = true
			return false
		}
		if k == len(*frame) {
			msg.PutBuf(frame)
			return true
		}
		l.off = k
	}
	l.queue = append(l.queue, frame)
	return true
}

// close tells the writer to flush remaining frames and shut the connection.
// The flush is bounded: a write deadline covers the case of a stalled peer
// whose receive window is full, so Close cannot hang on writeWg.Wait.
func (l *link) close() {
	l.mu.Lock()
	l.closed = true
	if l.conn != nil {
		l.conn.SetWriteDeadline(time.Now().Add(l.n.cfg.DrainTimeout))
	}
	l.cond.Signal()
	l.mu.Unlock()
}

// die marks the link failed and discards queued frames (counted as dropped,
// buffers returned to the pool).
func (l *link) die(err error) {
	l.n.Fail(fmt.Errorf("tcp: link %d->%d: %w", l.src, l.dst, err))
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

// run is the link's writer goroutine: dial (with retries, so peers may start
// later), handshake, then park in direct mode while the queue is empty and
// drain it in batches otherwise — every wakeup writes all frames queued so
// far with one writev, which coalesces bursts into few syscalls while keeping
// the stream strictly FIFO.
func (l *link) run() {
	defer l.n.writeWg.Done()
	conn, err := l.dial()
	if err != nil {
		l.die(err)
		return
	}
	defer conn.Close()
	l.mu.Lock()
	l.conn = conn
	l.write = rawWriter(conn)
	if l.closed {
		// Close ran while we were dialing; apply the bounded-flush
		// deadline it could not set then.
		conn.SetWriteDeadline(time.Now().Add(l.n.cfg.DrainTimeout))
	}
	l.mu.Unlock()
	var hs [handshakeBytes]byte
	binary.LittleEndian.PutUint32(hs[0:4], handshakeMagic)
	binary.LittleEndian.PutUint32(hs[4:8], uint32(l.src))
	binary.LittleEndian.PutUint32(hs[8:12], uint32(l.dst))
	if _, err := conn.Write(hs[:]); err != nil {
		l.die(err)
		return
	}
	if l.n.Local(l.dst) {
		l.n.selfDialed.Add(1)
	}
	// pending keeps its capacity across batches; WriteTo consumes the copy
	// in iov from the front, so writing pending itself would shrink it.
	var pending, iov net.Buffers
	l.mu.Lock()
	for {
		for len(l.queue) == 0 && !l.closed && !l.dead {
			l.direct = l.write != nil
			l.cond.Wait()
		}
		l.direct = false
		if l.dead {
			// An inline write failed and dropped its frame.
			l.mu.Unlock()
			return
		}
		batch, off, closed := l.queue, l.off, l.closed
		l.queue, l.off = l.spare, 0
		l.mu.Unlock()
		if len(batch) > 0 {
			for _, frame := range batch {
				pending = append(pending, *frame)
			}
			pending[0] = pending[0][off:]
			iov = pending
			_, err := iov.WriteTo(conn)
			// The kernel owns copies of the written bytes now, so the pooled
			// encode buffers go back either way.
			for _, frame := range batch {
				msg.PutBuf(frame)
			}
			// Reused slices must not pin buffers the pool has let go.
			clear(batch)
			clear(pending)
			pending = pending[:0]
			if err != nil {
				l.die(err)
				return
			}
		}
		if closed {
			return
		}
		l.mu.Lock()
		l.spare = batch[:0]
	}
}

func (l *link) dial() (net.Conn, error) {
	deadline := time.Now().Add(l.n.cfg.DialTimeout)
	shortened := false
	for {
		l.n.addrMu.RLock()
		addr := l.n.addrs[l.dst]
		l.n.addrMu.RUnlock()
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return conn, nil
		}
		// During teardown, keep retrying only for the drain budget so a
		// vanished peer cannot stall Close for the full dial budget.
		select {
		case <-l.n.done:
			if !shortened {
				shortened = true
				if d := time.Now().Add(l.n.cfg.DrainTimeout); d.Before(deadline) {
					deadline = d
				}
			}
		default:
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// acceptLoop accepts incoming link connections for one local listener.
func (n *Network) acceptLoop(ln net.Listener) {
	defer n.readWg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.connMu.Lock()
		n.conns[conn] = struct{}{}
		n.connMu.Unlock()
		if n.closed.Load() {
			conn.SetReadDeadline(time.Now().Add(n.cfg.DrainTimeout))
		}
		n.readWg.Add(1)
		go n.readLoop(conn)
	}
}

// readLoop decodes one incoming connection's frame stream into the
// destination inbox. EOF is the normal teardown path (the peer flushed and
// closed); errors before EOF are recorded.
//
// The loop reads through one reusable slab: each kernel read fills as much of
// the slab as the socket has buffered — typically many frames per syscall
// under load — and the decode loop then consumes frame after frame from the
// slab without touching the kernel again. The scratch decode copies every
// byte out, so consumed slab space is reusable immediately.
func (n *Network) readLoop(conn net.Conn) {
	defer n.readWg.Done()
	defer func() {
		n.connMu.Lock()
		delete(n.conns, conn)
		n.connMu.Unlock()
		conn.Close()
	}()
	buf := make([]byte, readBuffer)
	start, end := 0, 0
	// fill ensures buf[start:end] holds at least need contiguous bytes,
	// compacting or (for oversized frames, already length-validated) growing
	// the slab first, then reading whatever the socket has — not just need.
	fill := func(need int) error {
		if end-start >= need {
			return nil
		}
		if need > len(buf) {
			next := make([]byte, need)
			copy(next, buf[start:end])
			end -= start
			start = 0
			buf = next
		} else if len(buf)-start < need {
			copy(buf, buf[start:end])
			end -= start
			start = 0
		}
		for end-start < need {
			k, err := conn.Read(buf[end:])
			end += k
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := fill(handshakeBytes); err != nil {
		return
	}
	hs := buf[start : start+handshakeBytes]
	if binary.LittleEndian.Uint32(hs[0:4]) != handshakeMagic {
		n.Fail(fmt.Errorf("tcp: bad handshake magic %#x", binary.LittleEndian.Uint32(hs[0:4])))
		return
	}
	src := int(int32(binary.LittleEndian.Uint32(hs[4:8])))
	dst := int(int32(binary.LittleEndian.Uint32(hs[8:12])))
	start += handshakeBytes
	if src < 0 || src >= n.Nodes() || !n.Local(dst) {
		n.Fail(fmt.Errorf("tcp: handshake for invalid link %d->%d", src, dst))
		return
	}
	if n.Local(src) {
		n.selfAccepted.Add(1)
	}
	for {
		if err := fill(headerBytes); err != nil {
			return // EOF: peer closed; deadline: teardown drain expired
		}
		plen := int(binary.LittleEndian.Uint32(buf[start+1 : start+headerBytes]))
		if plen < 0 || plen > n.cfg.MaxMessage {
			// Validate before fill so a corrupt length prefix cannot make
			// the slab attempt a huge allocation.
			n.Fail(fmt.Errorf("tcp: frame of %d bytes from node %d exceeds limit", plen, src))
			return
		}
		total := headerBytes + plen
		if err := fill(total); err != nil {
			return
		}
		sc := msg.GetScratch()
		m, _, err := sc.Decode(buf[start : start+total])
		start += total
		if err != nil {
			sc.Release()
			n.Fail(fmt.Errorf("tcp: malformed frame from node %d: %w", src, err))
			return
		}
		// This reader delivers the connection's frames sequentially, so the
		// Host's demux keeps order per (connection, shard). An idle shard's
		// handler runs right here (DeliverInline), saving the hop through
		// the inbox and the wake of the shard's loop.
		n.DeliverInline(transport.Envelope{Src: src, Dst: dst, Msg: m, Scratch: sc}, n.done)
	}
}

var _ transport.Network = (*Network)(nil)
