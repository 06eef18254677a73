package shm

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// A segment is the shared mapping of one directed (src, dst) link: a link
// control page followed by one ring per shard, in one mmap-ed file shared by
// the two processes:
//
//	[ 4 KiB link page | shard 0: 4 KiB ring page, data region | shard 1: ... ]
//
// Each ring is a lock-free single-producer single-consumer byte queue with a
// power-of-two data region and free-running 64-bit head (producer) and tail
// (consumer) cursors in its ring page; an index is cursor & (size-1).
// Records are 8-byte aligned:
//
//	[u32 length][payload][pad to 8]
//
// A record never straddles the end of the data region: when the remaining
// bytes to the end cannot hold the record, the producer writes a wrap marker
// (length 0xFFFFFFFF) and continues at offset 0. Because records and the
// region size are multiples of 8, the remaining tail space is always 0 or
// ≥ 8 bytes, so the marker always fits.
//
// All cross-process synchronization is via sync/atomic on the shared mapping:
// the producer publishes a record with a store of head after the payload copy,
// the consumer observes it with a load of head before reading, and releases
// space with a store of tail after it is done with the bytes.
//
// Wakeups ride two doorbell FIFOs next to the file, one per direction:
// "data available" toward the link's one consumer, "space available" toward
// its one producer. The link page's cwait records that the consumer parked
// (on all the link's rings at once), each ring page's pwait that the
// producer parked on that ring, so the steady-state ring write stays
// entirely syscall-free: a doorbell byte is written only when the peer is
// actually parked, and parking is a deadline read on the FIFO. A pipe read
// parks through the runtime's poller like any socket — the scheduler hands
// the CPU to other goroutines immediately — whereas parking in a raw
// futex/nanosleep syscall would pin the P for the whole sleep, starving
// co-scheduled workers on small hosts (GOMAXPROCS=1 turns each such park
// into a multi-hundred-µs stall of the whole process).

const (
	ringMagic   = 0x4C53484D // "LSHM"
	ringVersion = 2          // 1: one file and one doorbell pair per (src, dst, shard)

	// pageSize is the size of the link page and of each ring page; a data
	// region starts right after its ring page, page-aligned, so cursor words
	// and payload bytes never share a line.
	pageSize = 4096

	// Link page.
	offMagic    = 0   // u32: ringMagic, stored last during init
	offVersion  = 4   // u32
	offSize     = 8   // u64: data region size of each ring
	offShards   = 16  // u32
	offCWait    = 64  // u32: consumer parked (own cache line)
	offClosed   = 128 // u32: producer flushed everything and detached
	offAttached = 192 // u32: a producer has opened this segment at least once

	// Ring page.
	offHead  = 0   // u64: producer cursor (own cache line)
	offTail  = 64  // u64: consumer cursor (own cache line)
	offPWait = 128 // u32: producer parked on this ring

	wrapMarker = 0xFFFFFFFF

	// DefaultRingSize is the data-region size per directed (src, dst, shard)
	// ring when Config.RingSize is zero.
	DefaultRingSize = 1 << 20

	minRingSize = 1 << 12
)

// parkTimeout bounds one doorbell sleep so a missed wakeup (a doorbell byte
// consumed by an earlier spurious wake, a peer that died without ringing)
// degrades to a periodic re-check, not a hang.
const parkTimeout = 2 * time.Millisecond

// doorbellByte is the payload of a wakeup; its value is meaningless (parked
// peers drain and discard).
var doorbellByte = []byte{1}

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// maxFrameFor is the largest frame a ring of the given data size accepts.
// Frames are capped at half the ring so that a wrap marker plus the record
// always fit in an empty ring: the blocking write cannot demand more free
// space than the ring has.
func maxFrameFor(size uint64) int { return int(size/2) - 12 }

// RingSizeFor returns the smallest valid RingSize whose frame cap admits a
// message of maxMessage encoded bytes.
func RingSizeFor(maxMessage int) int {
	size := uint64(minRingSize)
	for maxFrameFor(size) < maxMessage {
		size <<= 1
	}
	if size < DefaultRingSize {
		size = DefaultRingSize
	}
	return int(size)
}

type segment struct {
	mem  []byte // full mapping
	path string
	// owned marks the consumer side, which created the files and unlinks them.
	owned bool
	// dbData is the "data available" doorbell (producer writes, consumer
	// parks reading); dbSpace the "space available" one (consumer writes,
	// producer parks reading). Both sides open both FIFOs O_RDWR so opens
	// never block and readers never see EOF.
	dbData  *os.File
	dbSpace *os.File
	rings   []*ring // per shard
}

type ring struct {
	seg  *segment
	page []byte // this ring's control page
	data []byte
	size uint64
	mask uint64
}

func word32(b []byte, off int) *uint32 { return (*uint32)(unsafe.Pointer(&b[off])) }
func word64(b []byte, off int) *uint64 { return (*uint64)(unsafe.Pointer(&b[off])) }

func (s *segment) cwait() *uint32 { return word32(s.mem, offCWait) }
func (r *ring) head() *uint64     { return word64(r.page, offHead) }
func (r *ring) tail() *uint64     { return word64(r.page, offTail) }
func (r *ring) pwait() *uint32    { return word32(r.page, offPWait) }

// The segment file of a link, its size, and the doorbell FIFOs beside it.
func segmentPath(dir string, src, dst int) string { return fmt.Sprintf("%s/link-%d-%d", dir, src, dst) }
func segmentBytes(shards int, size uint64) int    { return pageSize + shards*(pageSize+int(size)) }
func dbDataPath(path string) string               { return path + ".dbd" }
func dbSpacePath(path string) string              { return path + ".dbs" }

// newSegment lays the shards' rings over a mapping of segmentBytes.
func newSegment(mem []byte, path string, owned bool, shards int, size uint64) *segment {
	s := &segment{mem: mem, path: path, owned: owned, rings: make([]*ring, shards)}
	for i := range s.rings {
		off := pageSize + i*(pageSize+int(size))
		s.rings[i] = &ring{seg: s, page: mem[off : off+pageSize], data: mem[off+pageSize : off+pageSize+int(size)], size: size, mask: size - 1}
	}
	return s
}

// openDoorbells opens both doorbell FIFOs of the segment. O_RDWR keeps the
// open from blocking on a missing peer and the FIFO from ever delivering
// EOF; the os package puts the descriptors in non-blocking mode and
// registers them with the runtime poller, which is the point of the design.
// On error the caller closes the segment, and with it what was opened.
func (s *segment) openDoorbells() (err error) {
	s.dbData, err = os.OpenFile(dbDataPath(s.path), os.O_RDWR, 0)
	if err == nil {
		s.dbSpace, err = os.OpenFile(dbSpacePath(s.path), os.O_RDWR, 0)
	}
	return err
}

// parkRead sleeps on a doorbell until a byte arrives or parkTimeout passes.
// Spurious returns are fine: callers re-check their condition. If the
// platform cannot poll FIFOs, degrade to a plain bounded sleep.
func parkRead(f *os.File) {
	if f == nil || f.SetReadDeadline(time.Now().Add(parkTimeout)) != nil {
		time.Sleep(parkTimeout)
		return
	}
	// Drain a small batch so stale doorbell bytes from earlier races cost
	// one spurious wake, not one each.
	var buf [16]byte
	f.Read(buf[:])
}

// ringBell writes one wakeup byte. The write is non-blocking (the descriptor
// is pollable) and the pipe can never fill: bytes are written only when the
// peer's park word is set, and parked peers drain.
func ringBell(f *os.File) {
	if f != nil {
		f.Write(doorbellByte)
	}
}

// createSegment builds and maps the segment file of the (src, dst) link. The
// consumer (dst side) creates segments: the file is initialized under a
// temporary name and renamed into place, so a producer that races the open
// never sees a half-initialized header.
func createSegment(dir string, src, dst, shards int, size uint64) (*segment, error) {
	path := segmentPath(dir, src, dst)
	tmp := fmt.Sprintf("%s.tmp.%d", path, os.Getpid())
	os.Remove(path)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmp)
	total := segmentBytes(shards, size)
	if err := f.Truncate(int64(total)); err != nil {
		f.Close()
		return nil, err
	}
	mem, err := mapFile(f, total)
	f.Close() // the mapping outlives the descriptor
	if err != nil {
		return nil, err
	}
	s := newSegment(mem, path, true, shards, size)
	binary.LittleEndian.PutUint32(mem[offVersion:], ringVersion)
	binary.LittleEndian.PutUint64(mem[offSize:], size)
	binary.LittleEndian.PutUint32(mem[offShards:], uint32(shards))
	// The doorbells must exist before the file is renamed into place: a
	// producer only looks for them once it has seen (and validated) the
	// segment, so it always opens this generation's FIFOs.
	for _, db := range []string{dbDataPath(path), dbSpacePath(path)} {
		os.Remove(db)
		if err == nil {
			err = mkfifo(db)
		}
	}
	if err == nil {
		err = s.openDoorbells()
	}
	if err != nil {
		s.close()
		return nil, err
	}
	// Publish the header: producers validate the magic after mapping.
	atomic.StoreUint32(word32(mem, offMagic), ringMagic)
	if err := os.Rename(tmp, path); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// openSegment maps a peer-created segment file, retrying until it appears or
// the deadline passes. cancel aborts the wait early (network shutdown).
func openSegment(dir string, src, dst, shards int, size uint64, deadline time.Time, cancel <-chan struct{}) (*segment, error) {
	path := segmentPath(dir, src, dst)
	total := segmentBytes(shards, size)
	for {
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err == nil {
			st, serr := f.Stat()
			if serr == nil && st.Size() == int64(total) {
				mem, merr := mapFile(f, total)
				f.Close()
				if merr != nil {
					return nil, merr
				}
				if atomic.LoadUint32(word32(mem, offMagic)) == ringMagic &&
					binary.LittleEndian.Uint32(mem[offVersion:]) == ringVersion &&
					binary.LittleEndian.Uint64(mem[offSize:]) == size &&
					binary.LittleEndian.Uint32(mem[offShards:]) == uint32(shards) {
					s := newSegment(mem, path, false, shards, size)
					if err := s.openDoorbells(); err != nil {
						s.close()
						return nil, err
					}
					s.markAttached()
					return s, nil
				}
				// Not yet renamed-into-place by this peer generation, or a
				// geometry mismatch; unmap and retry until the deadline.
				unmapFile(mem)
			} else {
				f.Close()
			}
		} else if !os.IsNotExist(err) {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("shm: segment %s not available within deadline", path)
		}
		select {
		case <-cancel:
			return nil, fmt.Errorf("shm: open of segment %s canceled", path)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (s *segment) close() {
	if s.dbData != nil {
		s.dbData.Close()
	}
	if s.dbSpace != nil {
		s.dbSpace.Close()
	}
	unmapFile(s.mem)
	if s.owned {
		os.Remove(s.path)
		os.Remove(dbDataPath(s.path))
		os.Remove(dbSpacePath(s.path))
	}
}

// tryWrite appends one frame without blocking. It reports false when the
// ring currently lacks space. Producer-side only.
func (r *ring) tryWrite(frame []byte) bool {
	need := align8(4 + uint64(len(frame)))
	head := atomic.LoadUint64(r.head())
	tail := atomic.LoadUint64(r.tail())
	idx := head & r.mask
	rem := r.size - idx
	advance := need
	if rem < need {
		advance = rem + need
	}
	if r.size-(head-tail) < advance {
		return false
	}
	if rem < need {
		binary.LittleEndian.PutUint32(r.data[idx:], wrapMarker)
		idx = 0
	}
	binary.LittleEndian.PutUint32(r.data[idx:], uint32(len(frame)))
	copy(r.data[idx+4:], frame)
	// The head store publishes the record: it is the release edge the
	// consumer's head load synchronizes with.
	atomic.StoreUint64(r.head(), head+advance)
	if s := r.seg; atomic.LoadUint32(s.cwait()) != 0 {
		atomic.StoreUint32(s.cwait(), 0)
		ringBell(s.dbData)
	}
	return true
}

// write blocks until the frame fits. deadline is re-evaluated every park so
// a teardown that starts mid-wait still bounds it; a non-zero deadline in
// the past makes write report false.
func (r *ring) write(frame []byte, deadline func() time.Time) bool {
	for {
		if r.tryWrite(frame) {
			return true
		}
		if d := deadline(); !d.IsZero() && time.Now().After(d) {
			return false
		}
		tail := atomic.LoadUint64(r.tail())
		atomic.StoreUint32(r.pwait(), 1)
		if atomic.LoadUint64(r.tail()) != tail {
			atomic.StoreUint32(r.pwait(), 0)
			continue
		}
		parkRead(r.seg.dbSpace)
		atomic.StoreUint32(r.pwait(), 0)
	}
}

// peek returns the next frame as a view into the ring, or nil when the ring
// is empty. The view is valid until advance. Consumer-side only.
func (r *ring) peek() ([]byte, error) {
	for {
		head := atomic.LoadUint64(r.head())
		tail := atomic.LoadUint64(r.tail())
		if head == tail {
			return nil, nil
		}
		idx := tail & r.mask
		l := binary.LittleEndian.Uint32(r.data[idx:])
		if l == wrapMarker {
			r.advanceBy(r.size - idx)
			continue
		}
		if int(l) > maxFrameFor(r.size) || align8(4+uint64(l)) > r.size-idx {
			return nil, fmt.Errorf("shm: corrupt ring in %s: %d-byte record at cursor %d", r.seg.path, l, tail)
		}
		return r.data[idx+4 : idx+4+uint64(l)], nil
	}
}

// advance releases the record returned by the last peek.
func (r *ring) advance(frameLen int) { r.advanceBy(align8(4 + uint64(frameLen))) }

func (r *ring) advanceBy(n uint64) {
	atomic.StoreUint64(r.tail(), atomic.LoadUint64(r.tail())+n)
	if atomic.LoadUint32(r.pwait()) != 0 {
		atomic.StoreUint32(r.pwait(), 0)
		ringBell(r.seg.dbSpace)
	}
}

// empty reports whether none of the link's rings has a pending record.
func (s *segment) empty() bool {
	for _, r := range s.rings {
		if atomic.LoadUint64(r.head()) != atomic.LoadUint64(r.tail()) {
			return false
		}
	}
	return true
}

// waitData parks the link's consumer until one of its rings is non-empty,
// spinning for the busy-poll window first. The spin and the park cover all
// the link's rings at once. Spurious returns are fine; the caller re-polls.
func (s *segment) waitData(spin time.Duration) {
	if spin > 0 {
		deadline := time.Now().Add(spin)
		for i := 0; ; i++ {
			if !s.empty() {
				return
			}
			if i&63 == 63 {
				if time.Now().After(deadline) {
					break
				}
				// Yield so a co-scheduled producer on a loaded box can run.
				runtime.Gosched()
			}
		}
	}
	// Set the flag before the last look: a producer publishes its head
	// before it reads the flag, so either that look sees the record or the
	// producer sees the flag and rings.
	atomic.StoreUint32(s.cwait(), 1)
	if !s.empty() {
		atomic.StoreUint32(s.cwait(), 0)
		return
	}
	parkRead(s.dbData)
	atomic.StoreUint32(s.cwait(), 0)
}

// wakeConsumer kicks a parked consumer (teardown path).
func (s *segment) wakeConsumer() {
	atomic.StoreUint32(s.cwait(), 0)
	ringBell(s.dbData)
}

// detach marks the segment closed, after every frame its producer wrote, and
// wakes the consumer so that its drain can finish.
func (s *segment) detach() {
	atomic.StoreUint32(word32(s.mem, offClosed), 1)
	s.wakeConsumer()
}

func (s *segment) producerDone() bool { return atomic.LoadUint32(word32(s.mem, offClosed)) != 0 }
func (s *segment) everAttached() bool { return atomic.LoadUint32(word32(s.mem, offAttached)) != 0 }
func (s *segment) markAttached()      { atomic.StoreUint32(word32(s.mem, offAttached), 1) }
