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

// A segment is the shared mapping of one directed (src, dst) link: a control
// page followed by one data region, in one mmap-ed file shared by the two
// processes:
//
//	[ 4 KiB control page | data region ]
//
// The data region is a lock-free single-producer single-consumer byte queue
// of power-of-two size, with free-running 64-bit head (producer) and tail
// (consumer) cursors in the control page; an index is cursor & (size-1).
// The link carries every shard's frames in send order; the consumer finds
// each frame's shard when it decodes it, as the tcp reader does.
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
// "data available" toward the link's consumer, "space available" toward its
// producer. The control page's cwait records that the consumer parked, its
// pwait that the producer parked, so the steady-state ring write stays
// entirely syscall-free: a doorbell byte is written only when the peer is
// actually parked, and parking is a deadline read on the FIFO. A pipe read
// parks through the runtime's poller like any socket — the scheduler hands
// the CPU to other goroutines immediately — whereas parking in a raw
// futex/nanosleep syscall would pin the P for the whole sleep, starving
// co-scheduled workers on small hosts (GOMAXPROCS=1 turns each such park
// into a multi-hundred-µs stall of the whole process).

const (
	ringMagic   = 0x4C53484D // "LSHM"
	ringVersion = 3          // 2: one ring per shard in the link's file; 1: one file per (src, dst, shard)

	// pageSize is the size of the control page; the data region starts
	// right after it, page-aligned, so cursor words and payload bytes never
	// share a line.
	pageSize = 4096

	// Control page. The header words are written once, before the file is
	// published; every word that changes afterwards has a cache line of its
	// own.
	offMagic    = 0   // u32: ringMagic, stored last during init
	offVersion  = 4   // u32
	offSize     = 8   // u64: data region size
	offShards   = 16  // u32: the deployment's shard count (a check, not geometry)
	offHead     = 64  // u64: producer cursor
	offTail     = 128 // u64: consumer cursor
	offCWait    = 192 // u32: consumer parked
	offPWait    = 256 // u32: producer parked
	offClosed   = 320 // u32: producer flushed everything and detached
	offAttached = 384 // u32: a producer has opened this segment at least once

	wrapMarker = 0xFFFFFFFF

	// DefaultRingSize is the data-region size of each directed (src, dst)
	// link's ring, grown only to admit Config.MaxMessage.
	DefaultRingSize = 1 << 20
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

// RingSizeFor returns the ring size for a deployment whose largest message
// is maxMessage encoded bytes: DefaultRingSize, doubled until its frame cap
// admits the message.
func RingSizeFor(maxMessage int) int {
	size := uint64(DefaultRingSize)
	for maxFrameFor(size) < maxMessage {
		size <<= 1
	}
	return int(size)
}

type segment struct {
	mem  []byte // full mapping: control page, then data
	data []byte
	size uint64
	mask uint64
	path string
	// owned marks the consumer side, which created the files and unlinks them.
	owned bool
	// dbData is the "data available" doorbell (producer writes, consumer
	// parks reading); dbSpace the "space available" one (consumer writes,
	// producer parks reading). Both sides open both FIFOs O_RDWR so opens
	// never block and readers never see EOF.
	dbData  *os.File
	dbSpace *os.File
}

func word32(b []byte, off int) *uint32 { return (*uint32)(unsafe.Pointer(&b[off])) }
func word64(b []byte, off int) *uint64 { return (*uint64)(unsafe.Pointer(&b[off])) }

func (s *segment) head() *uint64  { return word64(s.mem, offHead) }
func (s *segment) tail() *uint64  { return word64(s.mem, offTail) }
func (s *segment) cwait() *uint32 { return word32(s.mem, offCWait) }
func (s *segment) pwait() *uint32 { return word32(s.mem, offPWait) }

// The segment file of a link, its size, and the doorbell FIFOs beside it.
func segmentPath(dir string, src, dst int) string { return fmt.Sprintf("%s/link-%d-%d", dir, src, dst) }
func segmentBytes(size uint64) int                { return pageSize + int(size) }
func dbDataPath(path string) string               { return path + ".dbd" }
func dbSpacePath(path string) string              { return path + ".dbs" }

func newSegment(mem []byte, path string, owned bool, size uint64) *segment {
	return &segment{mem: mem, data: mem[pageSize:], size: size, mask: size - 1, path: path, owned: owned}
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
	total := segmentBytes(size)
	if err := f.Truncate(int64(total)); err != nil {
		f.Close()
		return nil, err
	}
	mem, err := mapFile(f, total)
	f.Close() // the mapping outlives the descriptor
	if err != nil {
		return nil, err
	}
	s := newSegment(mem, path, true, size)
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

// openSegment maps a peer-created segment file whose header matches this
// side's version, ring size and shard count, retrying until one appears or
// the deadline passes. cancel aborts the wait early (network shutdown).
func openSegment(dir string, src, dst, shards int, size uint64, deadline time.Time, cancel <-chan struct{}) (*segment, error) {
	path := segmentPath(dir, src, dst)
	total := segmentBytes(size)
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
					s := newSegment(mem, path, false, size)
					if err := s.openDoorbells(); err != nil {
						s.close()
						return nil, err
					}
					s.markAttached()
					return s, nil
				}
				// Not yet renamed-into-place by this peer generation, or a
				// header of another version, ring size or shard count than
				// this deployment's; unmap and retry until the deadline.
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
func (s *segment) tryWrite(frame []byte) bool {
	need := align8(4 + uint64(len(frame)))
	head := atomic.LoadUint64(s.head())
	tail := atomic.LoadUint64(s.tail())
	idx := head & s.mask
	rem := s.size - idx
	advance := need
	if rem < need {
		advance = rem + need
	}
	if s.size-(head-tail) < advance {
		return false
	}
	if rem < need {
		binary.LittleEndian.PutUint32(s.data[idx:], wrapMarker)
		idx = 0
	}
	binary.LittleEndian.PutUint32(s.data[idx:], uint32(len(frame)))
	copy(s.data[idx+4:], frame)
	// The head store publishes the record: it is the release edge the
	// consumer's head load synchronizes with.
	atomic.StoreUint64(s.head(), head+advance)
	if atomic.LoadUint32(s.cwait()) != 0 {
		atomic.StoreUint32(s.cwait(), 0)
		ringBell(s.dbData)
	}
	return true
}

// write blocks until the frame fits. deadline is re-evaluated every park so
// a teardown that starts mid-wait still bounds it; a non-zero deadline in
// the past makes write report false.
func (s *segment) write(frame []byte, deadline func() time.Time) bool {
	for {
		if s.tryWrite(frame) {
			return true
		}
		if d := deadline(); !d.IsZero() && time.Now().After(d) {
			return false
		}
		tail := atomic.LoadUint64(s.tail())
		atomic.StoreUint32(s.pwait(), 1)
		if atomic.LoadUint64(s.tail()) != tail {
			atomic.StoreUint32(s.pwait(), 0)
			continue
		}
		parkRead(s.dbSpace)
		atomic.StoreUint32(s.pwait(), 0)
	}
}

// peek returns the next frame as a view into the ring, or nil when the ring
// is empty. The view is valid until advance. Consumer-side only.
func (s *segment) peek() ([]byte, error) {
	for {
		head := atomic.LoadUint64(s.head())
		tail := atomic.LoadUint64(s.tail())
		if head == tail {
			return nil, nil
		}
		idx := tail & s.mask
		l := binary.LittleEndian.Uint32(s.data[idx:])
		if l == wrapMarker {
			s.advanceBy(s.size - idx)
			continue
		}
		if int(l) > maxFrameFor(s.size) || align8(4+uint64(l)) > s.size-idx {
			return nil, fmt.Errorf("shm: corrupt ring in %s: %d-byte record at cursor %d", s.path, l, tail)
		}
		return s.data[idx+4 : idx+4+uint64(l)], nil
	}
}

// advance releases the record returned by the last peek.
func (s *segment) advance(frameLen int) { s.advanceBy(align8(4 + uint64(frameLen))) }

func (s *segment) advanceBy(n uint64) {
	atomic.StoreUint64(s.tail(), atomic.LoadUint64(s.tail())+n)
	if atomic.LoadUint32(s.pwait()) != 0 {
		atomic.StoreUint32(s.pwait(), 0)
		ringBell(s.dbSpace)
	}
}

func (s *segment) empty() bool { return atomic.LoadUint64(s.head()) == atomic.LoadUint64(s.tail()) }

// waitData parks the consumer until the ring is non-empty, spinning for the
// busy-poll window first. Spurious returns are fine; the caller re-polls.
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
