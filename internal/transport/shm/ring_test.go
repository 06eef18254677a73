package shm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"lapse/internal/kv"
	"lapse/internal/msg"
)

// smallRing is the smallest ring the tests build: a few frames fill it, so
// they wrap and block often.
const smallRing = 1 << 12

func testRing(t *testing.T, shards int, size uint64) *segment {
	t.Helper()
	s, err := createSegment(t.TempDir(), 0, 1, shards, size)
	if err != nil {
		t.Fatalf("createSegment: %v", err)
	}
	t.Cleanup(s.close)
	return s
}

func noDeadline() time.Time { return time.Time{} }

// TestRingWrapFIFO pushes frames of varying sizes through a small ring so
// records wrap the data region many times, and checks content and order.
func TestRingWrapFIFO(t *testing.T) {
	r := testRing(t, 1, smallRing)
	var pending [][]byte
	seq := 0
	pop := func() {
		frame, err := r.peek()
		if err != nil {
			t.Fatalf("peek: %v", err)
		}
		if frame == nil {
			t.Fatalf("ring empty, want %d pending frames", len(pending))
		}
		if !bytes.Equal(frame, pending[0]) {
			t.Fatalf("frame %d mismatch: got %d bytes %q..., want %d bytes", seq, len(frame), frame[:min(8, len(frame))], len(pending[0]))
		}
		r.advance(len(frame))
		pending = pending[1:]
	}
	for i := 0; i < 2000; i++ {
		// Sizes sweep 1..~600 bytes, repeatedly crossing the 4 KiB ring end
		// at varying offsets (including the wrap-marker edge cases).
		payload := bytes.Repeat([]byte{byte(i)}, 1+(i*7)%600)
		payload = append(payload, []byte(fmt.Sprint(i))...)
		for !r.tryWrite(payload) {
			pop()
		}
		pending = append(pending, payload)
		seq++
	}
	for len(pending) > 0 {
		pop()
	}
	if !r.empty() {
		t.Fatal("ring not empty after draining")
	}
}

// TestRingConcurrentProducerConsumer hammers one ring from a producer
// goroutine while the consumer verifies strict FIFO content, exercising the
// park/wake protocol in both directions (full ring parks the producer, empty
// ring parks the consumer).
func TestRingConcurrentProducerConsumer(t *testing.T) {
	r := testRing(t, 1, smallRing)
	const frames = 50000
	errc := make(chan error, 1)
	go func() {
		buf := make([]byte, 0, 512)
		for i := 0; i < frames; i++ {
			buf = buf[:0]
			buf = append(buf, byte(i), byte(i>>8), byte(i>>16), byte(i>>24))
			buf = append(buf, bytes.Repeat([]byte{byte(i)}, (i*13)%500)...)
			if !r.write(buf, noDeadline) {
				errc <- fmt.Errorf("write %d failed", i)
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < frames; i++ {
		var frame []byte
		for {
			var err error
			frame, err = r.peek()
			if err != nil {
				t.Fatalf("peek: %v", err)
			}
			if frame != nil {
				break
			}
			r.waitData(10 * time.Microsecond)
		}
		got := int(frame[0]) | int(frame[1])<<8 | int(frame[2])<<16 | int(frame[3])<<24
		if got != i {
			t.Fatalf("frame %d carries sequence %d", i, got)
		}
		if want := 4 + (i*13)%500; len(frame) != want {
			t.Fatalf("frame %d has %d bytes, want %d", i, len(frame), want)
		}
		for _, b := range frame[4:] {
			if b != byte(i) {
				t.Fatalf("frame %d payload corrupted", i)
			}
		}
		r.advance(len(frame))
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestRingWriteDeadline verifies a blocked producer gives up once its
// deadline — re-evaluated mid-wait, as teardown sets it — passes.
func TestRingWriteDeadline(t *testing.T) {
	r := testRing(t, 1, smallRing)
	big := make([]byte, maxFrameFor(smallRing))
	for r.tryWrite(big) {
	}
	start := time.Now()
	deadline := func() time.Time { return start.Add(30 * time.Millisecond) }
	if r.write(big, deadline) {
		t.Fatal("write into a full ring with an expired deadline succeeded")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("deadline write blocked %v", time.Since(start))
	}
}

// TestLinkDoorbell checks the link's wait: a parked consumer (cwait set) is
// rung by a frame of any shard, exactly once, and a write to a link whose
// consumer is not parked rings nothing. The link's one ring then gives the
// frames back in send order across shards.
func TestLinkDoorbell(t *testing.T) {
	const shards = 4
	s := testRing(t, shards, smallRing)
	rings := func() int {
		s.dbData.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
		var buf [16]byte
		k, _ := s.dbData.Read(buf[:])
		return k
	}
	// Frame i is a push of a key of shard i % shards.
	frame := func(i int) []byte {
		k := kv.Key(i)
		if got := msg.ShardOfKey(k, shards); got != i%shards {
			t.Fatalf("key %d is on shard %d, want %d", k, got, i%shards)
		}
		return msg.Encode(&msg.Op{Type: msg.OpPush, ID: uint64(i), Keys: []kv.Key{k}, Vals: []float32{1}})
	}
	sent := 0
	for shard := 0; shard < shards; shard++ {
		*s.cwait() = 1
		if !s.tryWrite(frame(sent)) {
			t.Fatalf("shard %d: write into a ring with room failed", shard)
		}
		sent++
		if *s.cwait() != 0 {
			t.Fatalf("shard %d: a frame left the consumer's park flag set", shard)
		}
		if k := rings(); k != 1 {
			t.Fatalf("shard %d: a frame rang the parked consumer %d times, want 1", shard, k)
		}
		if !s.tryWrite(frame(sent)) {
			t.Fatalf("shard %d: write into a ring with room failed", shard)
		}
		sent++
		if k := rings(); k != 0 {
			t.Fatalf("shard %d: a write rang a consumer that is not parked", shard)
		}
	}
	s.waitData(0) // returns at once: the ring holds frames
	for i := 0; i < sent; i++ {
		f, err := s.peek()
		if err != nil || f == nil {
			t.Fatalf("frame %d: peek = %v, %v", i, f, err)
		}
		m, _, err := msg.Decode(f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if id, sh := m.(*msg.Op).ID, msg.ShardOf(m, shards); id != uint64(i) || sh != i%shards {
			t.Fatalf("frame %d: got id %d of shard %d, want id %d of shard %d", i, id, sh, i, i%shards)
		}
		s.advance(len(f))
	}
	if !s.empty() {
		t.Fatal("ring not empty after every frame was read")
	}
}

// TestProducerRefusesOtherHeader checks that a producer opens only a segment
// made for its own deployment: one whose version, ring size or shard count
// differs is refused until the open's deadline, which it does not outlast.
func TestProducerRefusesOtherHeader(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(s *segment) // edits the consumer's header
		size  uint64           // the producer's ring size
		ok    bool
	}{
		{name: "same", size: smallRing, ok: true},
		{name: "version 2", setup: func(s *segment) { binary.LittleEndian.PutUint32(s.mem[offVersion:], 2) }, size: smallRing},
		{name: "ring size", size: 2 * smallRing}, // the file size already differs
		{name: "ring size in header", setup: func(s *segment) { binary.LittleEndian.PutUint64(s.mem[offSize:], 2*smallRing) }, size: smallRing},
		{name: "shard count", setup: func(s *segment) { binary.LittleEndian.PutUint32(s.mem[offShards:], 4) }, size: smallRing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cons, err := createSegment(dir, 0, 1, 1, smallRing)
			if err != nil {
				t.Fatalf("createSegment: %v", err)
			}
			defer cons.close()
			if tc.setup != nil {
				tc.setup(cons)
			}
			const wait = 50 * time.Millisecond
			start := time.Now()
			prod, err := openSegment(dir, 0, 1, 1, tc.size, start.Add(wait), nil)
			if took := time.Since(start); took > wait+time.Second {
				t.Fatalf("open returned %v after its deadline", took-wait)
			}
			if tc.ok {
				if err != nil {
					t.Fatalf("open of a matching segment: %v", err)
				}
				prod.close()
				return
			}
			if err == nil {
				prod.close()
				t.Fatal("a producer opened a segment whose header differs from its own")
			}
		})
	}
}

// TestOneConsumerPerLink checks that a network hosting 2 nodes at 4 shards
// runs one consumer goroutine per incoming (src, dst) link — 4, loopback
// links included — not one per (src, dst, shard) ring. The consumers are
// the goroutines New starts (writers start on first Send), counted by their
// creator, which a goroutine that has not run yet also names.
func TestOneConsumerPerLink(t *testing.T) {
	consumers := func() int {
		buf := make([]byte, 1<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by lapse/internal/transport/shm.New in ")
	}
	before := consumers()
	n, err := New(Config{Dir: t.TempDir(), Nodes: 2, Shards: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer n.Close()
	if got := consumers() - before; got != 4 {
		t.Fatalf("%d consumer goroutines for 2 nodes at 4 shards, want 4", got)
	}
}

// TestRingSizeFor checks the frame-cap inversion used for MaxMessage.
func TestRingSizeFor(t *testing.T) {
	for _, m := range []int{1, 1 << 10, 1 << 20, 3<<20 + 17, 64 << 20} {
		size := RingSizeFor(m)
		if size&(size-1) != 0 {
			t.Fatalf("RingSizeFor(%d) = %d, not a power of two", m, size)
		}
		if maxFrameFor(uint64(size)) < m {
			t.Fatalf("RingSizeFor(%d) = %d admits only %d-byte frames", m, size, maxFrameFor(uint64(size)))
		}
	}
}
