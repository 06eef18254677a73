package shm

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func testSegment(t *testing.T, shards int, size uint64) *segment {
	t.Helper()
	s, err := createSegment(t.TempDir(), 0, 1, shards, size)
	if err != nil {
		t.Fatalf("createSegment: %v", err)
	}
	t.Cleanup(s.close)
	return s
}

func testRing(t *testing.T, size uint64) *ring { return testSegment(t, 1, size).rings[0] }

func noDeadline() time.Time { return time.Time{} }

// TestRingWrapFIFO pushes frames of varying sizes through a small ring so
// records wrap the data region many times, and checks content and order.
func TestRingWrapFIFO(t *testing.T) {
	r := testRing(t, minRingSize)
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
	if !r.seg.empty() {
		t.Fatal("ring not empty after draining")
	}
}

// TestRingConcurrentProducerConsumer hammers one ring from a producer
// goroutine while the consumer verifies strict FIFO content, exercising the
// park/wake protocol in both directions (full ring parks the producer, empty
// ring parks the consumer).
func TestRingConcurrentProducerConsumer(t *testing.T) {
	r := testRing(t, minRingSize)
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
			r.seg.waitData(10 * time.Microsecond)
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
	r := testRing(t, minRingSize)
	big := make([]byte, maxFrameFor(minRingSize))
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

// TestLinkDoorbellCoversEveryRing checks the link-level wait: a consumer
// parked on the link (its cwait set) is rung by a frame on any shard's ring,
// once, and a write to a link whose consumer is not parked rings nothing.
func TestLinkDoorbellCoversEveryRing(t *testing.T) {
	s := testSegment(t, 4, minRingSize)
	rung := func() bool {
		s.dbData.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
		var buf [16]byte
		k, _ := s.dbData.Read(buf[:])
		return k > 0
	}
	for shard, r := range s.rings {
		*s.cwait() = 1
		if !r.tryWrite([]byte{byte(shard)}) {
			t.Fatalf("shard %d: write into an empty ring failed", shard)
		}
		if *s.cwait() != 0 || !rung() {
			t.Fatalf("shard %d: a frame did not wake the link's parked consumer", shard)
		}
		if !r.tryWrite([]byte{byte(shard)}) || rung() {
			t.Fatalf("shard %d: a write rang a consumer that is not parked", shard)
		}
	}
	for shard := range s.rings {
		s.waitData(0) // returns at once: every ring holds frames
		if frame, _ := s.rings[shard].peek(); len(frame) != 1 || frame[0] != byte(shard) {
			t.Fatalf("shard %d: ring holds %v", shard, frame)
		}
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
