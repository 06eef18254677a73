package kv

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestUniformLayout(t *testing.T) {
	l := NewUniformLayout(10, 4)
	if got := l.NumKeys(); got != 10 {
		t.Fatalf("NumKeys = %d, want 10", got)
	}
	if got := l.Len(3); got != 4 {
		t.Fatalf("Len(3) = %d, want 4", got)
	}
	if got := l.Offset(3); got != 12 {
		t.Fatalf("Offset(3) = %d, want 12", got)
	}
	if got := l.TotalLen(); got != 40 {
		t.Fatalf("TotalLen = %d, want 40", got)
	}
}

func TestUniformLayoutPanicsOnZeroLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero value length")
		}
	}()
	NewUniformLayout(10, 0)
}

func TestRangeLayout(t *testing.T) {
	// Two ranges: 5 keys of length 2, then 3 keys of length 7.
	l := NewRangeLayout([]Key{5, 3}, []int{2, 7})
	if got := l.NumKeys(); got != 8 {
		t.Fatalf("NumKeys = %d, want 8", got)
	}
	cases := []struct {
		k      Key
		length int
		offset int64
	}{
		{0, 2, 0},
		{4, 2, 8},
		{5, 7, 10},
		{6, 7, 17},
		{7, 7, 24},
	}
	for _, c := range cases {
		if got := l.Len(c.k); got != c.length {
			t.Errorf("Len(%d) = %d, want %d", c.k, got, c.length)
		}
		if got := l.Offset(c.k); got != c.offset {
			t.Errorf("Offset(%d) = %d, want %d", c.k, got, c.offset)
		}
	}
	if got := l.TotalLen(); got != 31 {
		t.Fatalf("TotalLen = %d, want 31", got)
	}
}

func TestRangeLayoutOutOfRangePanics(t *testing.T) {
	l := NewRangeLayout([]Key{2}, []int{3})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range key")
		}
	}()
	l.Len(2)
}

func TestRangeLayoutMatchesUniform(t *testing.T) {
	// A single-range RangeLayout must agree with UniformLayout everywhere.
	f := func(nKeys uint16, vlen uint8) bool {
		n := Key(nKeys%500 + 1)
		v := int(vlen%32 + 1)
		u := NewUniformLayout(n, v)
		r := NewRangeLayout([]Key{n}, []int{v})
		if u.NumKeys() != r.NumKeys() || u.TotalLen() != r.TotalLen() {
			return false
		}
		for k := Key(0); k < n; k++ {
			if u.Len(k) != r.Len(k) || u.Offset(k) != r.Offset(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRangeLayoutOffsetsContiguous(t *testing.T) {
	// Property: offsets are contiguous — Offset(k+1) = Offset(k) + Len(k).
	f := func(c1, c2, c3 uint8, l1, l2, l3 uint8) bool {
		counts := []Key{Key(c1%50 + 1), Key(c2%50 + 1), Key(c3%50 + 1)}
		lens := []int{int(l1%16 + 1), int(l2%16 + 1), int(l3%16 + 1)}
		l := NewRangeLayout(counts, lens)
		var want int64
		for k := Key(0); k < l.NumKeys(); k++ {
			if l.Offset(k) != want {
				return false
			}
			want += int64(l.Len(k))
		}
		return want == l.TotalLen()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBufferLen(t *testing.T) {
	l := NewRangeLayout([]Key{5, 3}, []int{2, 7})
	if got := BufferLen(l, []Key{0, 5, 7}); got != 2+7+7 {
		t.Fatalf("BufferLen = %d, want 16", got)
	}
	if got := BufferLen(l, nil); got != 0 {
		t.Fatalf("BufferLen(nil) = %d, want 0", got)
	}
}

func TestFutureCompleteAndWait(t *testing.T) {
	f := NewFuture()
	if done, _ := f.TryWait(); done {
		t.Fatal("future done before completion")
	}
	errX := errors.New("x")
	go f.Complete(errX)
	if err := f.Wait(); err != errX {
		t.Fatalf("Wait = %v, want %v", err, errX)
	}
	if done, err := f.TryWait(); !done || err != errX {
		t.Fatalf("TryWait = (%v, %v), want (true, %v)", done, err, errX)
	}
}

// TestCompletedFuture also pins that every error-free CompletedFuture is one
// shared instance, which keeps all-local operations allocation-free, while
// one completed with an error is its own.
func TestCompletedFuture(t *testing.T) {
	if err := CompletedFuture(nil).Wait(); err != nil {
		t.Fatalf("CompletedFuture(nil).Wait() = %v", err)
	}
	if done, err := CompletedFuture(nil).TryWait(); !done || err != nil {
		t.Fatalf("CompletedFuture(nil).TryWait() = (%v, %v), want (true, <nil>)", done, err)
	}
	if CompletedFuture(nil) != CompletedFuture(nil) {
		t.Fatal("CompletedFuture(nil) returned two instances")
	}
	if n := testing.AllocsPerRun(100, func() { _ = CompletedFuture(nil).Wait() }); n != 0 {
		t.Errorf("CompletedFuture(nil).Wait() allocates %.1f times, want 0", n)
	}
	errX := errors.New("x")
	if err := CompletedFuture(errX).Wait(); err != errX {
		t.Fatalf("CompletedFuture(err).Wait() = %v, want %v", err, errX)
	}
	if CompletedFuture(errX) == CompletedFuture(errX) {
		t.Fatal("CompletedFuture(err) returned a shared instance")
	}
}

// TestFutureCompletionReachesEveryWaiter completes a future while 16
// goroutines poll it, half blocking in Wait and half spinning on TryWait:
// each must see the error Complete stored. Under the race detector it checks
// that the flag publishes the error on every schedule.
func TestFutureCompletionReachesEveryWaiter(t *testing.T) {
	f := NewFuture()
	errX := errors.New("x")
	var started, finished sync.WaitGroup
	for i := 0; i < 16; i++ {
		started.Add(1)
		finished.Add(1)
		go func() {
			defer finished.Done()
			started.Done()
			var err error
			if i%2 == 0 {
				err = f.Wait()
			} else {
				for {
					var done bool
					if done, err = f.TryWait(); done {
						break
					}
				}
			}
			if err != errX {
				t.Errorf("waiter %d saw %v, want %v", i, err, errX)
			}
		}()
	}
	started.Wait()
	f.Complete(errX)
	finished.Wait()
}

// TestFutureDoneCloses: the channel Done returns stays open until Complete
// and is closed after it, for select loops.
func TestFutureDoneCloses(t *testing.T) {
	f := NewFuture()
	select {
	case <-f.Done():
		t.Fatal("Done closed before Complete")
	default:
	}
	go f.Complete(nil)
	select {
	case <-f.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("Done still open 10 s after Complete")
	}
	select {
	case <-CompletedFuture(errors.New("x")).Done():
	default:
		t.Fatal("Done of a future completed with an error is open")
	}
}
