package server

import (
	"errors"
	"testing"
	"time"

	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/msg"
)

func TestPendingOpCompletesAfterAllKeys(t *testing.T) {
	p := NewPending()
	layout := kv.NewUniformLayout(4, 2)
	dst := make([]float32, 8)
	entries := []OpEntry{{Key: 0, Off: 0}, {Key: 1, Off: 2}, {Key: 2, Off: 4}, {Key: 3, Off: 6}}
	id, fut := p.RegisterOp(4, dst, entries)

	// First response answers two keys (out of order).
	p.CompleteResp(layout, &msg.OpResp{Type: msg.OpPull, ID: id, Keys: []kv.Key{2, 0}, Vals: []float32{5, 6, 1, 2}})
	if done, _ := fut.TryWait(); done {
		t.Fatal("future completed with keys outstanding")
	}
	// Second response answers the rest.
	p.CompleteResp(layout, &msg.OpResp{Type: msg.OpPull, ID: id, Keys: []kv.Key{1, 3}, Vals: []float32{3, 4, 7, 8}})
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	for i, v := range want {
		if dst[i] != v {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	}
}

func TestPendingFinishKeysMixedWithResponses(t *testing.T) {
	p := NewPending()
	layout := kv.NewUniformLayout(4, 1)
	id, fut := p.RegisterOp(3, nil, nil)
	p.CompleteResp(layout, &msg.OpResp{Type: msg.OpPush, ID: id, Keys: []kv.Key{1}})
	p.FinishKeys(id, 2) // e.g. two fast-path keys
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestPendingSync: a stale-PS replica fetch is an operation part without a
// buffer, each server's reply counting as one key.
func TestPendingSync(t *testing.T) {
	p := NewPending()
	id, fut := p.RegisterOp(2, nil, nil)
	p.FinishKeys(id, 1)
	if done, _ := fut.TryWait(); done {
		t.Fatal("sync completed after one of two replies")
	}
	p.FinishKeys(id, 1)
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestAggTimers: both recorders attached with Time observe the completion,
// once, whoever completes the aggregate; an aggregate without one reads no
// clock.
func TestAggTimers(t *testing.T) {
	defer func(f func() time.Time) { nowFunc = f }(nowFunc)
	t0 := time.Unix(100, 0)
	reads := 0
	nowFunc = func() time.Time { reads++; return t0.Add(3 * time.Millisecond) }

	var reloc, lat metrics.Histogram
	a := NewAgg()
	a.Add(2)
	a.Time(&reloc, t0)
	a.Time(&lat, t0.Add(time.Millisecond))
	fut := a.Seal()
	a.Finish(1)
	if done, _ := fut.TryWait(); done || reads != 0 {
		t.Fatalf("done=%v after one of two keys, %d clock reads", done, reads)
	}
	a.Finish(1)
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	// Bucketed sums: about 3 ms and 2 ms, each recorder from its own start.
	if r, l := reloc.Snapshot(), lat.Snapshot(); r.Count() != 1 || l.Count() != 1 || r.Sum() <= l.Sum() || l.Sum() < time.Millisecond {
		t.Fatalf("observed %d×%v and %d×%v, want 1×3ms and 1×2ms", r.Count(), r.Sum(), l.Count(), l.Sum())
	}

	b := NewAgg()
	b.Add(1)
	b.Finish(1)
	if err := b.Seal().Wait(); err != nil || reads != 1 {
		t.Fatalf("untimed aggregate: err=%v, %d clock reads, want 1 (the timed one's)", err, reads)
	}
}

func TestHandleWaitAllReturnsFirstError(t *testing.T) {
	var h Handle
	f1 := kv.NewFuture()
	f2 := kv.NewFuture()
	h.Track(f1)
	h.Track(f2)
	wantErr := errors.New("boom")
	f1.Complete(wantErr)
	f2.Complete(nil)
	if err := h.WaitAll(); !errors.Is(err, wantErr) {
		t.Fatalf("WaitAll = %v, want %v", err, wantErr)
	}
	// The tracking list is consumed; a second WaitAll is clean.
	if err := h.WaitAll(); err != nil {
		t.Fatalf("second WaitAll = %v, want nil", err)
	}
}

func TestHandleTrackSkipsCompleted(t *testing.T) {
	var h Handle
	h.Track(kv.CompletedFuture(nil))
	if len(h.outstanding) != 0 {
		t.Fatalf("completed future tracked: %d outstanding", len(h.outstanding))
	}
}
