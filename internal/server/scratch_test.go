package server

import (
	"testing"
	"unsafe"

	"lapse/internal/kv"
	"lapse/internal/msg"
)

// lineSpan returns the first and last 64-byte line the backing array of s
// covers, or ok false if s has none.
func lineSpan[T any](s []T) (first, last uintptr, ok bool) {
	if cap(s) == 0 {
		return 0, 0, false
	}
	p := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	end := p + uintptr(cap(s))*unsafe.Sizeof(*new(T))
	return p / cacheLine, (end - 1) / cacheLine, true
}

// TestWorkerScratchIsIsolated pins the cache-line isolation of the buffers a
// worker writes on every operation. Handles built one after the other from
// one goroutine allocate their scratch from one P's tiny-allocator block, the
// way co-located workers that start on one P do; a line any two of them
// share makes every all-local operation of each invalidate the other's.
func TestWorkerScratchIsIsolated(t *testing.T) {
	_, g, layout := newDispatchFixture(t)
	r := &localRouter{layout: layout, params: make([]float32, layout.TotalLen())}
	hs := make([]*Handle, 8)
	for i := range hs {
		h := NewHandle(g.Node(0), i, nil)
		hs[i] = &h
	}
	keys := []kv.Key{1, 2}
	dst := make([]float32, layout.ValLen*len(keys))
	for _, h := range hs {
		if err := h.DispatchOp(r, msg.OpPull, keys, dst, nil).Wait(); err != nil {
			t.Fatal(err)
		}
		// An incomplete future is tracked, so WaitAll's list is allocated
		// and checked as well; WaitAll is never called on it.
		h.Track(kv.NewFuture())
	}
	owner := map[uintptr]int{} // cache line -> the handle whose buffer covers it
	for i, h := range hs {
		claim := func(name string) func(first, last uintptr, ok bool) {
			return func(first, last uintptr, ok bool) {
				if !ok {
					t.Fatalf("handle %d: %s has no backing array after an operation", i, name)
				}
				for l := first; l <= last; l++ {
					if j, taken := owner[l]; taken && j != i {
						t.Errorf("handle %d's %s shares the cache line at %#x with handle %d", i, name, l*cacheLine, j)
					}
					owner[l] = i
				}
			}
		}
		claim("offs")(lineSpan(h.ds.offs))
		claim("fastDone")(lineSpan(h.ds.fastDone))
		claim("counts")(lineSpan(h.ds.counts))
		claim("served")(lineSpan(h.ds.served))
		claim("ids")(lineSpan(h.ds.ids))
		claim("outstanding")(lineSpan(h.outstanding))
	}
}
