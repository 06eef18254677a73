// Package ml holds what the trainers in its subpackages (mf, kge, w2v) share:
// the epoch runner and the latency-hiding window of the paper's Appendix A.
package ml

import (
	"slices"
	"time"

	"lapse/internal/cluster"
	"lapse/internal/kv"
)

// RunEpochs runs epochs training epochs on the workers cl hosts. Each epoch
// calls work on all of them at once and, once every one has returned, eval.
// It returns each epoch's wall time, eval excluded. The first epoch in which a
// worker fails ends the run, without eval, and RunEpochs returns the times of
// the epochs before it and the error of the lowest-numbered worker that failed.
func RunEpochs(cl *cluster.Cluster, epochs int, work func(epoch, node, worker int) error, eval func()) ([]time.Duration, error) {
	var times []time.Duration
	errs := make([]error, cl.TotalWorkers())
	for epoch := 0; epoch < epochs; epoch++ {
		start := time.Now()
		cl.RunWorkers(func(node, worker int) { errs[worker] = work(epoch, node, worker) })
		if i := slices.IndexFunc(errs, func(err error) bool { return err != nil }); i >= 0 {
			return times, errs[i]
		}
		times = append(times, time.Since(start))
		eval()
	}
	return times, nil
}

// Window is one worker's latency-hiding window over its items 0 … n-1 (a
// sentence, a data point): while the worker trains item i, LocalizeAsync is in
// flight for items i+1 … i+depth, so their relocations overlap the training.
// Item j's keys are built once, when j enters the window, into a ring of
// depth+1 reused slices. The futures are the handle's to track, so the
// worker's WaitAll covers them.
type Window struct {
	h     kv.KV
	fill  func(dst []kv.Key, j int) []kv.Key
	slots [][]kv.Key
	n     int
	next  int // the first item not yet in the window
}

// NewWindow starts a window of depth items over h's worker's n items and
// localizes items 0 … depth-1. fill writes item j's keys to dst[:0]. With
// depth 0 nothing is localized and the window only builds each item's keys.
func NewWindow(h kv.KV, depth, n int, fill func(dst []kv.Key, j int) []kv.Key) *Window {
	w := &Window{h: h, fill: fill, slots: make([][]kv.Key, depth+1), n: n}
	w.request(-1)
	return w
}

// Step is called before the worker trains item i, for i = 0, 1, … in order.
// It localizes items i+1 … i+depth asynchronously, item i+depth being new to
// the window, and returns item i's keys, which stay valid until the next Step.
//
// Every step requests the whole window again, not only the new item: for an
// item whose keys are all here that is a lock-free scan, and a key another
// worker took since is asked back several items before it is needed. Left to
// the worker's own synchronous access, such a key is fetched back just as the
// other worker needs it, and the waits echo between the workers.
func (w *Window) Step(i int) []kv.Key {
	w.request(i)
	return w.slots[i%len(w.slots)]
}

// request brings the items up to i+depth into the window and localizes items
// i+1 … i+depth.
func (w *Window) request(i int) {
	hi := min(i+len(w.slots)-1, w.n-1)
	for ; w.next <= hi; w.next++ {
		s := &w.slots[w.next%len(w.slots)]
		*s = w.fill(*s, w.next)
	}
	for j := i + 1; j <= hi; j++ {
		w.h.LocalizeAsync(w.slots[j%len(w.slots)])
	}
}
