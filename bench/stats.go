package main

import (
	"math"
	"sort"
)

// median returns the median of v (0 for an empty slice); v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of v exactly as Python's
// statistics.quantiles(v, n=4) (method "exclusive") computes them, so the
// A/A spreads printed here are the spreads the acceptance procedure sees.
// It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range of v as a share of its median.
func spread(v []float64) float64 {
	med := median(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(med)
}

// latencies is a set of per-call timings in nanoseconds. uint32 keeps a
// multi-million-sample window in a few MB; calls longer than 4.29 s clamp.
type latencies []uint32

func (l *latencies) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	*l = append(*l, uint32(ns))
}

// sorted returns an ascending copy.
func (l latencies) sorted() latencies {
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// batches is how many batches a run's timings are cut into.
const batches = 20

// batchStats cuts every worker's timings, in the order they were taken, into
// `batches` equal runs, pools the workers' i-th runs into batch i, and returns
// each batch's mean and p95 (ns). A run reports the median over its batches:
// a burst of interference (a neighbour on the shared cache, a preempted
// thread) spoils the batches it falls in, not the run's figure. Batches pool
// the workers because workers differ — the drifting hot set of serve_rw is
// local to one of them at a time — and a median over per-worker batches would
// flip between the two. The batch count is fixed, not the batch size, so that
// a batch stays large next to a rare mode (w2v_hiding reads are 1 % remote:
// batches of a few hundred would hold 3, 4 or 5 of them and quantise the mean
// in steps of a quarter). A worker with fewer timings than batches (smoke
// runs; full-size windows have hundreds to thousands per batch) gets batches
// of one. It returns nothing if a worker has no timings.
func batchStats(workers []latencies) (means, p95s []float64) {
	n := len(workers[0])
	for _, l := range workers {
		n = min(n, len(l))
	}
	if n == 0 {
		return nil, nil
	}
	size := max(1, n/batches)
	batch := make(latencies, 0, size*len(workers))
	for lo := 0; lo+size <= n; lo += size {
		batch = batch[:0]
		for _, l := range workers {
			batch = append(batch, l[lo:lo+size]...)
		}
		b := batch.sorted()
		var sum float64
		for _, x := range b {
			sum += float64(x)
		}
		means = append(means, sum/float64(len(b)))
		p95s = append(p95s, b.pct(0.95))
	}
	return means, p95s
}

// pct returns the q-quantile (nearest rank) of an ascending sample in ns.
func (l latencies) pct(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(l)))) - 1
	return float64(l[max(0, min(i, len(l)-1))])
}

// fnvOffset and fnvAdd are a word-at-a-time FNV-1a: the generators fold every
// key they draw into a running hash, which the test compares across seeds.
const fnvOffset = 14695981039346656037

func fnvAdd(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }
