package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"time"

	"lapse/internal/driver"
	"lapse/internal/kv"
)

// The shim is the benchmark's side of the line between load generator and
// program under test: a driver.PS decorator whose handles count every call
// (exactly), time one in `every` Pull/Push-family calls, and — in a traced
// run only — record a span around each call. The repo's trainers only ever
// see the driver.PS they are handed, so the same shim observes them and the
// benchmark's own generators.

type opKind uint8

const (
	opPull opKind = iota
	opPullAsync
	opPullIfLocal
	opPush
	opPushAsync
	opLocalize
	opLocalizeAsync
	opWaitAll
	opBarrier
	opMultiGet
	opPace // the open-loop generator's pacing sleep
	opRoot // an epoch (trainers), a round (closed loops) or a request (open loop)
	numOps
)

var opNames = [numOps]string{"pull", "pull_async", "pull_if_local", "push", "push_async",
	"localize", "localize_async", "wait_all", "barrier", "multiget", "pace", "root"}

// shareOf maps each op to the trace.*_share metric its span time is booked to.
var shareOf = [numOps]string{"pull", "pull", "pull", "push", "push",
	"localize", "localize", "wait_all", "barrier", "multiget", "pace", "other"}

var shareNames = []string{"pull", "push", "localize", "wait_all", "barrier", "multiget", "pace", "other"}

// span is one recorded call. Times are ns since the trace began.
type span struct {
	start, end int64
	parent     int32 // index of the enclosing root span, -1 for a root
	req        int32 // sequence number of the root this span belongs to
	op         opKind
	weight     uint16 // calls this span stands for (1-in-weight sampling)
}

// workerTrace is one worker's preallocated span buffer.
type workerTrace struct {
	t0      time.Time
	spans   []span
	root    int32 // open root span, -1 if none
	req     int32
	dropped int64 // spans that did not fit the buffer
}

func (t *workerTrace) add(op opKind, start, end time.Time, weight uint32) {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{start: int64(start.Sub(t.t0)), end: int64(end.Sub(t.t0)),
		parent: t.root, req: t.req, op: op, weight: uint16(weight)})
}

// workerRec is one worker's counters, latency samples and (traced runs)
// span buffer. Only that worker's goroutine touches it while workers run.
type workerRec struct {
	every uint32 // time 1 in every reads and 1 in every writes
	// Reads and writes tick separately: a trainer alternates Pull and
	// PushAsync, and one shared counter with an even period would time only
	// one of the two.
	rtick, wtick uint32
	calls        [numOps]int64
	keys         [numOps]int64 // key accesses completed per op kind
	errs         int64
	read         latencies // Pull, PullIfLocal (and open-loop sojourn, added by the generator)
	write        latencies // Push, PushAsync (time the caller is blocked in the call)
	localize     latencies // every synchronous Localize
	tr           *workerTrace
	_            [64]byte // keep neighbouring workers' records off this cache line
}

func (r *workerRec) timed(tick *uint32) bool {
	*tick++
	if *tick >= r.every {
		*tick = 0
		return true
	}
	return false
}

func (r *workerRec) done(op opKind, start time.Time, into *latencies, weight uint32) {
	end := time.Now()
	if into != nil {
		into.add(int64(end.Sub(start)))
	}
	if r.tr != nil {
		r.tr.add(op, start, end, weight)
	}
}

func (r *workerRec) check(err error) error {
	if err != nil {
		r.errs++
	}
	return err
}

// openRoot closes the worker's open root span and opens the next one. No-op
// when untraced.
func (r *workerRec) openRoot() {
	t := r.tr
	if t == nil {
		return
	}
	now := time.Now()
	r.closeRoot(now)
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	t.req++
	t.root = int32(len(t.spans))
	t.spans = append(t.spans, span{start: int64(now.Sub(t.t0)), parent: -1, req: t.req, op: opRoot, weight: 1})
}

// closeRoot ends the open root span at end, or — when end is zero — where its
// last child ended, which is how the roots the shim opens on Handle() for the
// trainers exclude the evaluation that runs between epochs.
func (r *workerRec) closeRoot(end time.Time) {
	t := r.tr
	if t == nil || t.root < 0 {
		return
	}
	root := &t.spans[t.root]
	if end.IsZero() {
		root.end = root.start
		if last := t.spans[len(t.spans)-1]; int32(len(t.spans)-1) != t.root {
			root.end = last.end
		}
	} else {
		root.end = int64(end.Sub(t.t0))
	}
	t.root = -1
}

// shimPS decorates a driver.PS.
type shimPS struct {
	driver.PS
	recs []*workerRec
	// trainer is set for the trainer workloads. Handle() then opens a root
	// span (a trainer takes one handle per worker per epoch, so that call
	// marks the epoch boundary), and the run's read timings are the Localize
	// calls: that is where a trainer's worker waits for parameters — the
	// pulls that follow are shared-memory accesses of ~0.3 µs, too close to
	// the cost of timing them to repeat from run to run.
	trainer bool
}

func newShim(ps driver.PS, workers int, every uint32) *shimPS {
	s := &shimPS{PS: ps, recs: make([]*workerRec, workers)}
	for i := range s.recs {
		s.recs[i] = &workerRec{every: every}
	}
	return s
}

type multiGetter interface {
	MultiGet(keys []kv.Key, dst []float32) *kv.Future
}

// Handle implements driver.PS.
func (s *shimPS) Handle(worker int) kv.KV {
	r := s.recs[worker]
	if s.trainer {
		r.closeRoot(time.Time{})
		r.openRoot()
	}
	h := &shimKV{KV: s.PS.Handle(worker), rec: r}
	if mg, ok := h.KV.(multiGetter); ok {
		return &shimMG{shimKV: h, mg: mg}
	}
	return h
}

// reset zeroes the counters and samples (the warm-up's are not reported) and
// reserves room for n timed samples per worker and list.
func (s *shimPS) reset(n int) {
	for _, r := range s.recs {
		*r = workerRec{every: r.every, read: make(latencies, 0, n), write: make(latencies, 0, n), localize: make(latencies, 0, 1024)}
	}
}

// spanRoom is the span buffer size per worker for a traced window as long as
// the one just counted: twice the spans that window would have recorded.
func (s *shimPS) spanRoom() int {
	var most int64
	for _, r := range s.recs {
		var always, sampled int64
		for op, n := range r.calls {
			switch opKind(op) {
			case opPull, opPullIfLocal, opPush, opPushAsync:
				sampled += n
			default:
				always += n
			}
		}
		// A root span per round, epoch or request, and its pacing sleep.
		most = max(most, sampled/int64(r.every)+always+2*r.calls[opMultiGet])
	}
	return int(2*most) + 4096
}

// startTrace turns span recording on with room for n spans per worker.
func (s *shimPS) startTrace(n int) {
	t0 := time.Now()
	for _, r := range s.recs {
		r.tr = &workerTrace{t0: t0, spans: make([]span, 0, n), root: -1}
	}
}

// stopTrace turns span recording off and returns the buffers.
func (s *shimPS) stopTrace() []*workerTrace {
	out := make([]*workerTrace, len(s.recs))
	for i, r := range s.recs {
		r.closeRoot(time.Time{})
		out[i], r.tr = r.tr, nil
	}
	return out
}

// accesses returns the key accesses completed so far.
func (s *shimPS) accesses() int64 {
	var n int64
	for _, r := range s.recs {
		for _, k := range r.keys {
			n += k
		}
	}
	return n
}

func (s *shimPS) opErrors() int64 {
	var n int64
	for _, r := range s.recs {
		n += r.errs
	}
	return n
}

// timings returns each worker's read and write timings in the order taken.
func (s *shimPS) timings() (reads, writes []latencies) {
	for _, r := range s.recs {
		if s.trainer {
			reads = append(reads, r.localize)
		} else {
			reads = append(reads, r.read)
		}
		writes = append(writes, r.write)
	}
	return reads, writes
}

// pooled returns the workers' timings as one ascending sample.
func pooled(workers []latencies) latencies {
	var all latencies
	for _, l := range workers {
		all = append(all, l...)
	}
	return all.sorted()
}

// shimKV decorates one worker's handle. Clock, NodeID and WorkerID pass
// through the embedded handle.
type shimKV struct {
	kv.KV
	rec *workerRec
}

func (s *shimKV) Pull(keys []kv.Key, dst []float32) error {
	r := s.rec
	r.calls[opPull]++
	r.keys[opPull] += int64(len(keys))
	if !r.timed(&r.rtick) {
		return r.check(s.KV.Pull(keys, dst))
	}
	t := time.Now()
	err := s.KV.Pull(keys, dst)
	r.done(opPull, t, &r.read, r.every)
	return r.check(err)
}

func (s *shimKV) PullIfLocal(keys []kv.Key, dst []float32) (bool, error) {
	r := s.rec
	r.calls[opPullIfLocal]++
	var ok bool
	var err error
	if !r.timed(&r.rtick) {
		ok, err = s.KV.PullIfLocal(keys, dst)
	} else {
		t := time.Now()
		ok, err = s.KV.PullIfLocal(keys, dst)
		r.done(opPullIfLocal, t, &r.read, r.every)
	}
	if ok {
		r.keys[opPullIfLocal] += int64(len(keys))
	}
	return ok, r.check(err)
}

func (s *shimKV) Push(keys []kv.Key, vals []float32) error {
	r := s.rec
	r.calls[opPush]++
	r.keys[opPush] += int64(len(keys))
	if !r.timed(&r.wtick) {
		return r.check(s.KV.Push(keys, vals))
	}
	t := time.Now()
	err := s.KV.Push(keys, vals)
	r.done(opPush, t, &r.write, r.every)
	return r.check(err)
}

// PushAsync's failure, if any, surfaces at WaitAll.
func (s *shimKV) PushAsync(keys []kv.Key, vals []float32) *kv.Future {
	r := s.rec
	r.calls[opPushAsync]++
	r.keys[opPushAsync] += int64(len(keys))
	if !r.timed(&r.wtick) {
		return s.KV.PushAsync(keys, vals)
	}
	t := time.Now()
	f := s.KV.PushAsync(keys, vals)
	r.done(opPushAsync, t, &r.write, r.every)
	return f
}

func (s *shimKV) PullAsync(keys []kv.Key, dst []float32) *kv.Future {
	r := s.rec
	r.calls[opPullAsync]++
	r.keys[opPullAsync] += int64(len(keys))
	if r.tr == nil {
		return s.KV.PullAsync(keys, dst)
	}
	t := time.Now()
	f := s.KV.PullAsync(keys, dst)
	r.done(opPullAsync, t, nil, 1)
	return f
}

func (s *shimKV) Localize(keys []kv.Key) error {
	r := s.rec
	r.calls[opLocalize]++
	t := time.Now()
	err := s.KV.Localize(keys)
	r.done(opLocalize, t, &r.localize, 1)
	return r.check(err)
}

func (s *shimKV) LocalizeAsync(keys []kv.Key) *kv.Future {
	r := s.rec
	r.calls[opLocalizeAsync]++
	if r.tr == nil {
		return s.KV.LocalizeAsync(keys)
	}
	t := time.Now()
	f := s.KV.LocalizeAsync(keys)
	r.done(opLocalizeAsync, t, nil, 1)
	return f
}

func (s *shimKV) WaitAll() error {
	r := s.rec
	r.calls[opWaitAll]++
	if r.tr == nil {
		return r.check(s.KV.WaitAll())
	}
	t := time.Now()
	err := s.KV.WaitAll()
	r.done(opWaitAll, t, nil, 1)
	return r.check(err)
}

func (s *shimKV) Barrier() {
	r := s.rec
	r.calls[opBarrier]++
	if r.tr == nil {
		s.KV.Barrier()
		return
	}
	t := time.Now()
	s.KV.Barrier()
	r.done(opBarrier, t, nil, 1)
}

// shimMG is the handle of a PS whose handles also serve MultiGet.
type shimMG struct {
	*shimKV
	mg multiGetter
}

// MultiGet counts the read; in a traced run the span covers the wait for the
// values too (the generator waits right after the call either way).
func (s *shimMG) MultiGet(keys []kv.Key, dst []float32) *kv.Future {
	r := s.rec
	r.calls[opMultiGet]++
	r.keys[opMultiGet] += int64(len(keys))
	if r.tr == nil {
		return s.mg.MultiGet(keys, dst)
	}
	t := time.Now()
	f := s.mg.MultiGet(keys, dst)
	_ = f.Wait() // the generator waits on f too and books a failure
	r.done(opMultiGet, t, nil, 1)
	return f
}

// traceShares splits the workers' root-span time into the share each kind of
// call took (sampled spans count weight times) and the roots' self time
// ("other"). The shares sum to 1. spans is the number of spans recorded.
func traceShares(traces []*workerTrace) (shares map[string]float64, spans int64) {
	sums := map[string]float64{}
	var rootTime, childTime float64
	for _, t := range traces {
		spans += int64(len(t.spans))
		for _, sp := range t.spans {
			d := float64(sp.end - sp.start)
			if sp.op == opRoot {
				rootTime += d
				continue
			}
			if sp.parent < 0 {
				continue // outside any root: not part of the accounted time
			}
			sums[shareOf[sp.op]] += d * float64(sp.weight)
			childTime += d * float64(sp.weight)
		}
	}
	shares = map[string]float64{}
	if rootTime <= 0 {
		return shares, spans
	}
	// Sampling error can push the children's estimate past the roots' time;
	// scale it back so the shares stay a partition of the measured time.
	scale := 1.0
	if childTime > rootTime {
		scale = rootTime / childTime
	}
	for _, name := range shareNames {
		shares[name] = sums[name] * scale / rootTime
	}
	shares["other"] = max(0, 1-childTime*scale/rootTime)
	return shares, spans
}

// writeTrace writes the spans as JSON: per worker a list of
// [op, start_ns, end_ns, parent, req, weight] rows.
func writeTrace(path, workload string, traces []*workerTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, `{"workload":%q,"columns":["op","start_ns","end_ns","parent","req","weight"],"ops":[`, workload)
	for i, n := range opNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString(`],"workers":[`)
	var buf []byte
	for wi, t := range traces {
		if wi > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, `{"worker":%d,"t0_unix_ns":%d,"dropped":%d,"spans":[`, wi, t.t0.UnixNano(), t.dropped)
		for i, sp := range t.spans {
			buf = buf[:0]
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '[')
			for j, v := range [...]int64{int64(sp.op), sp.start, sp.end, int64(sp.parent), int64(sp.req), int64(sp.weight)} {
				if j > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendInt(buf, v, 10)
			}
			buf = append(buf, ']')
			w.Write(buf)
		}
		w.WriteString("]}")
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
