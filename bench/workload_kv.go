package main

import (
	"math/rand"
	"sync"
	"time"

	"lapse/internal/adaptive"
	"lapse/internal/core"
	"lapse/internal/driver"
	"lapse/internal/kv"
)

// kvSpec describes a closed-loop workload: each worker issues its next
// operation only after the previous one completed.
type kvSpec struct {
	keys    kv.Key
	valLen  int
	batch   int     // keys per operation
	zipfS   float64 // Zipf skew over all keys; 0 = uniform over the other node's keys
	roundOp int     // pulls per worker per round (a push follows every 2nd)
	warmOps int     // warm-up pulls per worker …
	warmDur time.Duration
	opt     driver.Options
	// shmRings/tcp select the fabric; neither means the simulated network.
	tcp, shmRings bool
	// settle records the cold-start trajectory of the remote-read ratio
	// (adaptive.settle_ms) in a traced run.
	settle bool
}

const pushEvery = 2

// kvGen is one worker's generator: the seeded key stream, its buffers, and
// the tally of what it pushed, which is the oracle for the final sums (and,
// where a key has a single writer, for every pull).
type kvGen struct {
	spec   *kvSpec
	h      kv.KV
	rng    *rand.Rand
	zipf   *rand.Zipf
	lo     uint64 // uniform draws cover [lo, lo+n)
	n      uint64
	keys   []kv.Key
	buf    []float32
	delta  []float32
	tally  []int64 // sum this worker pushed, per key
	exact  bool    // this worker is the only writer of the keys it reads
	ops    int
	misses int64 // pulls whose values failed the oracle
	hash   uint64
}

func newKVGen(spec *kvSpec, worker int, seed int64) *kvGen {
	g := &kvGen{
		spec:  spec,
		rng:   rand.New(rand.NewSource(seed*1000 + int64(worker))),
		keys:  make([]kv.Key, spec.batch),
		buf:   make([]float32, spec.batch*spec.valLen),
		delta: make([]float32, spec.batch*spec.valLen),
		tally: make([]int64, spec.keys),
		hash:  fnvOffset,
	}
	if spec.zipfS > 0 {
		g.zipf = rand.NewZipf(g.rng, spec.zipfS, 1, uint64(spec.keys-1))
	} else {
		// Range partition: node i homes [i·K/2, (i+1)·K/2). A worker draws
		// from the other node's half, so every access crosses the fabric and
		// each key has exactly one writer.
		half := uint64(spec.keys) / benchNodes
		g.lo, g.n, g.exact = uint64(1-worker)*half, half, true
	}
	return g
}

func (g *kvGen) draw() {
	for i := range g.keys {
		var k uint64
		if g.zipf != nil {
			k = g.zipf.Uint64()
		} else {
			k = g.lo + uint64(g.rng.Int63n(int64(g.n)))
		}
		g.keys[i] = kv.Key(k)
		g.hash = fnvAdd(g.hash, k)
	}
}

// step issues one pull and, every 2nd op, one push of integer deltas.
// Failed calls are counted by the shim.
func (g *kvGen) step() {
	g.draw()
	vl := g.spec.valLen
	if g.h.Pull(g.keys, g.buf) == nil {
		for i, k := range g.keys {
			if !uniformInt(g.buf[i*vl:(i+1)*vl]) || (g.exact && int64(g.buf[i*vl]) != g.tally[k]) {
				g.misses++
			}
		}
	}
	g.ops++
	if g.ops%pushEvery != 0 {
		return
	}
	d := float32(1 + g.rng.Intn(3))
	for i := range g.delta {
		g.delta[i] = d
	}
	if g.h.Push(g.keys, g.delta) == nil {
		for _, k := range g.keys {
			g.tally[k] += int64(d)
		}
	}
}

// uniformInt reports whether every element of a key's value equals the
// first and is a non-negative whole number: pushes add one integer to all
// elements at once, so anything else is a torn or lost update.
func uniformInt(v []float32) bool {
	x := v[0]
	if x < 0 || x != float32(int64(x)) {
		return false
	}
	for _, y := range v[1:] {
		if y != x {
			return false
		}
	}
	return true
}

type kvInstance struct {
	*psInstance
	spec     *kvSpec
	roundOps int // pulls per worker per round
	gens     []*kvGen
	settle   *settleSampler
}

func (s *kvSpec) build(e *env) (instance, error) {
	d, cleanup := simDeployment(netProfile()), func() {}
	if s.tcp || s.shmRings {
		var err error
		if d, cleanup, err = realDeployment(e, s.shmRings); err != nil {
			return nil, err
		}
	}
	p, err := newPSInstance(d, cleanup, kv.NewUniformLayout(s.keys, s.valLen), s.opt, 1)
	if err != nil {
		return nil, err
	}
	in := &kvInstance{psInstance: p, spec: s, roundOps: e.scaled(s.roundOp, 20)}
	for w := 0; w < p.cl.TotalWorkers(); w++ {
		g := newKVGen(s, w, e.seed)
		g.h = p.ps.Handle(w)
		in.gens = append(in.gens, g)
	}
	if s.settle && e.trace {
		in.settle = startSettleSampler(p.ps)
	}
	// Warm-up: connections dialled, pools filled, the adaptive controller
	// through its first classification epochs.
	deadline := time.Now().Add(s.warmDur)
	in.cl.RunWorkers(func(_, w int) {
		g := in.gens[w]
		for i := 0; i < e.scaled(s.warmOps, 50) || time.Now().Before(deadline); i++ {
			g.step()
		}
	})
	return in, nil
}

func (in *kvInstance) measure(budget time.Duration) []roundStat {
	var rounds []roundStat
	for start := time.Now(); time.Since(start) < budget; {
		rounds = append(rounds, in.round())
	}
	return rounds
}

// round runs the fixed per-worker op count on every worker.
func (in *kvInstance) round() roundStat {
	before := in.ps.accesses()
	t := time.Now()
	in.cl.RunWorkers(func(_, w int) {
		g := in.gens[w]
		in.ps.recs[w].openRoot()
		for i := 0; i < in.roundOps; i++ {
			g.step()
		}
		in.ps.recs[w].closeRoot(time.Now())
	})
	return roundStat{accesses: in.ps.accesses() - before, dur: time.Since(t)}
}

func (in *kvInstance) extras() map[string]float64 {
	if in.settle == nil {
		return nil
	}
	return map[string]float64{"adaptive.settle_ms": in.settle.settleMillis()}
}

// verify compares every key's final value with the sum the generators
// pushed. Replicated keys converge through the sync cycle, so a mismatch is
// re-read (after forcing sync rounds) for up to two seconds before it counts.
func (in *kvInstance) verify() oracle {
	var o oracle
	for _, g := range in.gens {
		o.attempted += int64(g.ops + g.ops/pushEvery)
		if g.misses > 0 {
			o.fail(g.misses, "worker pulls failing the value oracle: %d", g.misses)
		}
	}
	sys, _ := in.ps.PS.(*core.System)
	buf := make([]float32, in.spec.valLen)
	deadline := time.Now().Add(2 * time.Second)
	for k := kv.Key(0); k < in.spec.keys; k++ {
		var want int64
		for _, g := range in.gens {
			want += g.tally[k]
		}
		for {
			in.ps.ReadParameter(k, buf)
			if uniformInt(buf) && int64(buf[0]) == want {
				break
			}
			if sys == nil || !time.Now().Before(deadline) {
				o.fail(1, "key %d: final value %v, pushed sum %d", k, buf[0], want)
				break
			}
			sys.FlushReplicas()
			time.Sleep(2 * time.Millisecond)
		}
	}
	return o
}

func (in *kvInstance) close() {
	if in.settle != nil {
		in.settle.stop()
	}
	in.psInstance.close()
}

func (s *kvSpec) streamHash(e *env) uint64 {
	h := uint64(fnvOffset)
	for w := 0; w < benchNodes*benchWorkers; w++ {
		g := newKVGen(s, w, e.seed)
		for i := 0; i < 1024; i++ {
			g.draw()
		}
		h = fnvAdd(h, g.hash)
	}
	return h
}

// settleSampler polls the cluster's read counters every 20 ms from cold
// start, to find when the remote-read ratio stopped moving.
type settleSampler struct {
	ps     *shimPS
	start  time.Time
	mu     sync.Mutex
	at     []time.Duration
	remote []int64
	total  []int64
	quit   chan struct{}
	done   chan struct{}
}

func startSettleSampler(ps *shimPS) *settleSampler {
	s := &settleSampler{ps: ps, start: time.Now(), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				var remote, total int64
				for _, st := range ps.Stats() {
					remote += st.RemoteReads.Load()
					total += st.RemoteReads.Load() + st.LocalReads.Load() + st.ReplicaHits.Load()
				}
				s.mu.Lock()
				s.at = append(s.at, time.Since(s.start))
				s.remote = append(s.remote, remote)
				s.total = append(s.total, total)
				s.mu.Unlock()
			}
		}
	}()
	return s
}

func (s *settleSampler) stop() {
	select {
	case <-s.quit:
	default:
		close(s.quit)
	}
	<-s.done
}

// settleMillis is the time from cold start after which the remote-read
// ratio, taken over a sliding window of ten samples (200 ms), stays within
// 10 % (at least 0.02) of its value over the last quarter of the samples.
func (s *settleSampler) settleMillis() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	const span = 10
	n := len(s.at)
	if n < 4*span {
		return 0
	}
	ratio := func(i, j int) float64 {
		if s.total[j] == s.total[i] {
			return 0
		}
		return float64(s.remote[j]-s.remote[i]) / float64(s.total[j]-s.total[i])
	}
	final := ratio(n-1-n/4, n-1)
	tol := max(0.1*final, 0.02)
	settled := s.at[span]
	for i := span; i < n; i++ {
		if r := ratio(i-span, i); r < final-tol || r > final+tol {
			settled = s.at[i]
		}
	}
	return float64(settled) / 1e6
}

var kvRemoteTCP = &kvSpec{keys: 2048, valLen: 16, batch: 4, roundOp: 10_000, warmOps: 10_000, tcp: true}

var kvRemoteSHM = &kvSpec{keys: 2048, valLen: 16, batch: 4, roundOp: 20_000, warmOps: 20_000, shmRings: true}

var zipfAdaptive = &kvSpec{keys: 2048, valLen: 16, batch: 1, zipfS: 1.3, roundOp: 500,
	warmDur: 300 * time.Millisecond, settle: true,
	opt: driver.Options{Adaptive: &adaptive.Config{}}}
