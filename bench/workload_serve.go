package main

import (
	"fmt"
	"math/rand"
	"time"

	"lapse/internal/core"
	"lapse/internal/driver"
	"lapse/internal/kv"
)

// serve_rw: open-loop reads through the lease cache with synchronous writes
// mixed in. Requests are due on a fixed schedule whether or not earlier ones
// finished, and a read's sojourn is timed from the instant it was due, so a
// backlog shows as latency. The window is a ladder of three offered rates.
//
// Probes on the 2-core reference box put saturation goodput at 7.3–8.5 k
// requests/s (it rises with the offered rate: more reads share each 200 ms
// lease) and show what repeats and what does not. At 1 k rps sojourn is
// service time: p50 the hit path, p90–p99 one 640 µs miss (654–669 µs over
// three seeds). From 2 k rps up the tail is set by which requests happen to
// queue behind a blocked worker (p99 at 4 k rps: 4.5–6.1 ms; at 4.5 k rps the
// backlog no longer drains), which amplifies a service-time change — and
// run-to-run noise just as much. So the run's bounded read latency is the
// light step's, the overload step gives goodput, and the knee step is
// reported per layer, unbounded.
const (
	serveKeys      = 2048
	serveValLen    = 8
	serveBatch     = 4
	serveZipfS     = 1.6
	serveHotK      = 64  // the hot set moves by this many keys …
	serveDrift     = 400 // … every this many requests
	serveWriteEach = 4   // one synchronous push after every 4th read
	serveTTL       = 200 * time.Millisecond
	serveSLO       = 5 * time.Millisecond // limit on read sojourn p99
)

// serveStep is one rung of the ladder. share is the part of the window's
// budget the step is sized for; at the overload rate the schedule is shorter
// than the step, which ends when the fixed request count has completed.
type serveStep struct {
	name  string
	rate  float64 // offered read requests per second, whole cluster
	share float64
}

var serveLadder = []serveStep{
	{"light", 1000, 0.40},
	{"knee", 4000, 0.25},
	{"overload", 24000, 0.10},
}

// serveGen is one worker's request generator and oracle state.
type serveGen struct {
	h     kv.KV
	mg    multiGetter
	rec   *workerRec
	rng   *rand.Rand
	zipf  *rand.Zipf
	base  uint64 // hot-set rotation
	since int    // requests since the rotation last started from 0
	reqs  int
	keys  []kv.Key
	buf   []float32
	pkey  []kv.Key
	delta []float32
	tally []int64
	bad   int64
	hash  uint64
}

func newServeGen(worker int, seed int64) *serveGen {
	g := &serveGen{
		rng:   rand.New(rand.NewSource(seed*1000 + 500 + int64(worker))),
		keys:  make([]kv.Key, serveBatch),
		buf:   make([]float32, serveBatch*serveValLen),
		pkey:  make([]kv.Key, 1),
		delta: make([]float32, serveValLen),
		tally: make([]int64, serveKeys),
		hash:  fnvOffset,
	}
	g.zipf = rand.NewZipf(g.rng, serveZipfS, 1, serveKeys-1)
	return g
}

// sample returns a Zipf rank rotated by the drifting hot-set offset.
func (g *serveGen) sample() kv.Key {
	k := (g.base + g.zipf.Uint64()) % serveKeys
	g.hash = fnvAdd(g.hash, k)
	return kv.Key(k)
}

// read issues one MultiGet and waits for it; write, after every 4th read,
// one synchronous single-key push (timed by the shim).
func (g *serveGen) read() {
	if g.since > 0 && g.since%serveDrift == 0 {
		g.base = (g.base + serveHotK) % serveKeys
	}
	g.since++
	g.reqs++
	for i := range g.keys {
		g.keys[i] = g.sample()
	}
	if g.rec.check(g.mg.MultiGet(g.keys, g.buf).Wait()) != nil {
		return
	}
	for i := range g.keys {
		if !uniformInt(g.buf[i*serveValLen : (i+1)*serveValLen]) {
			g.bad++
		}
	}
}

func (g *serveGen) write() {
	g.pkey[0] = g.sample()
	d := float32(1 + g.rng.Intn(3))
	for i := range g.delta {
		g.delta[i] = d
	}
	if g.h.Push(g.pkey, g.delta) == nil {
		g.tally[g.pkey[0]] += int64(d)
	}
}

// stepResult is what one rung measured.
type stepResult struct {
	byWorker []latencies // sojourns per worker, in request order
	sojourn  latencies   // read completion − scheduled arrival, ascending
	write    latencies   // synchronous push, ascending
	lag      latencies   // read issue − scheduled arrival, ascending
	elapsed  time.Duration
	backlog  bool // the last request was issued late by more than the SLO
}

type serveInstance struct {
	*psInstance
	gens  []*serveGen
	steps map[string]*stepResult
}

func buildServe(e *env) (instance, error) {
	p, err := newPSInstance(simDeployment(netProfile()), nil, kv.NewUniformLayout(serveKeys, serveValLen),
		driver.Options{Serving: &core.ServingConfig{TTL: serveTTL}}, 1)
	if err != nil {
		return nil, err
	}
	in := &serveInstance{psInstance: p}
	for w := 0; w < p.cl.TotalWorkers(); w++ {
		g := newServeGen(w, e.seed)
		g.h = p.ps.Handle(w)
		mg, ok := g.h.(multiGetter)
		if !ok {
			p.close()
			return nil, fmt.Errorf("serve_rw: handle %T has no MultiGet", g.h)
		}
		g.mg, g.rec = mg, p.ps.recs[w]
		in.gens = append(in.gens, g)
	}
	// Warm-up: the same request mix closed-loop, so the lease cache is
	// populated when the first scheduled request is due.
	warm := e.scaled(1500, 50)
	in.cl.RunWorkers(func(_, w int) {
		g := in.gens[w]
		for i := 0; i < warm; i++ {
			g.read()
			if i%serveWriteEach == serveWriteEach-1 {
				g.write()
			}
		}
	})
	return in, nil
}

// measure runs the ladder, each step sized from the budget, and returns the
// overload step as the window's one throughput round: the paced steps
// complete exactly what was offered. The window's read samples are the light
// step's sojourns; its write samples are every step's synchronous pushes (a
// push blocks only its own worker, so its latency does not depend on the
// offered rate).
func (in *serveInstance) measure(budget time.Duration) []roundStat {
	in.steps = map[string]*stepResult{}
	// Goodput depends on where the drifting hot set sits relative to the
	// node boundary, so every window walks the same path from the start.
	for _, g := range in.gens {
		g.base, g.since = 0, 0
	}
	var last roundStat
	for _, st := range serveLadder {
		perWorker := int(st.rate * st.share * budget.Seconds() / float64(len(in.gens)))
		before := in.ps.accesses()
		r := in.step(st, max(perWorker, 20))
		in.steps[st.name] = r
		last = roundStat{accesses: in.ps.accesses() - before, dur: r.elapsed}
	}
	for w, r := range in.ps.recs {
		r.read = in.steps["light"].byWorker[w]
	}
	return []roundStat{last}
}

// step runs perWorker scheduled requests on every worker off one shared
// start instant. Worker w of W owns arrivals w, w+W, w+2W, … of the schedule.
func (in *serveInstance) step(st serveStep, perWorker int) *stepResult {
	W := len(in.gens)
	per := float64(time.Second) / st.rate
	parts := make([]stepResult, W)
	start := time.Now().Add(200 * time.Microsecond)
	in.cl.RunWorkers(func(_, w int) {
		g, rec, p := in.gens[w], in.ps.recs[w], &parts[w]
		p.sojourn = make(latencies, 0, perWorker)
		p.lag = make(latencies, 0, perWorker)
		writes := len(rec.write)
		for i := 0; i < perWorker; i++ {
			sched := start.Add(time.Duration(float64(i*W+w) * per))
			rec.openRoot()
			if wait := time.Until(sched); wait > 0 {
				t := time.Now()
				in.cl.Compute(wait) // simnet sleeps precisely through its scheduler
				if rec.tr != nil {
					rec.tr.add(opPace, t, time.Now(), 1)
				}
			}
			late := time.Since(sched)
			p.lag.add(int64(late))
			p.backlog = late > serveSLO
			g.read()
			p.sojourn.add(int64(time.Since(sched)))
			if i%serveWriteEach == serveWriteEach-1 {
				g.write()
			}
			rec.closeRoot(time.Now())
		}
		p.write = append(p.write, rec.write[writes:]...)
	})
	res := &stepResult{elapsed: time.Since(start)}
	for _, p := range parts {
		res.byWorker = append(res.byWorker, p.sojourn)
		res.sojourn = append(res.sojourn, p.sojourn...)
		res.lag = append(res.lag, p.lag...)
		res.write = append(res.write, p.write...)
		res.backlog = res.backlog || p.backlog
	}
	res.sojourn, res.lag, res.write = res.sojourn.sorted(), res.lag.sorted(), res.write.sorted()
	return res
}

func (in *serveInstance) extras() map[string]float64 {
	out := map[string]float64{}
	knee, over := in.steps["knee"], in.steps["overload"]
	if knee == nil || over == nil {
		return out
	}
	out["user.goodput_rps"] = float64(len(over.sojourn)) / over.elapsed.Seconds()
	out["user.sojourn_p50_ms"] = knee.sojourn.pct(0.5) / 1e6
	out["user.sojourn_p99_ms"] = knee.sojourn.pct(0.99) / 1e6
	out["user.write_p99_ms"] = knee.write.pct(0.99) / 1e6
	out["bench.gen_lag_p99_us"] = knee.lag.pct(0.99) / 1e3
	// Highest offered rate whose read sojourn p99 met the limit without a
	// backlog still growing at the end of the step; 0 if none did.
	for _, st := range serveLadder {
		if r := in.steps[st.name]; r.sojourn.pct(0.99) <= float64(serveSLO) && !r.backlog {
			out["user.slo_rate_rps"] = st.rate
		}
	}
	return out
}

func (in *serveInstance) verify() oracle {
	var o oracle
	for _, g := range in.gens {
		o.attempted += int64(g.reqs + g.reqs/serveWriteEach)
		if g.bad > 0 {
			o.fail(g.bad, "reads returning a torn or non-integer value: %d", g.bad)
		}
	}
	buf := make([]float32, serveValLen)
	for k := kv.Key(0); k < serveKeys; k++ {
		var want int64
		for _, g := range in.gens {
			want += g.tally[k]
		}
		in.ps.ReadParameter(k, buf)
		if !uniformInt(buf) || int64(buf[0]) != want {
			o.fail(1, "key %d: final value %v, pushed sum %d", k, buf[0], want)
		}
	}
	return o
}

func serveStreamHash(e *env) uint64 {
	h := uint64(fnvOffset)
	for w := 0; w < benchNodes*benchWorkers; w++ {
		g := newServeGen(w, e.seed)
		for i := 0; i < 4096; i++ {
			g.sample()
		}
		h = fnvAdd(h, g.hash)
	}
	return h
}
