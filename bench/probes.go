package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lapse/internal/adaptive"
	"lapse/internal/cluster"
	"lapse/internal/core"
	"lapse/internal/data"
	"lapse/internal/driver"
	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/ml/mf"
	"lapse/internal/ml/w2v"
	"lapse/internal/msg"
	"lapse/internal/replication"
	"lapse/internal/server"
	"lapse/internal/simnet"
	"lapse/internal/store"
	"lapse/internal/transport"
	"lapse/internal/transport/shm"
	"lapse/internal/transport/tcp"
)

// The layer probes time calls into one package's exported functions, from
// here, with the message shapes the workloads produce. Iteration counts are
// fixed; each figure is the median of probeBatches batches.
const probeBatches = 5

type prober struct {
	out map[string]float64
	e   *env
}

// n scales an iteration count down to 1/100 in a smoke run.
func (p *prober) n(iters int) int {
	if p.e.smoke {
		return max(4, iters/100)
	}
	return iters
}

// nsPerOp runs fn(iters) probeBatches times; median ns per iteration.
func (p *prober) nsPerOp(iters int, fn func(n int)) float64 {
	iters = p.n(iters)
	v := make([]float64, probeBatches)
	for b := range v {
		t := time.Now()
		fn(iters)
		v[b] = float64(time.Since(t)) / float64(iters)
	}
	return median(v)
}

func keyRange(lo, n int) []kv.Key {
	keys := make([]kv.Key, n)
	for i := range keys {
		keys[i] = kv.Key(lo + i)
	}
	return keys
}

func ones(n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// runProbes fills every probe metric into out. A probe that cannot run on
// this host (no shared-memory support) leaves its metrics at 0.
func runProbes(out map[string]float64, e *env) {
	p := &prober{out: out, e: e}
	p.msg()
	p.store()
	p.futures()
	p.pending()
	p.simnet()
	p.fabrics()
	p.barrier()
	p.core()
	p.trackerAndMetrics()
	p.adaptive()
	p.mlAndData()
}

var sink atomic.Int64 // keeps probe results alive

func (p *prober) msg() {
	op := &msg.Op{Type: msg.OpPull, ID: 7, Origin: 1, Keys: keyRange(100, 4)}
	resp := &msg.OpResp{Type: msg.OpPull, ID: 7, Responder: 1, Keys: keyRange(100, 4), Vals: ones(4 * 16)}
	reloc := &msg.RelocTransfer{ID: 9, Keys: keyRange(0, 64), Vals: ones(64 * 16)}
	refresh := &msg.ReplicaRefresh{Origin: 1, Ack: 3, Keys: keyRange(0, 32), Vals: ones(32 * 16)}
	buf := make([]byte, 0, 8192)
	sc := msg.GetScratch()
	defer sc.Release()
	codec := func(m any, iters int, encName, decName string) {
		p.out[encName] = p.nsPerOp(iters, func(n int) {
			for i := 0; i < n; i++ {
				buf = msg.AppendTo(buf[:0], m)
			}
		})
		enc := msg.Encode(m)
		p.out[decName] = p.nsPerOp(iters, func(n int) {
			for i := 0; i < n; i++ {
				if _, _, err := sc.Decode(enc); err != nil {
					panic(err)
				}
			}
		})
	}
	codec(op, 200_000, "msg.op_encode_ns", "msg.op_decode_ns")
	codec(resp, 200_000, "msg.resp_encode_ns", "msg.resp_decode_ns")
	codec(reloc, 40_000, "msg.reloc_encode_ns", "msg.reloc_decode_ns")
	p.out["msg.refresh_roundtrip_ns"] = p.nsPerOp(40_000, func(n int) {
		for i := 0; i < n; i++ {
			buf = msg.AppendTo(buf[:0], refresh)
			if _, _, err := sc.Decode(buf); err != nil {
				panic(err)
			}
		}
	})
	// The pooled path the transports use, request plus response.
	roundtrip := func(m any) {
		bp := msg.GetBuf()
		*bp = msg.AppendTo(*bp, m)
		s := msg.GetScratch()
		if _, _, err := s.Decode(*bp); err != nil {
			panic(err)
		}
		s.Release()
		msg.PutBuf(bp)
	}
	iters := p.n(50_000)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < iters; i++ {
		roundtrip(op)
		roundtrip(resp)
	}
	runtime.ReadMemStats(&m1)
	p.out["msg.roundtrip_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(iters)
}

func (p *prober) store() {
	layout := kv.NewUniformLayout(4096, 16)
	st := store.NewDense(layout, 0)
	zero := make([]float32, 16)
	for k := kv.Key(0); k < layout.NumKeys(); k++ {
		st.Set(k, zero)
	}
	dst, delta := make([]float32, 16), ones(16)
	p.out["store.read_ns"] = p.nsPerOp(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			st.Read(kv.Key(i&4095), dst)
		}
	})
	p.out["store.add_ns"] = p.nsPerOp(1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			st.Add(kv.Key(i&4095), delta)
		}
	})
	// Two goroutines adding to the same 8 keys: latch hand-over.
	p.out["store.add_contended_ns"] = p.nsPerOp(500_000, func(n int) {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d := ones(16)
				for i := 0; i < n/2; i++ {
					st.Add(kv.Key(i&7), d)
				}
			}()
		}
		wg.Wait()
	})
	// What a relocation does to a key at both ends.
	p.out["store.take_set_ns"] = p.nsPerOp(500_000, func(n int) {
		for i := 0; i < n; i++ {
			k := kv.Key(i & 4095)
			st.Set(k, st.Take(k))
		}
	})
}

func (p *prober) futures() {
	ch := make(chan *kv.Future)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for f := range ch {
			f.Complete(nil)
		}
	}()
	p.out["kv.future_roundtrip_ns"] = p.nsPerOp(100_000, func(n int) {
		for i := 0; i < n; i++ {
			f := kv.NewFuture()
			ch <- f
			if err := f.Wait(); err != nil {
				panic(err)
			}
		}
	})
	close(ch)
	<-done
}

func (p *prober) pending() {
	layout := kv.NewUniformLayout(4096, 16)
	pend := server.NewPending()
	keys := keyRange(100, 4)
	resp := &msg.OpResp{Type: msg.OpPull, Keys: keys, Vals: ones(4 * 16)}
	dst := make([]float32, 4*16)
	entries := make([]server.OpEntry, 4)
	p.out["server.pending_roundtrip_ns"] = p.nsPerOp(200_000, func(n int) {
		for i := 0; i < n; i++ {
			for j, k := range keys {
				entries[j] = server.OpEntry{Key: k, Off: int32(j * 16)}
			}
			id, f := pend.RegisterOp(len(keys), dst, entries)
			resp.ID = id
			pend.CompleteResp(layout, resp)
			if err := f.Wait(); err != nil {
				panic(err)
			}
		}
	})
}

func (p *prober) simnet() {
	op := &msg.Op{Type: msg.OpPull, ID: 1, Keys: keyRange(100, 4)}
	zero := simnet.New(simnet.Config{Nodes: 2})
	p.out["simnet.send_deliver_ns"] = p.nsPerOp(100_000, func(n int) {
		for i := 0; i < n; i++ {
			zero.Send(0, 1, op)
			env := <-zero.Inbox(1, 0)
			env.Recycle()
		}
	})
	zero.Close()

	cfg := netProfile()
	cfg.Nodes = 2
	timed := simnet.New(cfg)
	defer timed.Close()
	n := p.n(1000)
	sleeps, deliveries := make(latencies, 0, n), make(latencies, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		timed.Sleep(cfg.Latency)
		sleeps.add(int64(time.Since(t) - cfg.Latency))
	}
	wire := cfg.Latency + time.Duration(float64(msg.Size(op))/cfg.BytesPerSecond*float64(time.Second))
	for i := 0; i < n; i++ {
		t := time.Now()
		timed.Send(0, 1, op)
		env := <-timed.Inbox(1, 0)
		deliveries.add(int64(time.Since(t) - wire))
		env.Recycle()
	}
	sleeps, deliveries = sleeps.sorted(), deliveries.sorted()
	p.out["simnet.sleep_overshoot_p50_us"] = sleeps.pct(0.5) / 1e3
	p.out["simnet.sleep_overshoot_p99_us"] = sleeps.pct(0.99) / 1e3
	p.out["simnet.delivery_overshoot_p99_us"] = deliveries.pct(0.99) / 1e3
}

// fabrics measures the two real transports bare: request/response ping-pong
// (one outstanding) and a 64-deep stream, between two in-process nodes.
func (p *prober) fabrics() {
	tcpNet, err := tcp.New(tcp.Config{Addrs: []string{"127.0.0.1:0", "127.0.0.1:0"}})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: tcp probe skipped:", err)
	} else {
		p.fabric("tcp", tcpNet)
	}
	if !shm.Supported() {
		return
	}
	if err := os.MkdirAll(p.e.tmpDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench: shm probe skipped:", err)
		return
	}
	dir, err := os.MkdirTemp(p.e.tmpDir, "shm-probe-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: shm probe skipped:", err)
		return
	}
	defer os.RemoveAll(dir)
	shmNet, err := shm.New(shm.Config{Dir: dir, Nodes: 2})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: shm probe skipped:", err)
		return
	}
	p.fabric("shm", shmNet)
}

func (p *prober) fabric(name string, net transport.Network) {
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		vals := ones(4 * 16)
		for env := range net.Inbox(1, 0) {
			op := env.Msg.(*msg.Op)
			net.Send(1, 0, &msg.OpResp{Type: op.Type, ID: op.ID, Responder: 1, Keys: op.Keys, Vals: vals})
			env.Recycle()
		}
	}()
	req := &msg.Op{Type: msg.OpPull, Origin: 0, Keys: keyRange(100, 4)}
	ping := func() {
		net.Send(0, 1, req)
		env := <-net.Inbox(0, 0)
		env.Recycle()
	}
	for i := 0; i < p.n(2000); i++ {
		ping() // connections dialled, pools warm
	}
	n := p.n(10_000)
	rtt := make(latencies, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		ping()
		rtt.add(int64(time.Since(t)))
	}
	rtt = rtt.sorted()
	p.out[name+".rtt_p50_us"] = rtt.pct(0.5) / 1e3
	p.out[name+".rtt_p99_us"] = rtt.pct(0.99) / 1e3

	const depth = 64
	perOp := p.nsPerOp(50_000, func(n int) {
		sent := 0
		for ; sent < min(depth, n); sent++ {
			net.Send(0, 1, req)
		}
		for got := 0; got < n; got++ {
			env := <-net.Inbox(0, 0)
			env.Recycle()
			if sent < n {
				net.Send(0, 1, req)
				sent++
			}
		}
	})
	p.out[name+".stream_msgs_per_s"] = 2e9 / perOp // a request and a response per iteration
	net.Close()
	<-echoed
}

func (p *prober) barrier() {
	b := cluster.NewBarrier(2)
	p.out["cluster.barrier_us"] = p.nsPerOp(50_000, func(n int) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				b.Wait(1)
			}
		}()
		for i := 0; i < n; i++ {
			b.Wait(0)
		}
		wg.Wait()
	}) / 1e3
}

// core drives worker handles of a 2-node cluster on a zero-latency simnet:
// the whole software path of an access, with no fabric cost.
func (p *prober) core() {
	const keys, valLen = 4096, 16 // node 0 homes [0, 2048), node 1 the rest
	replicated := keyRange(2048, 8)
	layout := kv.NewUniformLayout(keys, valLen)
	cl, err := driver.NewCluster(simDeployment(simnet.Config{}))
	if err != nil {
		panic(err)
	}
	ps := driver.Build(driver.Lapse, cl, layout, driver.Options{Replicate: replicated})
	h0, h1 := ps.Handle(0), ps.Handle(1)
	us := func(ns float64) float64 { return ns / 1e3 }

	local, buf2, d2 := keyRange(10, 2), make([]float32, 2*valLen), ones(2*valLen)
	p.out["core.pull_local_ns"] = p.nsPerOp(200_000, func(n int) {
		for i := 0; i < n; i++ {
			local[0], local[1] = kv.Key(i&1023), kv.Key(1024+i&1023)
			h0.Pull(local, buf2)
		}
	})
	p.out["core.push_local_ns"] = p.nsPerOp(200_000, func(n int) {
		for i := 0; i < n; i++ {
			local[0], local[1] = kv.Key(i&1023), kv.Key(1024+i&1023)
			h0.Push(local, d2)
		}
	})
	p.out["core.push_async_local_ns"] = p.nsPerOp(200_000, func(n int) {
		for i := 0; i < n; i++ {
			local[0], local[1] = kv.Key(i&1023), kv.Key(1024+i&1023)
			h0.PushAsync(local, d2)
		}
		h0.WaitAll()
	})
	p.out["core.pull_if_local_ns"] = p.nsPerOp(200_000, func(n int) {
		for i := 0; i < n; i++ {
			local[0], local[1] = kv.Key(i&1023), kv.Key(1024+i&1023)
			h0.PullIfLocal(local, buf2)
		}
	})
	remote, buf4, d4 := keyRange(3000, 4), make([]float32, 4*valLen), ones(4*valLen)
	p.out["core.pull_remote_us"] = us(p.nsPerOp(30_000, func(n int) {
		for i := 0; i < n; i++ {
			h0.Pull(remote, buf4)
		}
	}))
	p.out["core.push_remote_us"] = us(p.nsPerOp(30_000, func(n int) {
		for i := 0; i < n; i++ {
			h0.Push(remote, d4)
		}
	}))
	one, buf1 := replicated[:1], make([]float32, valLen)
	p.out["core.pull_replica_ns"] = p.nsPerOp(200_000, func(n int) {
		for i := 0; i < n; i++ {
			h0.Pull(one, buf1)
		}
	})
	// A 256-key block homed at node 1 bounces between the nodes.
	block := keyRange(3200, 256)
	before := cl.Net().Stats()
	moves := 0
	perMove := p.nsPerOp(200, func(n int) {
		for i := 0; i < n; i++ {
			h := h0
			if moves%2 == 1 {
				h = h1
			}
			if err := h.Localize(block); err != nil {
				panic(err)
			}
			moves++
		}
	})
	d := cl.Net().Stats().Since(before)
	p.out["core.localize_us_per_key"] = us(perMove) / float64(len(block))
	p.out["core.localize_msgs_per_key"] = float64(d.RemoteMessages+d.LoopbackMessages) / float64(moves*len(block))
	cl.Close()
	ps.Shutdown()

	// The serving tier: MultiGet of 4 remote keys, leased (hit) and not.
	cl, err = driver.NewCluster(simDeployment(simnet.Config{}))
	if err != nil {
		panic(err)
	}
	ps = driver.Build(driver.Lapse, cl, layout, driver.Options{Serving: &core.ServingConfig{TTL: time.Hour}})
	mg := ps.Handle(0).(multiGetter)
	mg.MultiGet(remote, buf4).Wait()
	p.out["core.multiget_hit_ns"] = p.nsPerOp(200_000, func(n int) {
		for i := 0; i < n; i++ {
			mg.MultiGet(remote, buf4).Wait()
		}
	})
	// Misses: every request names 4 keys not read before. 2048 remote keys
	// give 512 requests per batch; a fresh PS per batch would cost more than
	// it buys, so the batches share one and the count is capped.
	next := 2048
	misses := min(p.n(400), 400)
	t := time.Now()
	for i := 0; i < misses; i++ {
		mg.MultiGet(keyRange(next, 4), buf4).Wait()
		next += 4
	}
	p.out["core.multiget_miss_us"] = us(float64(time.Since(t)) / float64(misses))
	cl.Close()
	ps.Shutdown()
}

func (p *prober) trackerAndMetrics() {
	h := replication.NewTracker(0).Handle()
	p.out["replication.tracker_observe_ns"] = p.nsPerOp(5_000_000, func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(kv.Key(i & 1023))
		}
	})
	var hist metrics.Histogram
	p.out["metrics.hist_observe_ns"] = p.nsPerOp(5_000_000, func(n int) {
		for i := 0; i < n; i++ {
			hist.Observe(time.Duration(100 + i&4095))
		}
	})
	sink.Add(hist.Snapshot().Count())
	ring := metrics.NewTraceRing(metrics.DefaultTraceCap)
	p.out["metrics.trace_record_ns"] = p.nsPerOp(500_000, func(n int) {
		for i := 0; i < n; i++ {
			ring.Record(0, 0, "probe", kv.Key(i), 0, 1, "")
		}
	})
}

func (p *prober) adaptive() {
	const report = 128
	keys, counts := keyRange(0, report), make([]float32, report)
	for i := range counts {
		counts[i] = float32(1 + i%7)
	}
	c := adaptive.NewClassifier(adaptive.Config{}, adaptive.View{
		Owner:      func(kv.Key) int { return 0 },
		Replicated: func(kv.Key) bool { return false },
		Busy:       func(kv.Key) bool { return true }, // decide nothing: time the ingest alone
	})
	epoch := uint32(0)
	p.out["adaptive.ingest_ns_per_key"] = p.nsPerOp(2_000, func(n int) {
		for i := 0; i < n; i++ {
			epoch++
			c.Ingest(1, epoch, keys, counts)
		}
	}) / report
}

// nopPS is a parameter server that does nothing, so a trainer run against it
// costs only the trainer's own loop.
type nopPS struct {
	layout kv.Layout
	pulls  atomic.Int64
}

func (s *nopPS) Handle(worker int) kv.KV                { return &nopKV{ps: s, worker: worker} }
func (s *nopPS) Init(func(kv.Key, []float32))           {}
func (s *nopPS) ReadParameter(_ kv.Key, dst []float32)  { clear(dst) }
func (s *nopPS) Stats() []*metrics.ServerStats          { return nil }
func (s *nopPS) Latencies() (l metrics.LatencySnapshot) { return l }
func (s *nopPS) Layout() kv.Layout                      { return s.layout }
func (s *nopPS) Shutdown()                              {}

type nopKV struct {
	ps     *nopPS
	worker int
	pulls  int64
}

var done = kv.CompletedFuture(nil)

func (h *nopKV) Pull([]kv.Key, []float32) error                { h.pulls++; return nil }
func (h *nopKV) Push([]kv.Key, []float32) error                { return nil }
func (h *nopKV) PullAsync([]kv.Key, []float32) *kv.Future      { return done }
func (h *nopKV) PushAsync([]kv.Key, []float32) *kv.Future      { return done }
func (h *nopKV) Localize([]kv.Key) error                       { return nil }
func (h *nopKV) LocalizeAsync([]kv.Key) *kv.Future             { return done }
func (h *nopKV) PullIfLocal([]kv.Key, []float32) (bool, error) { return true, nil }
func (h *nopKV) WaitAll() error                                { h.ps.pulls.Add(h.pulls); h.pulls = 0; return nil }
func (h *nopKV) Barrier()                                      {}
func (h *nopKV) Clock()                                        {}
func (h *nopKV) NodeID() int                                   { return h.worker }
func (h *nopKV) WorkerID() int                                 { return h.worker }

func (p *prober) mlAndData() {
	cl := cluster.New(cluster.Config{Nodes: benchNodes, WorkersPerNode: benchWorkers})
	defer cl.Close()
	workers := float64(cl.TotalWorkers())

	mcfg := mfConfig(p.e)
	t := time.Now()
	data.SyntheticMatrix(mcfg.Rows, mcfg.Cols, mcfg.NNZ, mcfg.TrueRank, 0.05, mcfg.Seed)
	p.out["data.mf_gen_s"] = time.Since(t).Seconds()
	mcfg.NNZ, mcfg.Epochs = p.n(200_000), probeBatches
	m := data.SyntheticMatrix(mcfg.Rows, mcfg.Cols, mcfg.NNZ, mcfg.TrueRank, 0.05, mcfg.Seed)
	mres, err := mf.RunOnMatrix(cl, &nopPS{layout: mcfg.Layout()}, driver.Lapse, mcfg, m)
	if err != nil {
		panic(err)
	}
	p.out["ml.mf_step_ns"] = medianDur(mres.EpochTimes) * workers / float64(mcfg.NNZ)

	wcfg := w2vConfig(p.e)
	t = time.Now()
	corpus := data.SyntheticCorpus(wcfg.Vocab, wcfg.Sentences, wcfg.SentenceLen, wcfg.Seed)
	p.out["data.corpus_gen_s"] = time.Since(t).Seconds()
	wcfg.Epochs = probeBatches
	nop := &nopPS{layout: wcfg.Layout()}
	wres, err := w2v.RunOnCorpus(cl, nop, driver.Lapse, wcfg, true, corpus)
	if err != nil {
		panic(err)
	}
	// With every PullIfLocal succeeding a pair makes exactly two Pull calls.
	pairsPerEpoch := float64(nop.pulls.Load()) / 2 / float64(wcfg.Epochs)
	p.out["ml.w2v_pair_ns"] = medianDur(wres.EpochTimes) * workers / pairsPerEpoch
}

// medianDur is the median of ds in ns.
func medianDur(ds []time.Duration) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d)
	}
	return median(v)
}
