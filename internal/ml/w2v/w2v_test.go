package w2v

import (
	"slices"
	"testing"
	"time"

	"lapse/internal/cluster"
	"lapse/internal/data"
	"lapse/internal/driver"
	"lapse/internal/kv"
	"lapse/internal/simnet"
)

func tinyConfig() Config {
	return Config{
		Vocab: 300, Sentences: 120, SentenceLen: 10,
		Dim: 8, Window: 2, Negatives: 2,
		NegPool: 50, RefillAt: 45,
		LR: 0.1, Epochs: 3, Seed: 4,
		EvalExamples: 200,
	}
}

func runW2V(t *testing.T, kind driver.Kind, nodes, workers int, cfg Config, useLH bool, c *data.Corpus) *Result {
	t.Helper()
	cl := cluster.New(cluster.Config{Nodes: nodes, WorkersPerNode: workers})
	ps := driver.Build(kind, cl, cfg.Layout(), driver.Options{})
	defer func() { cl.Close(); ps.Shutdown() }()
	res, err := RunOnCorpus(cl, ps, kind, cfg, useLH, c)
	if err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	return res
}

func TestTrainingReducesError(t *testing.T) {
	cfg := tinyConfig()
	corpus := data.SyntheticCorpus(cfg.Vocab, cfg.Sentences, cfg.SentenceLen, cfg.Seed)
	res := runW2V(t, driver.Lapse, 2, 2, cfg, true, corpus)
	if len(res.Errors) != cfg.Epochs {
		t.Fatalf("errors = %v", res.Errors)
	}
	if res.Errors[len(res.Errors)-1] >= res.Errors[0] {
		t.Fatalf("error did not decrease: %v", res.Errors)
	}
}

func TestClassicFastAlsoTrains(t *testing.T) {
	cfg := tinyConfig()
	cfg.Epochs = 2
	corpus := data.SyntheticCorpus(cfg.Vocab, cfg.Sentences, cfg.SentenceLen, cfg.Seed)
	res := runW2V(t, driver.ClassicFast, 2, 2, cfg, false, corpus)
	if res.Errors[len(res.Errors)-1] >= res.Errors[0] {
		t.Fatalf("error did not decrease: %v", res.Errors)
	}
}

func TestLatencyHidingRequiresLapse(t *testing.T) {
	cfg := tinyConfig()
	cl := cluster.New(cluster.Config{Nodes: 1, WorkersPerNode: 1})
	ps := driver.Build(driver.ClassicFast, cl, cfg.Layout(), driver.Options{})
	defer func() { cl.Close(); ps.Shutdown() }()
	corpus := data.SyntheticCorpus(cfg.Vocab, cfg.Sentences, cfg.SentenceLen, cfg.Seed)
	if _, err := RunOnCorpus(cl, ps, driver.ClassicFast, cfg, true, corpus); err == nil {
		t.Fatal("latency hiding on classic PS should fail")
	}
}

func TestMostAccessesLocalWithLatencyHiding(t *testing.T) {
	cfg := tinyConfig()
	cfg.Epochs = 1
	corpus := data.SyntheticCorpus(cfg.Vocab, cfg.Sentences, cfg.SentenceLen, cfg.Seed)
	cl := cluster.New(cluster.Config{Nodes: 4, WorkersPerNode: 1})
	ps := driver.Build(driver.Lapse, cl, cfg.Layout(), driver.Options{})
	defer func() { cl.Close(); ps.Shutdown() }()
	if _, err := RunOnCorpus(cl, ps, driver.Lapse, cfg, true, corpus); err != nil {
		t.Fatal(err)
	}
	var local, remote int64
	for _, st := range ps.Stats() {
		local += st.LocalReads.Load()
		remote += st.RemoteReads.Load()
	}
	if local == 0 {
		t.Fatal("no local reads recorded")
	}
	if remote > local {
		t.Fatalf("latency hiding ineffective: %d local vs %d remote", local, remote)
	}
}

// TestLossesIndependentOfLocality checks that latency hiding moves vectors,
// not what trains: on one worker every vector is local, so the held-out
// errors with and without it must be bit-identical.
func TestLossesIndependentOfLocality(t *testing.T) {
	cfg := tinyConfig()
	corpus := data.SyntheticCorpus(cfg.Vocab, cfg.Sentences, cfg.SentenceLen, cfg.Seed)
	with := runW2V(t, driver.Lapse, 1, 1, cfg, true, corpus).Errors
	without := runW2V(t, driver.Lapse, 1, 1, cfg, false, corpus).Errors
	if !slices.Equal(with, without) {
		t.Fatalf("errors with latency hiding %v, without %v", with, without)
	}
}

func TestNegPoolSkipsConflictedSamples(t *testing.T) {
	// On a single node everything is local, so take() must always report
	// local with latency hiding on.
	cfg := tinyConfig()
	corpus := data.SyntheticCorpus(cfg.Vocab, cfg.Sentences, cfg.SentenceLen, cfg.Seed)
	cl := cluster.New(cluster.Config{Nodes: 1, WorkersPerNode: 1})
	ps := driver.Build(driver.Lapse, cl, cfg.Layout(), driver.Options{})
	defer func() { cl.Close(); ps.Shutdown() }()
	ps.Init(cfg.InitVectors())
	h := ps.Handle(0)
	sampler := data.NewUnigramSampler(corpus.Freq, 5)
	pool := newNegPool(cfg, sampler, h, true)
	if err := h.WaitAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]float32, cfg.Dim)
	for i := 0; i < 100; i++ {
		_, local := pool.take(buf)
		if !local {
			t.Fatal("single-node negative sample reported non-local")
		}
	}
}

// localizeCall is one Localize (sync) or LocalizeAsync call of a worker.
type localizeCall struct {
	sync bool
	keys []kv.Key
	wait time.Duration // how long a Localize blocked
}

// recordingPS hands out handles that log every localize call per worker.
type recordingPS struct {
	driver.PS
	logs [][]localizeCall // by worker; each worker appends only to its own
}

func (p *recordingPS) Handle(worker int) kv.KV {
	return &recordingKV{KV: p.PS.Handle(worker), log: &p.logs[worker]}
}

type recordingKV struct {
	kv.KV
	log *[]localizeCall
}

func (r *recordingKV) Localize(keys []kv.Key) error {
	start := time.Now()
	err := r.KV.Localize(keys)
	*r.log = append(*r.log, localizeCall{sync: true, keys: slices.Clone(keys), wait: time.Since(start)})
	return err
}

func (r *recordingKV) LocalizeAsync(keys []kv.Key) *kv.Future {
	*r.log = append(*r.log, localizeCall{keys: slices.Clone(keys)})
	return r.KV.LocalizeAsync(keys)
}

// recordLocalizes trains cfg with latency hiding on or off on a Lapse
// instance over cl and returns each worker's localize calls in call order.
func recordLocalizes(t *testing.T, cl *cluster.Cluster, cfg Config, useLH bool, c *data.Corpus) [][]localizeCall {
	t.Helper()
	ps := driver.Build(driver.Lapse, cl, cfg.Layout(), driver.Options{})
	defer func() { cl.Close(); ps.Shutdown() }()
	rec := &recordingPS{PS: ps, logs: make([][]localizeCall, cl.TotalWorkers())}
	if _, err := RunOnCorpus(cl, rec, driver.Lapse, cfg, useLH, c); err != nil {
		t.Fatal(err)
	}
	return rec.logs
}

// TestSentencePrefetchOrder pins the prefetch window on one node, where
// every call order is deterministic: a worker's sentences enter the window in
// order, at most windowDepth ahead of the one in training and never past the
// worker's share; each reaches LocalizeAsync when it enters and again on every
// later step until its synchronous Localize, and on no step after; without
// latency hiding nothing is localized.
func TestSentencePrefetchOrder(t *testing.T) {
	cfg := tinyConfig()
	cfg.Epochs = 1
	corpus := data.SyntheticCorpus(cfg.Vocab, cfg.Sentences, cfg.SentenceLen, cfg.Seed)
	const workers = 2
	// sentenceSet is a sentence's keys, each once, in ascending order.
	sentenceSet := func(sent []int32) []kv.Key {
		var keys []kv.Key
		for _, w := range sent {
			keys = append(keys, kv.Key(w), cfg.outKey(w))
		}
		slices.Sort(keys)
		return slices.Compact(keys)
	}
	sorted := func(keys []kv.Key) []kv.Key { return slices.Sorted(slices.Values(keys)) }

	logs := recordLocalizes(t, cluster.New(cluster.Config{Nodes: 1, WorkersPerNode: workers}), cfg, true, corpus)
	for w, log := range logs {
		var share [][]kv.Key
		for s := w; s < len(corpus.Sentences); s += workers {
			share = append(share, sentenceSet(corpus.Sentences[s]))
		}
		// Sentences [trained, prefetched) have entered the window and not been
		// trained; requests[j] counts the LocalizeAsync calls naming sentence j.
		prefetched, trained := 0, 0
		requests := make([]int, len(share))
		for _, c := range log {
			keys := sorted(c.keys)
			switch {
			case c.sync:
				if trained == prefetched {
					t.Fatalf("worker %d: sentence %d localized before its prefetch", w, trained)
				}
				if !slices.Equal(keys, share[trained]) {
					t.Fatalf("worker %d: Localize %d names %v, want sentence %d's %v", w, trained, c.keys, trained, share[trained])
				}
				trained++
			case !slices.ContainsFunc(c.keys, func(k kv.Key) bool { return k < cfg.outKey(0) }):
				// A negative-sample batch: output vectors only.
			case prefetched < len(share) && slices.Equal(keys, share[prefetched]):
				if prefetched-trained > windowDepth {
					t.Fatalf("worker %d: sentence %d prefetched while training sentence %d, depth %d", w, prefetched, trained, windowDepth)
				}
				requests[prefetched]++
				prefetched++
			default:
				// A repeat request: of a sentence ahead of the one about to train.
				lo := min(trained+1, prefetched)
				j := slices.IndexFunc(share[lo:prefetched], func(s []kv.Key) bool { return slices.Equal(keys, s) })
				if j < 0 {
					t.Fatalf("worker %d: LocalizeAsync %v names no sentence in the window [%d, %d) nor the next one, of %d", w, c.keys, lo, prefetched, len(share))
				}
				requests[lo+j]++
			}
		}
		if trained != len(share) || prefetched != len(share) {
			t.Fatalf("worker %d: %d sentences prefetched and %d localized, want %d each", w, prefetched, trained, len(share))
		}
		// Sentence j enters the window after the barrier (j < windowDepth) or on
		// step j-windowDepth, and is requested on every step up to j-1.
		for j, n := range requests {
			if want := min(j+1, windowDepth); n != want {
				t.Fatalf("worker %d: sentence %d requested %d times, want %d", w, j, n, want)
			}
		}
	}

	logs = recordLocalizes(t, cluster.New(cluster.Config{Nodes: 1, WorkersPerNode: workers}), cfg, false, corpus)
	for w, log := range logs {
		if len(log) != 0 {
			t.Fatalf("worker %d without latency hiding made %d localize calls", w, len(log))
		}
	}
}

// TestPrefetchHidesSentenceLocalizes checks what the window is for, on the
// paper's simulated links (300 µs, 20 µs loopback): most sentences find their
// vectors already relocated, so at most half the synchronous Localize calls
// wait a one-way latency or longer. Localizing each sentence only when it is
// trained waits that long in about nine calls out of ten.
func TestPrefetchHidesSentenceLocalizes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows the trainer enough that prefetches no longer lead")
	}
	cfg := tinyConfig()
	corpus := data.SyntheticCorpus(cfg.Vocab, cfg.Sentences, cfg.SentenceLen, cfg.Seed)
	const latency = 300 * time.Microsecond
	cl := cluster.New(cluster.Config{Nodes: 2, WorkersPerNode: 1,
		Net: simnet.Config{Latency: latency, LoopbackLatency: 20 * time.Microsecond}})
	var calls, slow int
	for _, log := range recordLocalizes(t, cl, cfg, true, corpus) {
		for _, c := range log {
			if c.sync {
				calls++
				if c.wait >= latency {
					slow++
				}
			}
		}
	}
	if calls == 0 {
		t.Fatal("no sentence was localized")
	}
	share := float64(slow) / float64(calls)
	t.Logf("%d of %d sentence Localize calls (%.0f %%) waited >= %v", slow, calls, 100*share, latency)
	if share > 0.5 {
		t.Fatal("want at most half of them")
	}
}

func TestEvalSetDeterministic(t *testing.T) {
	cfg := tinyConfig()
	corpus := data.SyntheticCorpus(cfg.Vocab, cfg.Sentences, cfg.SentenceLen, cfg.Seed)
	a := newEvalSet(cfg, corpus)
	b := newEvalSet(cfg, corpus)
	if len(a.centers) == 0 || len(a.centers) != len(b.centers) {
		t.Fatalf("eval sizes: %d vs %d", len(a.centers), len(b.centers))
	}
	for i := range a.centers {
		if a.centers[i] != b.centers[i] || a.contexts[i] != b.contexts[i] {
			t.Fatal("eval set not deterministic")
		}
	}
}

func TestLayout(t *testing.T) {
	cfg := tinyConfig()
	l := cfg.Layout()
	if l.NumKeys() != 600 {
		t.Fatalf("keys = %d, want 600", l.NumKeys())
	}
	if cfg.outKey(0) != 300 {
		t.Fatalf("outKey(0) = %d", cfg.outKey(0))
	}
}

// pairsOf is the number of skip-gram pairs one pass over sentences trains.
func pairsOf(cfg Config, sentences [][]int32) int {
	n := 0
	for _, s := range sentences {
		for i := range s {
			n += min(i+cfg.Window, len(s)-1) - max(i-cfg.Window, 0)
		}
	}
	return n
}

// TestLapseTrainingAllocatesNothing: on one worker every vector is local, and
// a pair reuses its buffers and key lists, so after a warm-up epoch an epoch
// allocates only per epoch — the sampler, the negative pool, the window's key
// lists — and per negative batch, never per pair.
func TestLapseTrainingAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	cfg := tinyConfig()
	cfg.Sentences = 2000
	corpus := data.SyntheticCorpus(cfg.Vocab, cfg.Sentences, cfg.SentenceLen, cfg.Seed)
	cl := cluster.New(cluster.Config{Nodes: 1, WorkersPerNode: 1})
	ps := driver.Build(driver.Lapse, cl, cfg.Layout(), driver.Options{})
	defer func() { cl.Close(); ps.Shutdown() }()
	ps.Init(cfg.InitVectors())
	epoch := 0
	// AllocsPerRun's first call, not counted, is the warm-up epoch 0.
	perEpoch := testing.AllocsPerRun(2, func() {
		cl.RunWorkers(func(_, worker int) {
			if err := runWorkerEpoch(cl, ps, cfg, true, corpus, epoch, worker); err != nil {
				t.Error(err)
			}
		})
		epoch++
	})
	pairs := pairsOf(cfg, corpus.Sentences)
	if perPair := perEpoch / float64(pairs); perPair >= 0.01 {
		t.Errorf("a word2vec epoch allocates %.0f times for %d pairs (%.4f per pair), want < 0.01 per pair",
			perEpoch, pairs, perPair)
	} else {
		t.Logf("a word2vec epoch allocates %.0f times for %d pairs", perEpoch, pairs)
	}
}

// BenchmarkTrainPair times one latency-hiding skip-gram pair (a positive and
// cfg.Negatives negatives) on a 1 × 1 Lapse system, where every vector is
// local: the trainer's share of an access on the shared-memory path.
func BenchmarkTrainPair(b *testing.B) {
	cfg := tinyConfig()
	corpus := data.SyntheticCorpus(cfg.Vocab, cfg.Sentences, cfg.SentenceLen, cfg.Seed)
	cl := cluster.New(cluster.Config{Nodes: 1, WorkersPerNode: 1})
	ps := driver.Build(driver.Lapse, cl, cfg.Layout(), driver.Options{})
	defer func() { cl.Close(); ps.Shutdown() }()
	ps.Init(cfg.InitVectors())
	h := ps.Handle(0)
	negs := newNegPool(cfg, data.NewUnigramSampler(corpus.Freq, cfg.Seed), h, true)
	bufs := newPairBufs(cfg)
	sent := corpus.Sentences[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trainPair(h, cfg, sent[i%len(sent)], sent[(i+1)%len(sent)], negs, bufs); err != nil {
			b.Fatal(err)
		}
	}
	if err := h.WaitAll(); err != nil {
		b.Fatal(err)
	}
}
