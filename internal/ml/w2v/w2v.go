// Package w2v implements distributed skip-gram Word2Vec training with
// negative sampling, the third task of the paper's evaluation (Figure 8).
//
// The latency-hiding approach follows Appendix A: a worker localizes the input
// and output vectors of its sentences' words ahead of use. Before each
// sentence it localizes its next windowDepth sentences asynchronously, so
// their relocations overlap with training the current one and a vector
// another worker took in the meantime is asked back well before it is needed;
// then it localizes the sentence's own vectors synchronously: usually every
// vector is here and the call returns at once. Negative samples are
// pre-sampled in batches, localized ahead of use, and — to hide the latency of
// localization conflicts — a negative sample that is not locally available
// (because another worker localized it concurrently) is skipped and replaced
// by the next one, using the PullIfLocal primitive. This changes the sampling
// distribution of negatives (frequent words are more often remote), which is
// why the paper measures error over time rather than per-epoch equivalence.
//
// Error metric substitution (DESIGN.md §5): the paper evaluates a 19 544-
// question analogy task; this reproduction measures the average logistic loss
// on a fixed held-out set of (center, context, negatives) examples, which
// decreases over epochs the same way and supports the same error-vs-time
// comparisons.
package w2v

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"lapse/internal/cluster"
	"lapse/internal/data"
	"lapse/internal/driver"
	"lapse/internal/kv"
	"lapse/internal/ml"
)

// Config parameterizes a Word2Vec run.
type Config struct {
	Vocab       int
	Sentences   int
	SentenceLen int
	Dim         int
	Window      int
	Negatives   int
	// NegPool is the size of the pre-sampled negative batch (the paper
	// pre-samples 4000 and re-samples at the 3900th); RefillAt is the
	// refill threshold.
	NegPool  int
	RefillAt int
	LR       float32
	Epochs   int
	Seed     int64
	// EvalExamples is the held-out example count for the error metric.
	EvalExamples int
	// PairCost is the modeled computation time per skip-gram pair
	// (positive plus its negatives), simulated via cluster.Compute.
	// Zero disables compute modeling (unit tests).
	PairCost time.Duration
}

// Layout returns the parameter layout: input vectors on keys [0, Vocab),
// output vectors on [Vocab, 2·Vocab), each of length Dim.
func (c Config) Layout() kv.Layout {
	return kv.NewUniformLayout(kv.Key(2*c.Vocab), c.Dim)
}

func (c Config) outKey(w int32) kv.Key { return kv.Key(c.Vocab) + kv.Key(w) }

// Result captures a run's measurements.
type Result struct {
	EpochTimes []time.Duration
	Errors     []float64 // held-out loss after each epoch
}

// InitVectors returns the deterministic initializer (small random input
// vectors, zero output vectors, as in the reference implementation).
func (c Config) InitVectors() func(k kv.Key, v []float32) {
	scale := float32(0.5) / float32(c.Dim)
	return func(k kv.Key, v []float32) {
		if k >= kv.Key(c.Vocab) {
			return // output vectors start at zero
		}
		h := uint64(k)*0x9e3779b97f4a7c15 + uint64(c.Seed) + 29
		for i := range v {
			h ^= h >> 30
			h *= 0xbf58476d1ce4e5b9
			h ^= h >> 27
			v[i] = (float32(h%100000)/100000 - 0.5) * scale
		}
	}
}

// RunOnCorpus trains cfg on ps over cl on the corpus. useLH enables the
// latency-hiding PAL technique (requires a Lapse variant). The result is
// never nil: on an error it holds the epochs completed before it.
func RunOnCorpus(cl *cluster.Cluster, ps driver.PS, kind driver.Kind, cfg Config, useLH bool, corpus *data.Corpus) (*Result, error) {
	if useLH && !driver.SupportsLocalize(kind) {
		return &Result{}, fmt.Errorf("w2v: latency hiding requires a Lapse variant, got %q", kind)
	}
	ps.Init(cfg.InitVectors())
	eval := newEvalSet(cfg, corpus)

	res := &Result{}
	var err error
	res.EpochTimes, err = ml.RunEpochs(cl, cfg.Epochs, func(epoch, _, worker int) error {
		return runWorkerEpoch(cl, ps, cfg, useLH, corpus, epoch, worker)
	}, func() { res.Errors = append(res.Errors, eval.errorOf(ps)) })
	return res, err
}

// negPool manages the pre-sampled, pre-localized negative-sample batch.
type negPool struct {
	cfg     Config
	sampler *data.UnigramSampler
	pool    []int32
	keys    []kv.Key // pool's output keys; LocalizeAsync keeps no reference
	one     []kv.Key // the sample PullIfLocal checks, one key reused
	next    int
	h       kv.KV
	useLH   bool
}

func newNegPool(cfg Config, sampler *data.UnigramSampler, h kv.KV, useLH bool) *negPool {
	p := &negPool{cfg: cfg, sampler: sampler, h: h, useLH: useLH, one: make([]kv.Key, 1)}
	p.refill()
	return p
}

func (p *negPool) refill() {
	p.pool, p.keys = p.pool[:0], p.keys[:0]
	for i := 0; i < p.cfg.NegPool; i++ {
		w := p.sampler.Sample()
		p.pool = append(p.pool, w)
		p.keys = append(p.keys, p.cfg.outKey(w))
	}
	p.next = 0
	if p.useLH {
		// Localize the whole batch ahead of use.
		p.h.LocalizeAsync(p.keys)
	}
}

// take returns the next negative sample's word id. With latency hiding it
// prefers locally available vectors: a conflicted (non-local) sample is
// skipped, matching the paper's "if there is a localization conflict for a
// negative sample, we sample another one".
func (p *negPool) take(buf []float32) (int32, bool) {
	for tries := 0; tries < 8; tries++ {
		if p.next >= p.cfg.RefillAt || p.next >= len(p.pool) {
			p.refill()
		}
		w := p.pool[p.next]
		p.next++
		if !p.useLH {
			return w, false
		}
		p.one[0] = p.cfg.outKey(w)
		if ok, _ := p.h.PullIfLocal(p.one, buf); ok {
			return w, true
		}
	}
	// All candidates conflicted: fall back to a remote read.
	w := p.pool[p.next-1]
	return w, false
}

// windowDepth is how many sentences ahead of the one it trains a
// latency-hiding worker localizes asynchronously, picked by sweeps over
// {1, 2, 4, 8, 16} on the benchmark's w2v_hiding workload (DESIGN.md, "Latency
// hiding in the trainers").
const windowDepth = 16

// sentenceKeys writes the input and output keys of sent's words, each once,
// to dst[:0].
func (c Config) sentenceKeys(dst []kv.Key, sent []int32) []kv.Key {
	dst = dst[:0]
	for i, w := range sent {
		if !slices.Contains(sent[:i], w) {
			dst = append(dst, kv.Key(w), c.outKey(w))
		}
	}
	return dst
}

// runWorkerEpoch trains on this worker's share of sentences.
func runWorkerEpoch(cl *cluster.Cluster, ps driver.PS, cfg Config, useLH bool,
	corpus *data.Corpus, epoch, worker int) error {
	h := ps.Handle(worker)
	P := cl.TotalWorkers()
	sampler := data.NewUnigramSampler(corpus.Freq, cfg.Seed+int64(worker)*101)
	negs := newNegPool(cfg, sampler, h, useLH)

	h.Barrier()
	b := newPairBufs(cfg)

	depth := 0
	if useLH {
		depth = windowDepth
	}
	n := (len(corpus.Sentences) - worker + P - 1) / P // this worker's sentences
	win := ml.NewWindow(h, depth, n, func(dst []kv.Key, j int) []kv.Key {
		return cfg.sentenceKeys(dst, corpus.Sentences[worker+j*P])
	})
	for i := 0; i < n; i++ {
		keys := win.Step(i)
		if useLH {
			if err := h.Localize(keys); err != nil {
				return err
			}
		}
		sent := corpus.Sentences[worker+i*P]
		for i, center := range sent {
			for j := i - cfg.Window; j <= i+cfg.Window; j++ {
				if j < 0 || j >= len(sent) || j == i {
					continue
				}
				if err := trainPair(h, cfg, center, sent[j], negs, b); err != nil {
					return err
				}
				cl.Compute(cfg.PairCost)
			}
		}
	}
	if err := h.WaitAll(); err != nil {
		return err
	}
	h.Barrier()
	return nil
}

// pairBufs are one worker's buffers for trainPair, reused for every pair: the
// vectors, the deltas, and the one-key lists of the accesses. A []kv.Key
// literal passed to a kv.KV method escapes to the heap, and PushAsync keeps
// neither its keys nor its values, so a pair allocates nothing.
type pairBufs struct {
	in, out, dIn, dOut, neg []float32
	inKey, outKey           []kv.Key
}

func newPairBufs(cfg Config) *pairBufs {
	v := func() []float32 { return make([]float32, cfg.Dim) }
	return &pairBufs{in: v(), out: v(), dIn: v(), dOut: v(), neg: v(),
		inKey: make([]kv.Key, 1), outKey: make([]kv.Key, 1)}
}

// trainPair performs one skip-gram update: the positive (center, context)
// pair plus cfg.Negatives negative samples.
func trainPair(h kv.KV, cfg Config, center, context int32, negs *negPool, b *pairBufs) error {
	b.inKey[0] = kv.Key(center)
	if err := h.Pull(b.inKey, b.in); err != nil {
		return err
	}
	clear(b.dIn)
	// Positive example.
	b.outKey[0] = cfg.outKey(context)
	if err := h.Pull(b.outKey, b.out); err != nil {
		return err
	}
	sgdPair(cfg, b.in, b.out, 1, b.dIn, b.dOut)
	h.PushAsync(b.outKey, b.dOut)
	// Negative examples.
	for n := 0; n < cfg.Negatives; n++ {
		w, local := negs.take(b.neg)
		if w == context || w == center {
			continue
		}
		b.outKey[0] = cfg.outKey(w)
		if !local {
			if err := h.Pull(b.outKey, b.neg); err != nil {
				return err
			}
		}
		sgdPair(cfg, b.in, b.neg, 0, b.dIn, b.dOut)
		h.PushAsync(b.outKey, b.dOut)
	}
	h.PushAsync(b.inKey, b.dIn)
	return nil
}

// sgdPair computes the binary-logistic gradient for one (input, output) pair
// with the given label, writing the output delta to dOut and accumulating the
// input delta into dIn.
func sgdPair(cfg Config, in, out []float32, label float32, dIn, dOut []float32) {
	var dot float32
	for i := range in {
		dot += in[i] * out[i]
	}
	g := (label - sigmoid(dot)) * cfg.LR
	for i := range in {
		dOut[i] = g * in[i]
		dIn[i] += g * out[i]
	}
}

func sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// evalSet is a fixed held-out example set for the error metric.
type evalSet struct {
	cfg      Config
	centers  []int32
	contexts []int32
	negs     [][]int32
}

func newEvalSet(cfg Config, corpus *data.Corpus) *evalSet {
	rng := rand.New(rand.NewSource(cfg.Seed + 997))
	sampler := data.NewUnigramSampler(corpus.Freq, cfg.Seed+991)
	e := &evalSet{cfg: cfg}
	for i := 0; i < cfg.EvalExamples; i++ {
		s := corpus.Sentences[rng.Intn(len(corpus.Sentences))]
		ci := rng.Intn(len(s))
		cj := ci + 1 + rng.Intn(cfg.Window)
		if cj >= len(s) {
			cj = ci - 1 - rng.Intn(cfg.Window)
			if cj < 0 {
				continue
			}
		}
		negs := make([]int32, cfg.Negatives)
		for n := range negs {
			negs[n] = sampler.Sample()
		}
		e.centers = append(e.centers, s[ci])
		e.contexts = append(e.contexts, s[cj])
		e.negs = append(e.negs, negs)
	}
	return e
}

// errorOf computes the mean held-out logistic loss from the authoritative
// parameters.
func (e *evalSet) errorOf(ps driver.PS) float64 {
	in := make([]float32, e.cfg.Dim)
	out := make([]float32, e.cfg.Dim)
	var loss float64
	var n int
	for i := range e.centers {
		ps.ReadParameter(kv.Key(e.centers[i]), in)
		ps.ReadParameter(e.cfg.outKey(e.contexts[i]), out)
		loss += pairLoss(in, out, 1)
		n++
		for _, w := range e.negs[i] {
			ps.ReadParameter(e.cfg.outKey(w), out)
			loss += pairLoss(in, out, 0)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return loss / float64(n)
}

// pairLoss is the binary logistic loss of a pair with the given label.
func pairLoss(in, out []float32, label float32) float64 {
	var dot float32
	for i := range in {
		dot += in[i] * out[i]
	}
	p := float64(sigmoid(dot))
	if label > 0.5 {
		return -math.Log(math.Max(p, 1e-12))
	}
	return -math.Log(math.Max(1-p, 1e-12))
}
