package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"lapse/internal/data"
	"lapse/internal/driver"
	"lapse/internal/kv"
	"lapse/internal/ml/mf"
	"lapse/internal/ml/w2v"
)

// The two trainer workloads call the repo's own trainers: the trainer is
// part of the program under test. Modeled compute is 0 (PointCost/PairCost),
// so an epoch's wall-clock is parameter-management overhead, not sleeps.
// The trainers' Pull/Push calls are timed 1 in trainSample by the shim.
const trainSample = 16

// mfConfig is harness.MFScaledConfig("10x1") at 200 k entries, written out so
// a harness change cannot silently change the load. At that size one worker's
// block of entries, its permutation and its factors (~1.4 MB) stay in the
// core's private 2 MiB L2. At 2 M entries an epoch is bound by the L3 and
// memory bandwidth the VM shares with its neighbours: on the reference box its
// time doubled within the hour with no change to the code (sequential replay
// 0.15 → 0.33 s per epoch), which no regression bound can absorb.
func mfConfig(e *env) mf.Config {
	return mf.Config{
		Rows: 5000, Cols: 500, NNZ: e.scaled(200_000, 20_000), TrueRank: 8, Rank: 16,
		LR: 0.05, Reg: 0.01, Seed: e.seed, EvalSample: 2000,
	}
}

// w2vConfig is harness.W2VScaledConfig at 1500 sentences, written out.
func w2vConfig(e *env) w2v.Config {
	return w2v.Config{
		Vocab: 3000, Sentences: e.scaled(1500, 60), SentenceLen: 12,
		Dim: 16, Window: 2, Negatives: 3, NegPool: 300, RefillAt: 290,
		LR: 0.05, Seed: e.seed, EvalExamples: 400,
	}
}

// trainInstance runs a trainer for a number of epochs chosen from the budget
// and the warm-up epoch's duration.
type trainInstance struct {
	*psInstance
	warm time.Duration // the warm-up epoch, for sizing the measured call
	// train runs the trainer for the given number of epochs from freshly
	// initialised parameters and returns per-epoch times and quality.
	train   func(epochs int) ([]time.Duration, []float64, error)
	check   func(quality []float64, o *oracle)
	quality []float64 // of the last measure
	times   []time.Duration
	err     error
}

func (in *trainInstance) measure(budget time.Duration) []roundStat {
	epochs := max(2, int(math.Round(budget.Seconds()/in.warm.Seconds())))
	before := in.ps.accesses()
	in.times, in.quality, in.err = in.train(epochs)
	if in.err != nil {
		return nil
	}
	// The shim cannot see epoch boundaries in an untraced run; accesses per
	// epoch differ by well under a percent, so each epoch is booked its share.
	per := (in.ps.accesses() - before) / int64(epochs)
	rounds := make([]roundStat, epochs)
	for i, t := range in.times {
		rounds[i] = roundStat{accesses: per, dur: t}
	}
	return rounds
}

func (in *trainInstance) extras() map[string]float64 {
	if len(in.times) == 0 {
		return nil
	}
	secs := make([]float64, len(in.times))
	for i, t := range in.times {
		secs[i] = t.Seconds()
	}
	return map[string]float64{"user.epoch_s": median(secs), "user.loss": in.quality[len(in.quality)-1]}
}

func (in *trainInstance) verify() oracle {
	o := oracle{attempted: in.ps.accesses()}
	if in.err != nil {
		o.fail(1, "trainer: %v", in.err)
		return o
	}
	in.check(in.quality, &o)
	return o
}

func buildMF(e *env) (instance, error) {
	cfg := mfConfig(e)
	m := data.SyntheticMatrix(cfg.Rows, cfg.Cols, cfg.NNZ, cfg.TrueRank, 0.05, cfg.Seed)
	p, err := newPSInstance(simDeployment(netProfile()), nil, cfg.Layout(), driver.Options{}, trainSample)
	if err != nil {
		return nil, err
	}
	p.ps.trainer = true
	in := &trainInstance{psInstance: p}
	in.train = func(epochs int) ([]time.Duration, []float64, error) {
		c := cfg
		c.Epochs = epochs
		res, err := mf.RunOnMatrix(p.cl, p.ps, driver.Lapse, c, m)
		if err != nil {
			return nil, nil, err
		}
		return res.EpochTimes, res.Losses, nil
	}
	// Every worker owns a disjoint block in every subepoch and the entry
	// order comes from seeded permutations, so the factors — and the loss
	// after every epoch — are those of a sequential replay, bit for bit. One
	// lost, doubled or misordered update changes them.
	in.check = func(losses []float64, o *oracle) {
		want := mfReplay(cfg, m, p.cl.TotalWorkers(), len(losses))
		for i := range losses {
			if losses[i] != want[i] {
				o.fail(1, "mf loss after epoch %d is %v, sequential replay gives %v", i+1, losses[i], want[i])
			}
		}
	}
	times, _, err := in.train(1)
	if err != nil {
		p.close()
		return nil, err
	}
	in.warm = times[0]
	return in, nil
}

// mfReplay trains the same model sequentially on plain arrays, mirroring
// mf.RunOnMatrix (block grid, per-worker per-epoch seeded permutations, the
// SGD step, the loss sample), and returns the loss after each epoch.
func mfReplay(cfg mf.Config, m *data.Matrix, P, epochs int) []float64 {
	r := cfg.Rank
	param := make([]float32, (cfg.Rows+cfg.Cols)*r)
	init := cfg.InitFactors()
	for k := 0; k < cfg.Rows+cfg.Cols; k++ {
		init(kv.Key(k), param[k*r:(k+1)*r])
	}
	grid := m.BlockGrid(P)
	var losses []float64
	w, hv, delta := make([]float32, r), make([]float32, r), make([]float32, 2*r)
	for epoch := 0; epoch < epochs; epoch++ {
		rngs := make([]*rand.Rand, P)
		for worker := range rngs {
			rngs[worker] = rand.New(rand.NewSource(cfg.Seed + int64(epoch)*1000 + int64(worker)))
		}
		for s := 0; s < P; s++ {
			for worker := 0; worker < P; worker++ {
				entries := grid[worker][(worker+s)%P]
				for _, idx := range rngs[worker].Perm(len(entries)) {
					e := entries[idx]
					pw, ph := param[e.I*r:(e.I+1)*r], param[(cfg.Rows+e.J)*r:(cfg.Rows+e.J+1)*r]
					copy(w, pw)
					copy(hv, ph)
					var dot float32
					for i := 0; i < r; i++ {
						dot += w[i] * hv[i]
					}
					err := e.V - dot
					for i := 0; i < r; i++ {
						delta[i] = cfg.LR * (err*hv[i] - cfg.Reg*w[i])
						delta[r+i] = cfg.LR * (err*w[i] - cfg.Reg*hv[i])
					}
					for i := 0; i < r; i++ {
						pw[i] += delta[i]
						ph[i] += delta[r+i]
					}
				}
			}
		}
		n := len(m.Entries)
		if cfg.EvalSample > 0 && cfg.EvalSample < n {
			n = cfg.EvalSample
		}
		var se float64
		for _, e := range m.Entries[:n] {
			pw, ph := param[e.I*r:(e.I+1)*r], param[(cfg.Rows+e.J)*r:(cfg.Rows+e.J+1)*r]
			var dot float32
			for i := 0; i < r; i++ {
				dot += pw[i] * ph[i]
			}
			d := float64(e.V - dot)
			se += d * d
		}
		losses = append(losses, math.Sqrt(se/float64(n)))
	}
	return losses
}

func mfStreamHash(e *env) uint64 {
	cfg := mfConfig(e)
	cfg.NNZ = 4096
	h := fnv.New64a()
	for _, en := range data.SyntheticMatrix(cfg.Rows, cfg.Cols, cfg.NNZ, cfg.TrueRank, 0.05, cfg.Seed).Entries {
		fmt.Fprintf(h, "%d,%d,%x;", en.I, en.J, math.Float32bits(en.V))
	}
	return h.Sum64()
}

// w2vErrorCeiling bounds the held-out logistic loss after the last epoch.
// Latency hiding skips conflicted negatives, so runs are not reproducible to
// the bit; the loss starts at ln 2 ≈ 0.693 and a working run ends well below.
const w2vErrorCeiling = 0.60

func buildW2V(e *env) (instance, error) {
	cfg := w2vConfig(e)
	corpus := data.SyntheticCorpus(cfg.Vocab, cfg.Sentences, cfg.SentenceLen, cfg.Seed)
	p, err := newPSInstance(simDeployment(netProfile()), nil, cfg.Layout(), driver.Options{}, trainSample)
	if err != nil {
		return nil, err
	}
	p.ps.trainer = true
	in := &trainInstance{psInstance: p}
	in.train = func(epochs int) ([]time.Duration, []float64, error) {
		c := cfg
		c.Epochs = epochs
		res, err := w2v.RunOnCorpus(p.cl, p.ps, driver.Lapse, c, true, corpus)
		if err != nil {
			return nil, nil, err
		}
		return res.EpochTimes, res.Errors, nil
	}
	ceiling := w2vErrorCeiling
	if e.smoke {
		ceiling = math.Ln2 // a few sentences only have to move off the start
	}
	in.check = func(errs []float64, o *oracle) {
		if last := errs[len(errs)-1]; math.IsNaN(last) || math.IsInf(last, 0) || last > ceiling {
			o.fail(1, "w2v held-out error after %d epochs is %v, ceiling %v", len(errs), last, ceiling)
		}
	}
	times, _, err := in.train(1)
	if err != nil {
		p.close()
		return nil, err
	}
	in.warm = times[0]
	return in, nil
}

func w2vStreamHash(e *env) uint64 {
	cfg := w2vConfig(e)
	h := fnv.New64a()
	for _, s := range data.SyntheticCorpus(cfg.Vocab, 64, cfg.SentenceLen, cfg.Seed).Sentences {
		fmt.Fprint(h, s)
	}
	return h.Sum64()
}
