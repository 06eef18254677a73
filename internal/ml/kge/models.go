package kge

import (
	"fmt"
	"math"
	"slices"

	"lapse/internal/kv"
)

// scorer evaluates and differentiates one model, with AdaGrad updates pushed
// through the PS. Buffers are reused across steps.
type scorer struct {
	cfg     Config
	lay     kv.Layout
	pullBuf []float32
	grads   map[kv.Key][]float32
	deltas  map[kv.Key][]float32
}

func newScorer(cfg Config) *scorer {
	return &scorer{
		cfg:    cfg,
		lay:    cfg.Layout(),
		grads:  make(map[kv.Key][]float32),
		deltas: make(map[kv.Key][]float32),
	}
}

// step pulls the parameters of one data point, computes the logistic loss and
// gradients for the positive triple and its negatives, and pushes AdaGrad
// deltas. ents are the point's entities as drawSamples lays them out, entKeys
// their keys, each once, and r its relation. It returns the summed loss of the
// point's triples.
func (sc *scorer) step(h kv.KV, cfg Config, r int32, ents []int32, entKeys []kv.Key) (float64, error) {
	rel := cfg.relKey(r)
	keys := append(slices.Clip(entKeys), rel) // a copy: entKeys is the window's
	need := kv.BufferLen(sc.lay, keys)
	if cap(sc.pullBuf) < need {
		sc.pullBuf = make([]float32, need)
	}
	buf := sc.pullBuf[:need]
	if err := h.Pull(keys, buf); err != nil {
		return 0, fmt.Errorf("kge: pull: %w", err)
	}
	// Index embeddings (first half of each value) and accumulators.
	embOf := make(map[kv.Key][]float32, len(keys))
	accOf := make(map[kv.Key][]float32, len(keys))
	off := 0
	lay := sc.lay
	for _, k := range keys {
		l := lay.Len(k)
		half := l / 2
		embOf[k] = buf[off : off+half]
		accOf[k] = buf[off+half : off+l]
		off += l
	}
	// Zero gradient accumulators for the involved keys.
	for _, k := range keys {
		g, ok := sc.grads[k]
		want := len(embOf[k])
		if !ok || len(g) != want {
			g = make([]float32, want)
			sc.grads[k] = g
		}
		for i := range g {
			g[i] = 0
		}
	}

	var loss float64
	score := func(sub, obj int32, label float32) {
		sk, ok := kv.Key(sub), kv.Key(obj)
		f := sc.scoreAndGrad(cfg, embOf[sk], embOf[rel], embOf[ok], sc.grads[sk], sc.grads[rel], sc.grads[ok], label)
		loss += logisticLoss(f, label)
	}
	s, o := ents[0], ents[1]
	score(s, o, 1)
	for i := 2; i < len(ents); i += 2 {
		score(ents[i], o, -1)
		score(s, ents[i+1], -1)
	}

	// AdaGrad deltas: dacc = g², demb = -lr·g/√(acc+g²).
	pushVals := make([]float32, 0, need)
	for _, k := range keys {
		g := sc.grads[k]
		acc := accOf[k]
		d, ok := sc.deltas[k]
		if !ok || len(d) != 2*len(g) {
			d = make([]float32, 2*len(g))
			sc.deltas[k] = d
		}
		for i, gi := range g {
			g2 := gi * gi
			d[i] = -cfg.LR * gi / float32(math.Sqrt(float64(acc[i]+g2))+1e-8)
			d[len(g)+i] = g2
		}
		pushVals = append(pushVals, d...)
	}
	h.PushAsync(keys, pushVals)
	return loss, nil
}

// scoreAndGrad computes the model score f and accumulates dL/dparam into the
// gradient buffers, where dL/df is the logistic-loss derivative for label.
func (sc *scorer) scoreAndGrad(cfg Config, se, re, oe, gs, gr, go_ []float32, label float32) float32 {
	var f float32
	switch cfg.Model {
	case ComplEx:
		d := cfg.Dim
		sr, si := se[:d], se[d:2*d]
		rr, ri := re[:d], re[d:2*d]
		or, oi := oe[:d], oe[d:2*d]
		for i := 0; i < d; i++ {
			f += sr[i]*rr[i]*or[i] + si[i]*rr[i]*oi[i] + sr[i]*ri[i]*oi[i] - si[i]*ri[i]*or[i]
		}
		df := dLogistic(f, label)
		for i := 0; i < d; i++ {
			gs[i] += df * (rr[i]*or[i] + ri[i]*oi[i])
			gs[d+i] += df * (rr[i]*oi[i] - ri[i]*or[i])
			gr[i] += df * (sr[i]*or[i] + si[i]*oi[i])
			gr[d+i] += df * (sr[i]*oi[i] - si[i]*or[i])
			go_[i] += df * (sr[i]*rr[i] - si[i]*ri[i])
			go_[d+i] += df * (si[i]*rr[i] + sr[i]*ri[i])
		}
	case RESCAL:
		d := cfg.Dim
		// f = sᵀ R o with R row-major in re.
		for i := 0; i < d; i++ {
			var row float32
			for j := 0; j < d; j++ {
				row += re[i*d+j] * oe[j]
			}
			f += se[i] * row
		}
		df := dLogistic(f, label)
		for i := 0; i < d; i++ {
			var ds float32
			for j := 0; j < d; j++ {
				ds += re[i*d+j] * oe[j]
				gr[i*d+j] += df * se[i] * oe[j]
				go_[j] += df * se[i] * re[i*d+j]
			}
			gs[i] += df * ds
		}
	default:
		panic(fmt.Sprintf("kge: unknown model %q", cfg.Model))
	}
	return f
}

// logisticLoss is log(1+exp(-y·f)), computed stably.
func logisticLoss(f, y float32) float64 {
	x := float64(-y * f)
	if x > 30 {
		return x
	}
	return math.Log1p(math.Exp(x))
}

// dLogistic is d/df log(1+exp(-y·f)) = -y·σ(-y·f).
func dLogistic(f, y float32) float32 {
	x := float64(y * f)
	return float32(-float64(y) / (1 + math.Exp(x)))
}
