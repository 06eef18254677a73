package kge

import (
	"fmt"
	"math"

	"lapse/internal/kv"
)

// scorer evaluates and differentiates one model, with AdaGrad updates pushed
// through the PS. Its buffers and its index are reused across steps, and
// PushAsync keeps neither keys nor values, so a step allocates nothing.
type scorer struct {
	cfg                 Config
	lay                 kv.Layout
	keys                []kv.Key // the point's keys: its entities, then the relation
	pull, grads, deltas []float32
	at                  map[kv.Key]param // the point's keys' parameters, by key
}

// param is one key's view in a step: its embedding and AdaGrad accumulator
// (the two halves of its pulled value) and its gradient accumulator.
type param struct{ emb, acc, grad []float32 }

func newScorer(cfg Config) *scorer {
	return &scorer{cfg: cfg, lay: cfg.Layout(), at: make(map[kv.Key]param)}
}

// reuse returns (*buf)[:n], growing *buf first if it is shorter.
func reuse(buf *[]float32, n int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	return (*buf)[:n]
}

// step pulls the parameters of one data point, computes the logistic loss and
// gradients for the positive triple and its negatives, and pushes AdaGrad
// deltas. ents are the point's entities as drawSamples lays them out, entKeys
// their keys, each once, and r its relation. It returns the summed loss of the
// point's triples.
func (sc *scorer) step(h kv.KV, cfg Config, r int32, ents []int32, entKeys []kv.Key) (float64, error) {
	rel := cfg.relKey(r)
	sc.keys = append(append(sc.keys[:0], entKeys...), rel) // a copy: entKeys is the window's
	keys := sc.keys
	need := kv.BufferLen(sc.lay, keys)
	buf := reuse(&sc.pull, need)
	if err := h.Pull(keys, buf); err != nil {
		return 0, fmt.Errorf("kge: pull: %w", err)
	}
	// Index embeddings (first half of each value), accumulators and zeroed
	// gradients.
	grads := reuse(&sc.grads, need/2)
	clear(grads)
	clear(sc.at)
	off := 0
	for _, k := range keys {
		l := sc.lay.Len(k)
		half := l / 2
		sc.at[k] = param{emb: buf[off : off+half], acc: buf[off+half : off+l], grad: grads[off/2 : off/2+half]}
		off += l
	}

	var loss float64
	score := func(sub, obj int32, label float32) {
		s, r, o := sc.at[kv.Key(sub)], sc.at[rel], sc.at[kv.Key(obj)]
		f := sc.scoreAndGrad(cfg, s.emb, r.emb, o.emb, s.grad, r.grad, o.grad, label)
		loss += logisticLoss(f, label)
	}
	s, o := ents[0], ents[1]
	score(s, o, 1)
	for i := 2; i < len(ents); i += 2 {
		score(ents[i], o, -1)
		score(s, ents[i+1], -1)
	}

	// AdaGrad deltas: dacc = g², demb = -lr·g/√(acc+g²).
	deltas := reuse(&sc.deltas, need)
	off = 0
	for _, k := range keys {
		p := sc.at[k]
		g := p.grad
		d := deltas[off : off+2*len(g)]
		for i, gi := range g {
			g2 := gi * gi
			d[i] = -cfg.LR * gi / float32(math.Sqrt(float64(p.acc[i]+g2))+1e-8)
			d[len(g)+i] = g2
		}
		off += len(d)
	}
	h.PushAsync(keys, deltas)
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
