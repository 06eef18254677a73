// Package kge implements distributed knowledge-graph-embedding training for
// the RESCAL and ComplEx models, as evaluated in Sections 4.2–4.3 and
// Figures 1 and 7 of the paper.
//
// Training uses SGD with AdaGrad and negative sampling (Appendix A). The
// AdaGrad accumulators are stored in the parameter server alongside the
// values (each key holds [embedding | accumulator]), so updates remain
// cumulative pushes.
//
// Two PAL techniques create and exploit locality:
//
//   - Data clustering for relation parameters: the training triples are
//     partitioned by relation across nodes and each relation embedding is
//     localized at (or, without DPA, simply served from) the node that uses
//     it.
//   - Latency hiding for entity parameters: while computing data point t,
//     each worker keeps localizing the entity embeddings (subject, object,
//     and pre-sampled negatives) of data points t+1 … t+windowDepth
//     asynchronously, so the transfers overlap the computation.
package kge

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"lapse/internal/cluster"
	"lapse/internal/data"
	"lapse/internal/driver"
	"lapse/internal/kv"
	"lapse/internal/ml"
)

// Model selects the embedding model.
type Model string

// Supported models.
const (
	// ComplEx embeds entities and relations in C^Dim
	// (Trouillon et al., ICML'16).
	ComplEx Model = "complex"
	// RESCAL embeds entities in R^Dim and relations in R^(Dim×Dim)
	// (Nickel et al., ICML'11).
	RESCAL Model = "rescal"
)

// Mode selects which PAL techniques the run uses (Figure 7's line variants).
type Mode int

// Run modes.
const (
	// ModePlain uses no PAL technique (classic PS baselines).
	ModePlain Mode = iota
	// ModeDataClustering localizes relation parameters only
	// ("Lapse, only data clustering").
	ModeDataClustering
	// ModeFull adds latency hiding for entity parameters (full Lapse).
	ModeFull
)

// Config parameterizes a KGE run.
type Config struct {
	Model     Model
	Entities  int
	Relations int
	Triples   int
	Dim       int // embedding dimension d
	Negatives int // negative samples per side (subject and object)
	LR        float32
	Epochs    int
	Seed      int64
	// PointCost is the modeled computation time per data point (scoring
	// and gradients of the positive triple plus negatives), simulated via
	// cluster.Compute. Zero disables compute modeling (unit tests).
	PointCost time.Duration
}

// entLen and relLen return the per-key value lengths (embedding plus AdaGrad
// accumulator, hence the ×2).
func (c Config) entLen() int {
	if c.Model == ComplEx {
		return 2 * (2 * c.Dim) // complex: re+im
	}
	return 2 * c.Dim
}

func (c Config) relLen() int {
	if c.Model == ComplEx {
		return 2 * (2 * c.Dim)
	}
	return 2 * (c.Dim * c.Dim)
}

// Layout returns the parameter layout: entity keys [0, Entities), relation
// keys [Entities, Entities+Relations).
func (c Config) Layout() kv.Layout {
	return kv.NewRangeLayout(
		[]kv.Key{kv.Key(c.Entities), kv.Key(c.Relations)},
		[]int{c.entLen(), c.relLen()},
	)
}

func (c Config) relKey(r int32) kv.Key { return kv.Key(c.Entities) + kv.Key(r) }

// Result captures a run's measurements.
type Result struct {
	EpochTimes []time.Duration
	Losses     []float64 // mean training loss per epoch
}

// InitEmbeddings returns a deterministic initializer (embedding part random,
// accumulator part a small epsilon for AdaGrad stability).
func (c Config) InitEmbeddings() func(k kv.Key, v []float32) {
	scale := float32(0.1)
	return func(k kv.Key, v []float32) {
		half := len(v) / 2
		h := uint64(k)*0x9e3779b97f4a7c15 + uint64(c.Seed) + 13
		for i := 0; i < half; i++ {
			h ^= h >> 30
			h *= 0xbf58476d1ce4e5b9
			h ^= h >> 27
			v[i] = (float32(h%100000)/100000 - 0.5) * scale
		}
		for i := half; i < len(v); i++ {
			v[i] = 1e-6
		}
	}
}

// RunOnKG trains cfg on ps over cl on the knowledge graph kg. The result is
// never nil: on an error it holds the epochs completed before it.
func RunOnKG(cl *cluster.Cluster, ps driver.PS, kind driver.Kind, cfg Config, mode Mode, kg *data.KG) (*Result, error) {
	if mode != ModePlain && !driver.SupportsLocalize(kind) {
		return &Result{}, fmt.Errorf("kge: mode %d requires a PS with localize support, got %q", mode, kind)
	}
	parts, _ := kg.PartitionByRelation(cl.Nodes())
	ps.Init(cfg.InitEmbeddings())

	res := &Result{}
	losses := make([]float64, cl.TotalWorkers())
	counts := make([]int, cl.TotalWorkers())
	var err error
	res.EpochTimes, err = ml.RunEpochs(cl, cfg.Epochs, func(epoch, node, worker int) error {
		var err error
		losses[worker], counts[worker], err = runWorkerEpoch(cl, ps, cfg, mode, parts[node], epoch, node, worker)
		return err
	}, func() {
		var sum float64
		var n int
		for w := range losses {
			sum += losses[w]
			n += counts[w]
		}
		if n > 0 {
			sum /= float64(n)
		}
		res.Losses = append(res.Losses, sum)
	})
	return res, err
}

// windowDepth is how many data points ahead of the one it trains a ModeFull
// worker localizes their entity parameters asynchronously, the winner of a
// sweep over {1, 2, 3, 4, 8} on Figure 7's Lapse 2×2 cells (DESIGN.md,
// "Latency hiding in the trainers").
const windowDepth = 3

// drawSamples returns the entities of triples' data points, 2+2·Negatives per
// point and in triples' order: the subject, the object, then Negatives pairs
// of a negative subject and a negative object drawn from rng.
func (c Config) drawSamples(triples []data.Triple, rng *rand.Rand) []int32 {
	ents := make([]int32, 0, (2+2*c.Negatives)*len(triples))
	for _, t := range triples {
		ents = append(ents, t.S, t.O)
		for i := 0; i < c.Negatives; i++ {
			ents = append(ents, int32(rng.Intn(c.Entities)), int32(rng.Intn(c.Entities)))
		}
	}
	return ents
}

// entityKeys writes the keys of a data point's entities, each once, to
// dst[:0].
func entityKeys(dst []kv.Key, ents []int32) []kv.Key {
	dst = dst[:0]
	for i, e := range ents {
		if !slices.Contains(ents[:i], e) {
			dst = append(dst, kv.Key(e))
		}
	}
	return dst
}

// runWorkerEpoch processes this worker's share of its node's triples.
func runWorkerEpoch(cl *cluster.Cluster, ps driver.PS, cfg Config, mode Mode,
	nodeTriples []data.Triple, epoch, node, worker int) (float64, int, error) {
	h := ps.Handle(worker)
	local := cl.LocalWorker(worker)
	W := cl.WorkersPerNode()
	rng := rand.New(rand.NewSource(cfg.Seed + int64(epoch)*977 + int64(worker)*13))

	// Data clustering: localize the relation parameters this node uses.
	if mode != ModePlain && epoch == 0 && local == 0 {
		var keys []kv.Key
		for _, t := range nodeTriples {
			if k := cfg.relKey(t.R); !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
		if err := h.Localize(keys); err != nil {
			return 0, 0, fmt.Errorf("kge: localize relations: %w", err)
		}
	}
	h.Barrier()

	// This worker's slice of the node's triples.
	var mine []data.Triple
	for i := local; i < len(nodeTriples); i += W {
		mine = append(mine, nodeTriples[i])
	}

	model := newScorer(cfg)
	var lossSum float64
	size := 2 + 2*cfg.Negatives
	ents := cfg.drawSamples(mine, rng)
	// Latency hiding: ModeFull keeps the entity parameters of the next
	// windowDepth points in relocation while this one computes (Appendix A).
	depth := 0
	if mode == ModeFull {
		depth = windowDepth
	}
	win := ml.NewWindow(h, depth, len(mine), func(dst []kv.Key, j int) []kv.Key {
		return entityKeys(dst, ents[j*size:(j+1)*size])
	})
	for i, t := range mine {
		loss, err := model.step(h, cfg, t.R, ents[i*size:(i+1)*size], win.Step(i))
		if err != nil {
			return 0, 0, err
		}
		lossSum += loss
		cl.Compute(cfg.PointCost)
	}
	if err := h.WaitAll(); err != nil {
		return 0, 0, err
	}
	h.Barrier()
	return lossSum, len(mine), nil
}
