// Package mf implements distributed low-rank matrix factorization with the
// DSGD parameter-blocking algorithm (Gemulla et al., KDD'11) used in the
// paper's Section 4 experiments, runnable on every parameter-server variant,
// plus the specialized low-level implementation the paper compares against in
// Section 4.4 (DSGDpp-style direct block passing without a PS).
//
// Model: R ≈ W·Hᵀ with squared loss and L2 regularization. Keys 0..Rows-1
// hold the row factors (always accessed by a fixed worker: data clustering);
// keys Rows..Rows+Cols-1 hold the column factors, which DSGD partitions into
// one block per worker and rotates between subepochs (parameter blocking,
// Figure 3b). On Lapse each worker localizes its current column block at the
// start of every subepoch, making all accesses within the subepoch local; on
// the stale PS each subepoch ends with a clock (staleness 1, Appendix A); on
// classic PSs every access goes through the (mostly remote) servers.
package mf

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"lapse/internal/cluster"
	"lapse/internal/data"
	"lapse/internal/driver"
	"lapse/internal/kv"
	"lapse/internal/ml"
)

// Config parameterizes a factorization run.
type Config struct {
	Rows, Cols int
	NNZ        int
	TrueRank   int // rank of the generating model
	Rank       int // model rank r
	LR         float32
	Reg        float32
	Epochs     int
	Seed       int64
	// EvalSample bounds the number of entries used for the loss estimate
	// (0 = all entries).
	EvalSample int
	// PointCost is the modeled computation time per training entry
	// (gradient computation), simulated through cluster.Compute so worker
	// computation overlaps in wall time. Zero disables compute modeling
	// (unit tests).
	PointCost time.Duration
}

// Layout returns the parameter layout: one key per row factor and one per
// column factor, each of length Rank.
func (c Config) Layout() kv.Layout {
	return kv.NewUniformLayout(kv.Key(c.Rows+c.Cols), c.Rank)
}

// colKey maps column j to its parameter key.
func (c Config) colKey(j int) kv.Key { return kv.Key(c.Rows + j) }

// Result captures a run's measurements.
type Result struct {
	EpochTimes []time.Duration
	Losses     []float64 // RMSE on the evaluation sample after each epoch
}

// InitFactors seeds the parameters with small deterministic pseudo-random
// values (identical across PS variants for comparable losses).
func (c Config) InitFactors() func(k kv.Key, v []float32) {
	scale := float32(1.0 / math.Sqrt(float64(c.Rank)))
	return func(k kv.Key, v []float32) {
		h := uint64(k)*0x9e3779b97f4a7c15 + uint64(c.Seed)
		for i := range v {
			h ^= h >> 30
			h *= 0xbf58476d1ce4e5b9
			h ^= h >> 27
			// Map to (-0.5, 0.5) then scale.
			v[i] = (float32(h%100000)/100000 - 0.5) * scale
		}
	}
}

// RunOnMatrix trains cfg on ps over cl using DSGD on the matrix m (shared
// across variants). kind selects the PS-specific behaviour (localize for
// Lapse variants, clocks for stale variants). On an error the result holds
// the epochs completed before it.
func RunOnMatrix(cl *cluster.Cluster, ps driver.PS, kind driver.Kind, cfg Config, m *data.Matrix) (*Result, error) {
	P := cl.TotalWorkers()
	grid := m.BlockGrid(P)
	ps.Init(cfg.InitFactors())

	useDPA := driver.SupportsLocalize(kind)
	useClock := kind == driver.SSPClient || kind == driver.SSPServer

	res := &Result{}
	var err error
	res.EpochTimes, err = ml.RunEpochs(cl, cfg.Epochs, func(epoch, _, worker int) error {
		return runWorkerEpoch(cl, ps, kind, cfg, grid, P, epoch, worker, useDPA, useClock)
	}, func() { res.Losses = append(res.Losses, EvalRMSE(ps, cfg, m)) })
	return res, err
}

// runWorkerEpoch executes one DSGD epoch for one worker: P subepochs, in
// subepoch s processing block (worker + s) mod P of the columns.
func runWorkerEpoch(cl *cluster.Cluster, ps driver.PS, kind driver.Kind, cfg Config, grid [][][]data.Entry,
	P, epoch, worker int, useDPA, useClock bool) error {
	h := ps.Handle(worker)
	rng := rand.New(rand.NewSource(cfg.Seed + int64(epoch)*1000 + int64(worker)))

	// Data clustering for the row factors: localize this worker's row
	// block once (they are accessed by this worker only).
	if useDPA && epoch == 0 {
		lo, hi := data.BlockRange(cfg.Rows, P, worker)
		keys := make([]kv.Key, 0, hi-lo)
		for i := lo; i < hi; i++ {
			keys = append(keys, kv.Key(i))
		}
		if err := h.Localize(keys); err != nil {
			return fmt.Errorf("mf: localize row block: %w", err)
		}
	}
	h.Barrier()

	// One key pair and one delta serve every entry: Pull is synchronous and
	// PushAsync keeps no reference to keys or values, so the training loop
	// allocates nothing.
	keys := make([]kv.Key, 2)
	buf := make([]float32, 2*cfg.Rank)
	delta := make([]float32, 2*cfg.Rank)
	for s := 0; s < P; s++ {
		colBlock := (worker + s) % P
		if useDPA {
			// Parameter blocking: localize the column block for this
			// subepoch; all accesses below are then local.
			lo, hi := data.BlockRange(cfg.Cols, P, colBlock)
			block := make([]kv.Key, 0, hi-lo)
			for j := lo; j < hi; j++ {
				block = append(block, cfg.colKey(j))
			}
			if err := h.Localize(block); err != nil {
				return fmt.Errorf("mf: localize column block: %w", err)
			}
		}
		entries := grid[worker][colBlock]
		order := rng.Perm(len(entries))
		for _, idx := range order {
			e := entries[idx]
			keys[0], keys[1] = kv.Key(e.I), cfg.colKey(e.J)
			if err := h.Pull(keys, buf); err != nil {
				return fmt.Errorf("mf: pull: %w", err)
			}
			w := buf[:cfg.Rank]
			hv := buf[cfg.Rank:]
			var dot float32
			for r := 0; r < cfg.Rank; r++ {
				dot += w[r] * hv[r]
			}
			err := e.V - dot
			for r := 0; r < cfg.Rank; r++ {
				delta[r] = cfg.LR * (err*hv[r] - cfg.Reg*w[r])
				delta[cfg.Rank+r] = cfg.LR * (err*w[r] - cfg.Reg*hv[r])
			}
			h.PushAsync(keys, delta)
			cl.Compute(cfg.PointCost)
		}
		if err := h.WaitAll(); err != nil {
			return fmt.Errorf("mf: waitall: %w", err)
		}
		if useClock {
			// Bounded staleness: one clock per subepoch, staleness 1
			// (Appendix A), so replicas refresh at block exchanges.
			h.Clock()
		}
		// Global barrier after each subepoch (Appendix A).
		h.Barrier()
	}
	return nil
}

// EvalRMSE estimates the root-mean-square error on a sample of entries using
// the authoritative parameter values.
func EvalRMSE(ps driver.PS, cfg Config, m *data.Matrix) float64 {
	n := len(m.Entries)
	if cfg.EvalSample > 0 && cfg.EvalSample < n {
		n = cfg.EvalSample
	}
	w := make([]float32, cfg.Rank)
	hv := make([]float32, cfg.Rank)
	var se float64
	for i := 0; i < n; i++ {
		e := m.Entries[i]
		ps.ReadParameter(kv.Key(e.I), w)
		ps.ReadParameter(cfg.colKey(e.J), hv)
		var dot float32
		for r := 0; r < cfg.Rank; r++ {
			dot += w[r] * hv[r]
		}
		d := float64(e.V - dot)
		se += d * d
	}
	return math.Sqrt(se / float64(n))
}
