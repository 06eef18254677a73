package mf

import (
	"math"
	"math/rand"

	"lapse/internal/cluster"
	"lapse/internal/data"
	"lapse/internal/kv"
	"lapse/internal/ml"
	"lapse/internal/msg"
)

// LowLevel implements the specialized, hand-tuned DSGD baseline of
// Section 4.4 (DSGDpp): no parameter server, no key–value abstraction.
// Row factors live in plain per-worker arrays; column-factor blocks are
// passed directly from worker to worker between subepochs (MPI-style ring
// communication), and workers operate on the blocks in place — no copies, no
// latches, no concurrency control. The paper reports Lapse within 2.0–2.6×
// of this implementation; it exists to quantify the PS abstraction overhead.
type LowLevel struct {
	cfg Config
	cl  *cluster.Cluster

	wFactors []float32   // all row factors; each worker writes only its block
	hBlocks  [][]float32 // column-factor blocks, indexed by block id
}

// blockMsg hands a column block to a worker. Same-node hand-offs pass the
// slice directly (in-place, no copies — the point of this baseline);
// cross-node hand-offs travel as msg.Block through the transport, which
// copies via the wire codec exactly like real MPI ring communication would.
type blockMsg struct {
	block     int
	dstWorker int
	vals      []float32
}

// NewLowLevel prepares the baseline for cfg on cl. The cluster must be
// dedicated to this run: LowLevel consumes the nodes' network inboxes.
func NewLowLevel(cl *cluster.Cluster, cfg Config) *LowLevel {
	ll := &LowLevel{
		cfg:      cfg,
		cl:       cl,
		wFactors: make([]float32, cfg.Rows*cfg.Rank),
		hBlocks:  make([][]float32, cl.TotalWorkers()),
	}
	init := cfg.InitFactors()
	buf := make([]float32, cfg.Rank)
	for i := 0; i < cfg.Rows; i++ {
		init(kv.Key(i), buf)
		copy(ll.wFactors[i*cfg.Rank:], buf)
	}
	P := cl.TotalWorkers()
	for b := 0; b < P; b++ {
		lo, hi := data.BlockRange(cfg.Cols, P, b)
		block := make([]float32, (hi-lo)*cfg.Rank)
		for j := lo; j < hi; j++ {
			init(cfg.colKey(j), buf)
			copy(block[(j-lo)*cfg.Rank:], buf)
		}
		ll.hBlocks[b] = block
	}
	return ll
}

// Run trains on m and returns per-epoch times and losses.
func (ll *LowLevel) Run(m *data.Matrix) *Result {
	cfg := ll.cfg
	P := ll.cl.TotalWorkers()
	grid := m.BlockGrid(P)

	// Per-worker mailboxes plus one router goroutine per node that
	// dispatches network block transfers to the right worker.
	mailboxes := make([]chan blockMsg, P)
	for w := range mailboxes {
		mailboxes[w] = make(chan blockMsg, P)
	}
	for n := 0; n < ll.cl.Nodes(); n++ {
		go func(n int) {
			// Block messages are pinned to inbox shard 0 (msg.ShardOf),
			// so the ring's transfers all arrive on one channel per node.
			for env := range ll.cl.Net().Inbox(n, 0) {
				bm := env.Msg.(*msg.Block)
				mailboxes[bm.Worker] <- blockMsg{block: int(bm.ID), dstWorker: int(bm.Worker), vals: bm.Vals}
			}
		}(n)
	}

	res := &Result{}
	// workerEpoch has no failure to report, so RunEpochs returns no error.
	res.EpochTimes, _ = ml.RunEpochs(ll.cl, cfg.Epochs, func(epoch, node, worker int) error {
		ll.workerEpoch(grid, mailboxes, epoch, node, worker)
		return nil
	}, func() { res.Losses = append(res.Losses, ll.evalRMSE(m)) })
	return res
}

func (ll *LowLevel) workerEpoch(grid [][][]data.Entry, mailboxes []chan blockMsg, epoch, node, worker int) {
	cfg := ll.cfg
	P := ll.cl.TotalWorkers()
	rng := rand.New(rand.NewSource(cfg.Seed + int64(epoch)*1000 + int64(worker)))

	// At epoch start, worker w holds block w (blocks returned to their
	// starting workers at the end of the previous epoch: after P
	// rotations every block is back).
	block := ll.hBlocks[worker]
	blockID := worker
	ll.cl.Barrier().Wait(node)

	for s := 0; s < P; s++ {
		wantBlock := (worker + s) % P
		if blockID != wantBlock {
			// Receive the block for this subepoch from the ring.
			bm := <-mailboxes[worker]
			block, blockID = bm.vals, bm.block
			ll.hBlocks[blockID] = block
		}
		lo, _ := data.BlockRange(cfg.Cols, P, blockID)
		entries := grid[worker][blockID]
		order := rng.Perm(len(entries))
		for _, idx := range order {
			e := entries[idx]
			// Direct, in-place updates: no copies, no latches.
			w := ll.wFactors[e.I*cfg.Rank : (e.I+1)*cfg.Rank]
			h := block[(e.J-lo)*cfg.Rank : (e.J-lo+1)*cfg.Rank]
			var dot float32
			for r := 0; r < cfg.Rank; r++ {
				dot += w[r] * h[r]
			}
			err := e.V - dot
			for r := 0; r < cfg.Rank; r++ {
				wr, hr := w[r], h[r]
				w[r] += cfg.LR * (err*hr - cfg.Reg*wr)
				h[r] += cfg.LR * (err*wr - cfg.Reg*hr)
			}
			// Same modeled per-point computation as the PS runs: the
			// low-level implementation saves communication and
			// key-value overhead, not gradient math.
			ll.cl.Compute(cfg.PointCost)
		}
		// Pass the block to the previous worker in the ring (who needs
		// it next subepoch). Same-node hand-offs skip the network.
		dst := (worker - 1 + P) % P
		dstNode := ll.cl.NodeOfWorker(dst)
		if dstNode == node {
			mailboxes[dst] <- blockMsg{block: blockID, dstWorker: dst, vals: block}
		} else {
			ll.cl.Net().Send(node, dstNode, &msg.Block{ID: int32(blockID), Worker: int32(dst), Vals: block})
		}
		blockID = -1 // handed off
		ll.cl.Barrier().Wait(node)
	}
	// Drain the final hand-off so blocks rest at their starting workers.
	bm := <-mailboxes[worker]
	ll.hBlocks[bm.block] = bm.vals
	ll.cl.Barrier().Wait(node)
}

// evalRMSE estimates RMSE on the evaluation sample from the plain arrays.
func (ll *LowLevel) evalRMSE(m *data.Matrix) float64 {
	cfg := ll.cfg
	P := ll.cl.TotalWorkers()
	n := len(m.Entries)
	if cfg.EvalSample > 0 && cfg.EvalSample < n {
		n = cfg.EvalSample
	}
	var se float64
	for i := 0; i < n; i++ {
		e := m.Entries[i]
		b := blockOfCol(e.J, cfg.Cols, P)
		lo, _ := data.BlockRange(cfg.Cols, P, b)
		w := ll.wFactors[e.I*cfg.Rank : (e.I+1)*cfg.Rank]
		h := ll.hBlocks[b][(e.J-lo)*cfg.Rank : (e.J-lo+1)*cfg.Rank]
		var dot float32
		for r := 0; r < cfg.Rank; r++ {
			dot += w[r] * h[r]
		}
		d := float64(e.V - dot)
		se += d * d
	}
	return math.Sqrt(se / float64(n))
}

func blockOfCol(j, cols, blocks int) int {
	per := cols / blocks
	rem := cols % blocks
	cut := (per + 1) * rem
	if j < cut {
		return j / (per + 1)
	}
	return rem + (j-cut)/per
}
