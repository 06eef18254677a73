package mf

import (
	"testing"

	"lapse/internal/cluster"
	"lapse/internal/data"
	"lapse/internal/driver"
)

// tinyConfig is fast enough for unit tests on a zero-latency network.
func tinyConfig() Config {
	return Config{
		Rows: 60, Cols: 50, NNZ: 1200, TrueRank: 4,
		Rank: 6, LR: 0.2, Reg: 0.005, Epochs: 8, Seed: 2,
		EvalSample: 0,
	}
}

func runVariant(t *testing.T, kind driver.Kind, nodes, workers int, cfg Config, m *data.Matrix) *Result {
	t.Helper()
	cl := cluster.New(cluster.Config{Nodes: nodes, WorkersPerNode: workers})
	ps := driver.Build(kind, cl, cfg.Layout(), driver.Options{Staleness: 1})
	defer func() { cl.Close(); ps.Shutdown() }()
	res, err := RunOnMatrix(cl, ps, kind, cfg, m)
	if err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	return res
}

func TestDSGDConvergesOnAllVariants(t *testing.T) {
	cfg := tinyConfig()
	m := data.SyntheticMatrix(cfg.Rows, cfg.Cols, cfg.NNZ, cfg.TrueRank, 0.05, cfg.Seed)
	baseline := initialRMSE(t, cfg, m)
	for _, kind := range []driver.Kind{driver.ClassicPS, driver.ClassicFast, driver.Lapse, driver.LapseCached, driver.SSPClient, driver.SSPServer} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			res := runVariant(t, kind, 2, 2, cfg, m)
			if len(res.Losses) != cfg.Epochs {
				t.Fatalf("losses = %v", res.Losses)
			}
			final := res.Losses[len(res.Losses)-1]
			if final >= baseline*0.8 {
				t.Fatalf("no convergence: RMSE %v -> %v", baseline, final)
			}
			// Loss must be monotone-ish: last epoch no worse than first.
			if res.Losses[len(res.Losses)-1] > res.Losses[0]*1.05 {
				t.Fatalf("loss diverged: %v", res.Losses)
			}
		})
	}
}

// initialRMSE computes the RMSE of the untouched initial factors.
func initialRMSE(t *testing.T, cfg Config, m *data.Matrix) float64 {
	t.Helper()
	cl := cluster.New(cluster.Config{Nodes: 1, WorkersPerNode: 1})
	ps := driver.Build(driver.Lapse, cl, cfg.Layout(), driver.Options{})
	defer func() { cl.Close(); ps.Shutdown() }()
	ps.Init(cfg.InitFactors())
	return EvalRMSE(ps, cfg, m)
}

func TestDSGDSingleNode(t *testing.T) {
	cfg := tinyConfig()
	cfg.Epochs = 2
	m := data.SyntheticMatrix(cfg.Rows, cfg.Cols, cfg.NNZ, cfg.TrueRank, 0.05, cfg.Seed)
	res := runVariant(t, driver.Lapse, 1, 4, cfg, m)
	if len(res.EpochTimes) != 2 {
		t.Fatalf("epoch times = %v", res.EpochTimes)
	}
}

func TestLapseMFAllAccessesLocal(t *testing.T) {
	// With parameter blocking on Lapse, all parameter accesses within
	// subepochs must be local (the point of Figure 3b).
	cfg := tinyConfig()
	cfg.Epochs = 1
	m := data.SyntheticMatrix(cfg.Rows, cfg.Cols, cfg.NNZ, cfg.TrueRank, 0.05, cfg.Seed)
	cl := cluster.New(cluster.Config{Nodes: 2, WorkersPerNode: 2})
	ps := driver.Build(driver.Lapse, cl, cfg.Layout(), driver.Options{})
	defer func() { cl.Close(); ps.Shutdown() }()
	if _, err := RunOnMatrix(cl, ps, driver.Lapse, cfg, m); err != nil {
		t.Fatal(err)
	}
	var local, remote int64
	for _, st := range ps.Stats() {
		local += st.LocalReads.Load()
		remote += st.RemoteReads.Load()
	}
	if remote != 0 {
		t.Fatalf("parameter blocking left %d remote reads (local %d)", remote, local)
	}
	if local == 0 {
		t.Fatal("no reads recorded")
	}
}

// TestLapseMFStepAllocatesNothing: with parameter blocking every access is a
// shared-memory fast-path operation, and the training step issues them from
// buffers it reuses, so after a warm-up epoch an epoch allocates only per
// subepoch — the column block's relocation, about three objects per key
// (queue, waiter, the taken value), plus the permutation and the barrier. The
// matrix has many entries per column so that this stays well under the
// bound; one allocation per entry would run the garbage collector mid-epoch.
func TestLapseMFStepAllocatesNothing(t *testing.T) {
	cfg := Config{Rows: 4000, Cols: 30, NNZ: 100_000, TrueRank: 8, Rank: 16, LR: 0.05, Reg: 0.01, Seed: 3}
	m := data.SyntheticMatrix(cfg.Rows, cfg.Cols, cfg.NNZ, cfg.TrueRank, 0.05, cfg.Seed)
	cl := cluster.New(cluster.Config{Nodes: 2, WorkersPerNode: 1})
	ps := driver.Build(driver.Lapse, cl, cfg.Layout(), driver.Options{})
	defer func() { cl.Close(); ps.Shutdown() }()
	P := cl.TotalWorkers()
	grid := m.BlockGrid(P)
	ps.Init(cfg.InitFactors())
	epoch := 0
	// AllocsPerRun's first call, not counted, is the warm-up epoch 0: it
	// localizes the row blocks and grows every handle's scratch.
	perEpoch := testing.AllocsPerRun(2, func() {
		cl.RunWorkers(func(_, worker int) {
			if err := runWorkerEpoch(cl, ps, driver.Lapse, cfg, grid, P, epoch, worker, true, false); err != nil {
				t.Error(err)
			}
		})
		epoch++
	})
	if perEntry := perEpoch / float64(len(m.Entries)); perEntry >= 0.01 {
		t.Errorf("an MF epoch allocates %.0f times for %d entries (%.4f per entry), want < 0.01 per entry",
			perEpoch, len(m.Entries), perEntry)
	} else {
		t.Logf("an MF epoch allocates %.0f times for %d entries", perEpoch, len(m.Entries))
	}
}

func TestLowLevelConverges(t *testing.T) {
	cfg := tinyConfig()
	m := data.SyntheticMatrix(cfg.Rows, cfg.Cols, cfg.NNZ, cfg.TrueRank, 0.05, cfg.Seed)
	baseline := initialRMSE(t, cfg, m)
	cl := cluster.New(cluster.Config{Nodes: 2, WorkersPerNode: 2})
	defer cl.Close()
	ll := NewLowLevel(cl, cfg)
	res := ll.Run(m)
	if len(res.Losses) != cfg.Epochs {
		t.Fatalf("losses = %v", res.Losses)
	}
	if res.Losses[len(res.Losses)-1] >= baseline*0.8 {
		t.Fatalf("low-level did not converge: %v -> %v", baseline, res.Losses)
	}
}

func TestLowLevelMatchesPSModelQuality(t *testing.T) {
	// The low-level baseline and the Lapse run optimize the same
	// objective on the same data; final RMSEs should be in the same
	// ballpark (they differ in update interleaving only).
	cfg := tinyConfig()
	m := data.SyntheticMatrix(cfg.Rows, cfg.Cols, cfg.NNZ, cfg.TrueRank, 0.05, cfg.Seed)
	lapse := runVariant(t, driver.Lapse, 2, 2, cfg, m)

	cl := cluster.New(cluster.Config{Nodes: 2, WorkersPerNode: 2})
	defer cl.Close()
	ll := NewLowLevel(cl, cfg).Run(m)

	a := lapse.Losses[len(lapse.Losses)-1]
	b := ll.Losses[len(ll.Losses)-1]
	if a > 2*b+0.1 || b > 2*a+0.1 {
		t.Fatalf("model quality diverges: lapse RMSE %v vs low-level %v", a, b)
	}
}

func TestConfigLayout(t *testing.T) {
	cfg := tinyConfig()
	l := cfg.Layout()
	if l.NumKeys() != 110 {
		t.Fatalf("keys = %d, want 110", l.NumKeys())
	}
	if l.Len(0) != cfg.Rank || l.Len(109) != cfg.Rank {
		t.Fatal("wrong value lengths")
	}
}
