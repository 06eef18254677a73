// Package harness assembles the paper's experiments: it builds clusters and
// parameter servers, runs the scaled-down workloads, and renders the result
// series for every figure and table of the evaluation section (see DESIGN.md
// §4 for the experiment index).
//
// Scaling note: the workloads run at laptop scale (thousands of parameters,
// tens of thousands of data points) on a simulated network, so absolute
// numbers differ from the paper's 8×32-core testbed. The *shapes* are the
// reproduction target: who wins, by roughly what factor, and where crossovers
// fall. Per-data-point computation is modeled through cluster.Compute, which
// sleeps through the simulated network's precise scheduler — sleeping workers
// overlap in wall time, so distributed compute speedups are observable
// regardless of host core count.
package harness

import (
	"fmt"
	"strings"
	"time"

	"lapse/internal/cluster"
	"lapse/internal/data"
	"lapse/internal/driver"
	"lapse/internal/kv"
	"lapse/internal/metrics"
	"lapse/internal/ml/kge"
	"lapse/internal/ml/mf"
	"lapse/internal/ml/w2v"
	"lapse/internal/simnet"
)

// Parallelism is one x-axis point of the scaling figures: nodes × workers.
type Parallelism struct {
	Nodes   int
	Workers int
}

func (p Parallelism) String() string { return fmt.Sprintf("%dx%d", p.Nodes, p.Workers) }

// PaperParallelism returns the paper's 1×4 … 8×4 sweep.
func PaperParallelism() []Parallelism {
	return []Parallelism{{Nodes: 1, Workers: 4}, {Nodes: 2, Workers: 4}, {Nodes: 4, Workers: 4}, {Nodes: 8, Workers: 4}}
}

// ShortParallelism is the reduced sweep for -short runs.
func ShortParallelism() []Parallelism {
	return []Parallelism{{Nodes: 1, Workers: 2}, {Nodes: 2, Workers: 2}}
}

// NetProfile returns the simulated-network configuration used by all
// experiments: the paper testbed's 10 GBit Ethernet with a one-way latency of
// 300 µs (effective latency including the server-side queuing of the real
// system) and a 20 µs IPC loopback.
func NetProfile(nodes int) simnet.Config {
	return simnet.Config{
		Nodes:           nodes,
		Latency:         300 * time.Microsecond,
		LoopbackLatency: 20 * time.Microsecond,
		BytesPerSecond:  1.25e9,
	}
}

// Point is one measured cell: a system at a parallelism level.
type Point struct {
	Par       Parallelism
	EpochTime time.Duration
	Loss      float64
	// Stats carries the cluster-wide server-counter totals of the run.
	Stats metrics.Totals
}

// Series is one line of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Speedup returns EpochTime(first point) / EpochTime(last point).
func (s Series) Speedup() float64 {
	if len(s.Points) < 2 {
		return 1
	}
	return float64(s.Points[0].EpochTime) / float64(s.Points[len(s.Points)-1].EpochTime)
}

// Render formats series as an aligned text table (one row per parallelism).
func Render(title string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-12s", "system")
	if len(series) > 0 {
		for _, p := range series[0].Points {
			fmt.Fprintf(&b, "%12s", p.Par)
		}
	}
	fmt.Fprintln(&b)
	for _, s := range series {
		fmt.Fprintf(&b, "%-12s", s.Label)
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%12s", round(p.EpochTime))
		}
		fmt.Fprintf(&b, "   (speedup 1→max: %.1fx)\n", s.Speedup())
	}
	return b.String()
}

func round(d time.Duration) time.Duration { return d.Round(time.Millisecond) }

// series measures one line of a figure: cell at every parallelism in pars.
func series(label string, pars []Parallelism, cell func(Parallelism) Point) Series {
	s := Series{Label: label}
	for _, par := range pars {
		s.Points = append(s.Points, cell(par))
	}
	return s
}

// newCluster builds a cluster of par's shape over net.
func newCluster(par Parallelism, net simnet.Config) *cluster.Cluster {
	return cluster.New(cluster.Config{Nodes: par.Nodes, WorkersPerNode: par.Workers, Net: net})
}

// runCell runs train on a fresh cluster over net and a fresh PS of kind
// (staleness 1 for the stale PS) and returns one Point per epoch, each with
// the run's server-counter totals. train returns each epoch's time and loss.
func runCell(kind driver.Kind, par Parallelism, net simnet.Config, layout kv.Layout,
	train func(cl *cluster.Cluster, ps driver.PS) ([]time.Duration, []float64, error)) []Point {
	cl := newCluster(par, net)
	ps := driver.Build(kind, cl, layout, driver.Options{Staleness: 1})
	defer func() {
		cl.Close()
		ps.Shutdown()
	}()
	times, losses, err := train(cl, ps)
	if err != nil {
		panic(fmt.Sprintf("harness: %s %s: %v", kind, par, err))
	}
	stats := metrics.Sum(ps.Stats())
	pts := make([]Point, len(times))
	for e := range pts {
		pts[e] = Point{Par: par, EpochTime: times[e], Loss: losses[e], Stats: stats}
	}
	return pts
}

func last(pts []Point) Point { return pts[len(pts)-1] }

// --- Matrix factorization ------------------------------------------------

// MFScaledConfig returns the harness-scale DSGD configuration standing in for
// the paper's 1b-entry matrices. variant "10x1" mirrors the wide 10m×1m
// matrix, "3x3" the squarer 3.4m×3m one.
func MFScaledConfig(variant string) mf.Config {
	cfg := mf.Config{
		NNZ: 30000, TrueRank: 8, Rank: 16,
		LR: 0.05, Reg: 0.01, Epochs: 1, Seed: 7,
		EvalSample: 2000, PointCost: 100 * time.Microsecond,
	}
	switch variant {
	case "10x1":
		cfg.Rows, cfg.Cols = 5000, 500
	case "3x3":
		cfg.Rows, cfg.Cols = 1700, 1500
	default:
		panic(fmt.Sprintf("harness: unknown MF variant %q", variant))
	}
	return cfg
}

// RunMFCell measures one epoch of DSGD for one system at one parallelism.
func RunMFCell(kind driver.Kind, par Parallelism, cfg mf.Config, m *data.Matrix) Point {
	return last(runMF(kind, par, cfg, m))
}

// runMF trains cfg on m and returns every epoch.
func runMF(kind driver.Kind, par Parallelism, cfg mf.Config, m *data.Matrix) []Point {
	return runCell(kind, par, NetProfile(par.Nodes), cfg.Layout(), func(cl *cluster.Cluster, ps driver.PS) ([]time.Duration, []float64, error) {
		res, err := mf.RunOnMatrix(cl, ps, kind, cfg, m)
		return res.EpochTimes, res.Losses, err
	})
}

// RunMFLowLevelCell measures the specialized low-level implementation.
func RunMFLowLevelCell(par Parallelism, cfg mf.Config, m *data.Matrix) Point {
	cl := newCluster(par, NetProfile(par.Nodes))
	defer cl.Close()
	// The low-level implementation models the same per-point computation.
	ll := mf.NewLowLevel(cl, cfg)
	res := ll.Run(m)
	return Point{Par: par, EpochTime: res.EpochTimes[len(res.EpochTimes)-1],
		Loss: res.Losses[len(res.Losses)-1]}
}

// Figure6 reproduces Figure 6: MF epoch runtime for Classic PS (PS-Lite),
// Classic PS with fast local access, and Lapse, over the parallelism sweep.
func Figure6(variant string, pars []Parallelism) []Series {
	cfg := MFScaledConfig(variant)
	m := data.SyntheticMatrix(cfg.Rows, cfg.Cols, cfg.NNZ, cfg.TrueRank, 0.05, cfg.Seed)
	systems := []struct {
		label string
		kind  driver.Kind
	}{
		{"classic", driver.ClassicPS},
		{"classic+fla", driver.ClassicFast},
		{"lapse", driver.Lapse},
	}
	out := make([]Series, 0, len(systems))
	for _, sys := range systems {
		out = append(out, series(sys.label, pars, func(par Parallelism) Point { return RunMFCell(sys.kind, par, cfg, m) }))
	}
	return out
}

// Figure9 reproduces Figure 9: MF epoch runtime for the stale PS (Petuum)
// with client- and server-based synchronization (the latter with its warm-up
// epoch reported separately), Lapse, and the low-level implementation.
func Figure9(variant string, pars []Parallelism) []Series {
	cfg := MFScaledConfig(variant)
	m := data.SyntheticMatrix(cfg.Rows, cfg.Cols, cfg.NNZ, cfg.TrueRank, 0.05, cfg.Seed)

	// Stale PS, client sync.
	client := series("ssp-client", pars, func(par Parallelism) Point { return RunMFCell(driver.SSPClient, par, cfg, m) })
	// Stale PS, server sync: epoch 1 is the warm-up (subscriptions being
	// learned), epoch 2 the steady state.
	warm := Series{Label: "ssp-srv-warm"}
	steady := Series{Label: "ssp-server"}
	cfg2 := cfg
	cfg2.Epochs = 2
	for _, par := range pars {
		pts := runMF(driver.SSPServer, par, cfg2, m)
		warm.Points = append(warm.Points, pts[0])
		steady.Points = append(steady.Points, pts[1])
	}
	return []Series{client, warm, steady,
		series("lapse", pars, func(par Parallelism) Point { return RunMFCell(driver.Lapse, par, cfg, m) }),
		series("low-level", pars, func(par Parallelism) Point { return RunMFLowLevelCell(par, cfg, m) })}
}

// --- Knowledge graph embeddings -------------------------------------------

// KGETask names one of the paper's three KGE configurations.
type KGETask string

// The Figure 7 tasks.
const (
	ComplExSmall KGETask = "ComplEx-S"
	ComplExLarge KGETask = "ComplEx-L"
	RescalLarge  KGETask = "RESCAL-L"
)

// KGEScaledConfig returns the harness-scale stand-in for a paper task.
// ComplEx-Small accesses the PS frequently with little computation per
// access (high communication-to-computation ratio); ComplEx-Large and
// RESCAL-Large compute much more per data point. All three hide latency at
// the kge trainer's one window depth, picked on their Figure 7 cells
// (DESIGN.md, "Latency hiding in the trainers").
func KGEScaledConfig(task KGETask) kge.Config {
	base := kge.Config{
		Entities: 3000, Relations: 20, Triples: 12000,
		Negatives: 2, LR: 0.1, Epochs: 1, Seed: 5,
	}
	switch task {
	case ComplExSmall:
		base.Model = kge.ComplEx
		base.Dim = 8
		base.PointCost = 10 * time.Microsecond
	case ComplExLarge:
		base.Model = kge.ComplEx
		base.Dim = 64
		base.PointCost = 400 * time.Microsecond
	case RescalLarge:
		base.Model = kge.RESCAL
		base.Dim = 16 // relation embeddings d² = 256, 16× entity size
		base.PointCost = 400 * time.Microsecond
	default:
		panic(fmt.Sprintf("harness: unknown KGE task %q", task))
	}
	return base
}

// KGEVariant is one line of Figure 7.
type KGEVariant struct {
	Label string
	Kind  driver.Kind
	Mode  kge.Mode
}

// Figure7Variants returns the four systems of Figure 7.
func Figure7Variants() []KGEVariant {
	return []KGEVariant{
		{"classic", driver.ClassicPS, kge.ModePlain},
		{"classic+fla", driver.ClassicFast, kge.ModePlain},
		{"lapse-dc", driver.Lapse, kge.ModeDataClustering},
		{"lapse", driver.Lapse, kge.ModeFull},
	}
}

// KGENetProfile returns the network profile of a KGE task. The Large tasks
// scale link bandwidth down in proportion to their embedding-size scale-down
// (the paper's dim-4000 ComplEx values are ~60× larger than the simulated
// dim-64 ones), preserving the paper's bytes-per-value to bandwidth ratio —
// the regime where large-embedding traffic saturates the network.
func KGENetProfile(task KGETask, nodes int) simnet.Config {
	net := NetProfile(nodes)
	switch task {
	case ComplExLarge:
		net.BytesPerSecond = 15e6
	case RescalLarge:
		net.BytesPerSecond = 12e6
	}
	return net
}

// RunKGECell measures one KGE epoch.
func RunKGECell(v KGEVariant, task KGETask, par Parallelism, cfg kge.Config, kg *data.KG) Point {
	return last(runCell(v.Kind, par, KGENetProfile(task, par.Nodes), cfg.Layout(), func(cl *cluster.Cluster, ps driver.PS) ([]time.Duration, []float64, error) {
		res, err := kge.RunOnKG(cl, ps, v.Kind, cfg, v.Mode, kg)
		return res.EpochTimes, res.Losses, err
	}))
}

// Figure7 reproduces one subfigure of Figure 7 (all four system variants on
// one task).
func Figure7(task KGETask, pars []Parallelism) []Series {
	return kgeFigure(task, Figure7Variants(), pars)
}

// Figure1 reproduces Figure 1: the RESCAL task with the classic PS, the
// classic PS with fast local access, and Lapse.
func Figure1(pars []Parallelism) []Series {
	return kgeFigure(RescalLarge, []KGEVariant{
		{"classic", driver.ClassicPS, kge.ModePlain},
		{"classic+fla", driver.ClassicFast, kge.ModePlain},
		{"lapse", driver.Lapse, kge.ModeFull},
	}, pars)
}

// kgeFigure measures each of variants on task, one Series each.
func kgeFigure(task KGETask, variants []KGEVariant, pars []Parallelism) []Series {
	cfg := KGEScaledConfig(task)
	kg := data.SyntheticKG(cfg.Entities, cfg.Relations, cfg.Triples, cfg.Seed)
	out := make([]Series, 0, len(variants))
	for _, v := range variants {
		out = append(out, series(v.Label, pars, func(par Parallelism) Point { return RunKGECell(v, task, par, cfg, kg) }))
	}
	return out
}

// --- Word vectors ----------------------------------------------------------

// W2VScaledConfig returns the harness-scale Word2Vec configuration.
func W2VScaledConfig() w2v.Config {
	return w2v.Config{
		Vocab: 3000, Sentences: 400, SentenceLen: 12,
		Dim: 16, Window: 2, Negatives: 3,
		NegPool: 300, RefillAt: 290,
		LR: 0.05, Epochs: 1, Seed: 9,
		EvalExamples: 400,
		PairCost:     30 * time.Microsecond,
	}
}

// RunW2VCell measures one Word2Vec run (possibly multiple epochs) and returns
// one Point per epoch, with the held-out error as its loss.
func RunW2VCell(kind driver.Kind, useLH bool, par Parallelism, cfg w2v.Config, c *data.Corpus) []Point {
	return runCell(kind, par, NetProfile(par.Nodes), cfg.Layout(), func(cl *cluster.Cluster, ps driver.PS) ([]time.Duration, []float64, error) {
		res, err := w2v.RunOnCorpus(cl, ps, kind, cfg, useLH, c)
		return res.EpochTimes, res.Errors, err
	})
}

// Figure8 reproduces Figure 8a (epoch runtime) and returns, per system and
// parallelism, the error trajectory over epochs with cumulative runtimes
// (Figures 8b/8c).
type Figure8Result struct {
	EpochTime []Series
	// Trajectories maps "system/parallelism" to per-epoch (cumulative
	// runtime, error) pairs.
	Trajectories map[string][]TrajectoryPoint
}

// TrajectoryPoint is one epoch of an error-over-time curve.
type TrajectoryPoint struct {
	Epoch   int
	Runtime time.Duration // cumulative
	Error   float64
}

// Figure8 runs the word-vectors task for the classic PS with fast local
// access and Lapse.
func Figure8(pars []Parallelism, epochs int) Figure8Result {
	cfg := W2VScaledConfig()
	cfg.Epochs = epochs
	corpus := data.SyntheticCorpus(cfg.Vocab, cfg.Sentences, cfg.SentenceLen, cfg.Seed)
	systems := []struct {
		label string
		kind  driver.Kind
		lh    bool
	}{
		{"classic+fla", driver.ClassicFast, false},
		{"lapse", driver.Lapse, true},
	}
	out := Figure8Result{Trajectories: map[string][]TrajectoryPoint{}}
	for _, sys := range systems {
		out.EpochTime = append(out.EpochTime, series(sys.label, pars, func(par Parallelism) Point {
			pts := RunW2VCell(sys.kind, sys.lh, par, cfg, corpus)
			// Report the mean epoch time in the runtime series.
			var total time.Duration
			traj := make([]TrajectoryPoint, 0, len(pts))
			for e, p := range pts {
				total += p.EpochTime
				traj = append(traj, TrajectoryPoint{Epoch: e + 1, Runtime: total, Error: p.Loss})
			}
			out.Trajectories[fmt.Sprintf("%s/%s", sys.label, par)] = traj
			pt := last(pts)
			pt.EpochTime = total / time.Duration(len(pts))
			return pt
		}))
	}
	return out
}
