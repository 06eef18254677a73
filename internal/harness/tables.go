package harness

import (
	"fmt"
	"strings"
	"time"

	"lapse/internal/cluster"
	"lapse/internal/data"
	"lapse/internal/driver"
	"lapse/internal/ml/kge"
	"lapse/internal/ml/mf"
)

// Table4Row characterizes one task's parameter-access pattern, measured for a
// single worker thread on a single node (Table 4's two rightmost columns).
type Table4Row struct {
	Task         string
	KeyAccesses  float64 // key accesses per second (reads)
	ReadMBPerSec float64
}

// Table4 measures key accesses and read volume per second for each task, on
// a 1-node 1-worker cluster (as in the paper's Table 4 methodology).
func Table4() []Table4Row {
	par := Parallelism{Nodes: 1, Workers: 1}
	rows := make([]Table4Row, 0, 6)

	for _, variant := range []string{"10x1", "3x3"} {
		cfg := MFScaledConfig(variant)
		m := data.SyntheticMatrix(cfg.Rows, cfg.Cols, cfg.NNZ, cfg.TrueRank, 0.05, cfg.Seed)
		pt := RunMFCell(driver.Lapse, par, cfg, m)
		rows = append(rows, table4Row("MF "+variant, pt))
	}
	for _, task := range []KGETask{ComplExSmall, ComplExLarge, RescalLarge} {
		cfg := KGEScaledConfig(task)
		kg := data.SyntheticKG(cfg.Entities, cfg.Relations, cfg.Triples, cfg.Seed)
		pt := RunKGECell(KGEVariant{Label: string(task), Kind: driver.Lapse, Mode: kge.ModeFull}, task, par, cfg, kg)
		rows = append(rows, table4Row(string(task), pt))
	}
	{
		cfg := W2VScaledConfig()
		corpus := data.SyntheticCorpus(cfg.Vocab, cfg.Sentences, cfg.SentenceLen, cfg.Seed)
		pt := last(RunW2VCell(driver.Lapse, true, par, cfg, corpus))
		rows = append(rows, table4Row("Word2Vec", pt))
	}
	return rows
}

func table4Row(task string, pt Point) Table4Row {
	secs := pt.EpochTime.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	return Table4Row{
		Task:         task,
		KeyAccesses:  float64(pt.Stats.TotalReads()) / secs,
		ReadMBPerSec: float64(pt.Stats.ReadValues) * 4 / 1e6 / secs,
	}
}

// RenderTable4 formats Table 4.
func RenderTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: per-task access pattern (single thread)\n")
	fmt.Fprintf(&b, "%-12s %14s %12s\n", "task", "key acc. /s", "MB/s read")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %14.0f %12.2f\n", r.Task, r.KeyAccesses, r.ReadMBPerSec)
	}
	return b.String()
}

// Table5Row is one parallelism level of Table 5: parameter reads, locality,
// relocations, and relocation times for ComplEx-Large on Lapse.
type Table5Row struct {
	Par            Parallelism
	TotalReads     int64
	LocalReads     int64
	NonLocalReads  int64
	ReadsPerSec    float64
	RelocPerSec    float64
	MeanRelocation time.Duration
}

// Table5 reproduces Table 5 on the scaled ComplEx-Large task.
func Table5(pars []Parallelism) []Table5Row {
	cfg := KGEScaledConfig(ComplExLarge)
	kg := data.SyntheticKG(cfg.Entities, cfg.Relations, cfg.Triples, cfg.Seed)
	rows := make([]Table5Row, 0, len(pars))
	for _, par := range pars {
		pt := RunKGECell(KGEVariant{Label: "lapse", Kind: driver.Lapse, Mode: kge.ModeFull}, ComplExLarge, par, cfg, kg)
		secs := pt.EpochTime.Seconds()
		rows = append(rows, Table5Row{
			Par:            par,
			TotalReads:     pt.Stats.TotalReads(),
			LocalReads:     pt.Stats.LocalReads,
			NonLocalReads:  pt.Stats.RemoteReads,
			ReadsPerSec:    float64(pt.Stats.TotalReads()) / secs,
			RelocPerSec:    float64(pt.Stats.Relocations) / secs,
			MeanRelocation: pt.Stats.MeanRelocationTime(),
		})
	}
	return rows
}

// RenderTable5 formats Table 5.
func RenderTable5(rows []Table5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: parameter reads, relocations, relocation times (ComplEx-Large, Lapse)\n")
	fmt.Fprintf(&b, "%-6s %12s %12s %12s %12s %12s %10s\n",
		"nodes", "reads total", "local", "non-local", "reads/s", "reloc/s", "mean RT")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %12d %12d %12d %12.0f %12.0f %10s\n",
			r.Par, r.TotalReads, r.LocalReads, r.NonLocalReads,
			r.ReadsPerSec, r.RelocPerSec, r.MeanRelocation.Round(10*time.Microsecond))
	}
	return b.String()
}

// AblationResult is the Section 4.6 study: the effect of location caching and
// of DPA vs. fast local access alone.
type AblationResult struct {
	// CachingDelta is (cached − uncached)/uncached epoch time for the
	// full-Lapse KGE run (the paper observed ±3%).
	LapseEpoch       time.Duration
	LapseCachedEpoch time.Duration
	// DPA ablation (Figure 1/7 lines re-measured at one parallelism):
	ClassicEpoch     time.Duration
	ClassicFastEpoch time.Duration
}

// Ablation runs the Section 4.6 ablation on the RESCAL task at par.
func Ablation(par Parallelism) AblationResult {
	cfg := KGEScaledConfig(RescalLarge)
	kg := data.SyntheticKG(cfg.Entities, cfg.Relations, cfg.Triples, cfg.Seed)
	var out AblationResult
	out.LapseEpoch = RunKGECell(KGEVariant{Kind: driver.Lapse, Mode: kge.ModeFull}, RescalLarge, par, cfg, kg).EpochTime
	out.LapseCachedEpoch = RunKGECell(KGEVariant{Kind: driver.LapseCached, Mode: kge.ModeFull}, RescalLarge, par, cfg, kg).EpochTime
	out.ClassicEpoch = RunKGECell(KGEVariant{Kind: driver.ClassicPS, Mode: kge.ModePlain}, RescalLarge, par, cfg, kg).EpochTime
	out.ClassicFastEpoch = RunKGECell(KGEVariant{Kind: driver.ClassicFast, Mode: kge.ModePlain}, RescalLarge, par, cfg, kg).EpochTime
	return out
}

// RenderAblation formats the ablation summary.
func RenderAblation(a AblationResult, par Parallelism) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation (Section 4.6) at %s, RESCAL task\n", par)
	fmt.Fprintf(&b, "  location caching: lapse %v vs lapse+caches %v (delta %+.1f%%)\n",
		round(a.LapseEpoch), round(a.LapseCachedEpoch),
		100*(a.LapseCachedEpoch.Seconds()-a.LapseEpoch.Seconds())/a.LapseEpoch.Seconds())
	fmt.Fprintf(&b, "  DPA vs fast local access alone: classic %v, classic+fla %v, lapse %v\n",
		round(a.ClassicEpoch), round(a.ClassicFastEpoch), round(a.LapseEpoch))
	return b.String()
}

// RenderFigure8 formats the Figure 8 results (runtime series plus error
// trajectories).
func RenderFigure8(r Figure8Result) string {
	var b strings.Builder
	b.WriteString(Render("Figure 8a: word2vec epoch runtime", r.EpochTime))
	fmt.Fprintf(&b, "Figures 8b/8c: error over epochs and runtime\n")
	for key, traj := range r.Trajectories {
		fmt.Fprintf(&b, "  %s:", key)
		for _, p := range traj {
			fmt.Fprintf(&b, "  e%d %.4f@%s", p.Epoch, p.Error, p.Runtime.Round(time.Millisecond))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// MFLossSanity trains a few epochs on the Lapse variant and returns the loss
// trajectory (used by tests to confirm harness configs actually learn).
func MFLossSanity(epochs int) []float64 {
	cfg := MFScaledConfig("3x3")
	cfg.Epochs = epochs
	cfg.PointCost = 0
	m := data.SyntheticMatrix(cfg.Rows, cfg.Cols, cfg.NNZ, cfg.TrueRank, 0.05, cfg.Seed)
	cl := cluster.New(cluster.Config{Nodes: 2, WorkersPerNode: 2})
	ps := driver.Build(driver.Lapse, cl, cfg.Layout(), driver.Options{})
	defer func() {
		cl.Close()
		ps.Shutdown()
	}()
	res, err := mf.RunOnMatrix(cl, ps, driver.Lapse, cfg, m)
	if err != nil {
		panic(err)
	}
	return res.Losses
}
