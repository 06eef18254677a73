// Benchmarks regenerating every table and figure of the paper's evaluation
// section. Each benchmark runs one full experiment per iteration and logs the
// rendered result, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. Under -short (or -bench with
// testing.Short), the parallelism sweep is reduced to keep runs fast.
// `go run ./cmd/lapse-sim [-short] <experiment>` renders one experiment alone.
package lapse_test

import (
	"testing"

	"lapse"
	"lapse/internal/harness"
)

func benchPars(b *testing.B) []harness.Parallelism {
	b.Helper()
	if testing.Short() {
		return harness.ShortParallelism()
	}
	return harness.PaperParallelism()
}

// BenchmarkFigure1 regenerates Figure 1: KGE (RESCAL) epoch runtime for the
// classic PS, the classic PS with fast local access, and Lapse.
func BenchmarkFigure1(b *testing.B) {
	pars := benchPars(b)
	for i := 0; i < b.N; i++ {
		series := harness.Figure1(pars)
		b.Log("\n" + harness.Render("Figure 1", series))
		reportSpeedups(b, series)
	}
}

// BenchmarkFigure6 regenerates Figure 6: matrix-factorization epoch runtime
// on both synthetic matrices.
func BenchmarkFigure6(b *testing.B) {
	pars := benchPars(b)
	for _, variant := range []string{"10x1", "3x3"} {
		variant := variant
		b.Run(variant, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				series := harness.Figure6(variant, pars)
				b.Log("\n" + harness.Render("Figure 6 "+variant, series))
				reportSpeedups(b, series)
			}
		})
	}
}

// BenchmarkFigure7 regenerates Figure 7: the three KGE tasks across the four
// system variants.
func BenchmarkFigure7(b *testing.B) {
	pars := benchPars(b)
	for _, task := range []harness.KGETask{harness.ComplExSmall, harness.ComplExLarge, harness.RescalLarge} {
		task := task
		b.Run(string(task), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				series := harness.Figure7(task, pars)
				b.Log("\n" + harness.Render("Figure 7 "+string(task), series))
				reportSpeedups(b, series)
			}
		})
	}
}

// BenchmarkFigure8 regenerates Figure 8: word-vector epoch runtime plus the
// error-over-epochs and error-over-time trajectories.
func BenchmarkFigure8(b *testing.B) {
	pars := benchPars(b)
	epochs := 5
	if testing.Short() {
		epochs = 2
	}
	for i := 0; i < b.N; i++ {
		res := harness.Figure8(pars, epochs)
		b.Log("\n" + harness.RenderFigure8(res))
		reportSpeedups(b, res.EpochTime)
	}
}

// BenchmarkFigure9 regenerates Figure 9: MF against the stale PS (client- and
// server-based synchronization, with the warm-up epoch reported separately),
// Lapse, and the specialized low-level implementation.
func BenchmarkFigure9(b *testing.B) {
	pars := benchPars(b)
	for i := 0; i < b.N; i++ {
		series := harness.Figure9("10x1", pars)
		b.Log("\n" + harness.Render("Figure 9", series))
		reportSpeedups(b, series)
	}
}

// BenchmarkTable3 regenerates Table 3 (location-management strategy costs).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + harness.RenderTable3(rows))
		}
	}
}

// BenchmarkTable4 regenerates Table 4 (per-task key accesses and MB/s read,
// single thread).
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.Log("\n" + harness.RenderTable4(harness.Table4()))
	}
}

// BenchmarkTable5 regenerates Table 5 (reads, relocations, relocation times
// for ComplEx-Large on Lapse).
func BenchmarkTable5(b *testing.B) {
	pars := benchPars(b)
	for i := 0; i < b.N; i++ {
		rows := harness.Table5(pars)
		b.Log("\n" + harness.RenderTable5(rows))
		last := rows[len(rows)-1]
		b.ReportMetric(float64(last.NonLocalReads), "nonlocal-reads")
		b.ReportMetric(last.MeanRelocation.Seconds()*1e3, "mean-RT-ms")
	}
}

// BenchmarkAblation regenerates the Section 4.6 ablation study.
func BenchmarkAblation(b *testing.B) {
	pars := benchPars(b)
	par := pars[len(pars)-1]
	for i := 0; i < b.N; i++ {
		a := harness.Ablation(par)
		b.Log("\n" + harness.RenderAblation(a, par))
		b.ReportMetric(a.LapseCachedEpoch.Seconds()/a.LapseEpoch.Seconds(), "cached/uncached")
	}
}

// BenchmarkBatching quantifies the per-destination batching of the unified
// server runtime: the same pull/push workload issued as multi-key operations
// and — the unbatched reference — key by key, on the paper's simulated
// testbed network, at server shard counts 1 and 4. The msgs/epoch metric shows the message-count reduction (and the
// per-shard message split at shards=4); wall-clock time shows the latency
// effect — and, on multi-core hosts, the sharded runtime's server-side
// speedup. The cluster is built once per sub-benchmark, outside the timed
// loop, so allocs/op and bytes/op (-benchmem) measure the steady-state
// remote multi-key message path, not cluster construction.
func BenchmarkBatching(b *testing.B) {
	const (
		nodes, workers = 4, 2
		keysPerOp      = 32
		opsPerWorker   = 50
	)
	for _, mode := range []struct {
		name   string
		single bool
		shards int
	}{
		{"multi-key", false, 1},
		{"multi-key-shards=4", false, 4},
		{"single-key", true, 1},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cl, err := lapse.NewCluster(lapse.Config{
				Nodes:          nodes,
				WorkersPerNode: workers,
				Keys:           4096,
				ValueLength:    8,
				Network:        lapse.DefaultNetwork(),
				ServerShards:   mode.shards,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			var msgs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				before := cl.Stats().NetworkMessages
				err = cl.Run(func(w *lapse.Worker) error {
					keys := make([]lapse.Key, keysPerOp)
					buf := make([]float32, keysPerOp*8)
					for op := 0; op < opsPerWorker; op++ {
						for j := range keys {
							keys[j] = lapse.Key((w.ID()*1021 + op*137 + j*31) % 4096)
						}
						if err := benchOp(mode.single, keys, buf, w.PullAsync); err != nil {
							return err
						}
						if err := benchOp(mode.single, keys, buf, w.PushAsync); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				msgs = cl.Stats().NetworkMessages - before
			}
			b.ReportMetric(float64(msgs), "msgs/epoch")
		})
	}
}

// benchOp issues op over keys and waits for it: as one multi-key operation,
// or key by key with every single-key operation in flight at once.
func benchOp(single bool, keys []lapse.Key, buf []float32, op func([]lapse.Key, []float32) *lapse.Async) error {
	if !single {
		return op(keys, buf).Wait()
	}
	l := len(buf) / len(keys)
	inflight := make([]*lapse.Async, len(keys))
	for i := range keys {
		inflight[i] = op(keys[i:i+1], buf[i*l:(i+1)*l])
	}
	for _, a := range inflight {
		if err := a.Wait(); err != nil {
			return err
		}
	}
	return nil
}

// reportSpeedups attaches the last series' scaling factor as a metric so
// bench output captures the headline result without parsing logs.
func reportSpeedups(b *testing.B, series []harness.Series) {
	if len(series) == 0 {
		return
	}
	lapse := series[len(series)-1]
	b.ReportMetric(lapse.Speedup(), "lapse-speedup")
	if len(series) > 1 {
		classic := series[0]
		n := len(classic.Points)
		if n >= 2 && lapse.Points[1].EpochTime > 0 {
			ratio := float64(classic.Points[1].EpochTime) / float64(lapse.Points[1].EpochTime)
			b.ReportMetric(ratio, "lapse-vs-classic-2nodes")
		}
	}
}
