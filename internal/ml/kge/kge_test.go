package kge

import (
	"slices"
	"testing"

	"lapse/internal/cluster"
	"lapse/internal/data"
	"lapse/internal/driver"
	"lapse/internal/kv"
)

func tinyConfig(model Model) Config {
	return Config{
		Model: model, Entities: 200, Relations: 8, Triples: 1500,
		Dim: 4, Negatives: 2, LR: 0.2, Epochs: 3, Seed: 3,
	}
}

func runKGE(t *testing.T, kind driver.Kind, nodes, workers int, cfg Config, mode Mode, kg *data.KG) *Result {
	t.Helper()
	cl := cluster.New(cluster.Config{Nodes: nodes, WorkersPerNode: workers})
	ps := driver.Build(kind, cl, cfg.Layout(), driver.Options{})
	defer func() { cl.Close(); ps.Shutdown() }()
	res, err := RunOnKG(cl, ps, kind, cfg, mode, kg)
	if err != nil {
		t.Fatalf("%s mode %d: %v", kind, mode, err)
	}
	return res
}

func TestLayouts(t *testing.T) {
	c := tinyConfig(ComplEx)
	l := c.Layout()
	if l.NumKeys() != 208 {
		t.Fatalf("keys = %d", l.NumKeys())
	}
	if l.Len(0) != 2*2*c.Dim { // complex entity: (re+im) × (emb+acc)
		t.Fatalf("entity len = %d", l.Len(0))
	}
	if l.Len(200) != 2*2*c.Dim {
		t.Fatalf("complex relation len = %d", l.Len(200))
	}
	r := tinyConfig(RESCAL)
	lr := r.Layout()
	if lr.Len(0) != 2*r.Dim {
		t.Fatalf("rescal entity len = %d", lr.Len(0))
	}
	if lr.Len(200) != 2*r.Dim*r.Dim {
		t.Fatalf("rescal relation len = %d", lr.Len(200))
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	for _, model := range []Model{ComplEx, RESCAL} {
		model := model
		t.Run(string(model), func(t *testing.T) {
			cfg := tinyConfig(model)
			kg := data.SyntheticKG(cfg.Entities, cfg.Relations, cfg.Triples, cfg.Seed)
			res := runKGE(t, driver.Lapse, 2, 2, cfg, ModeFull, kg)
			if len(res.Losses) != cfg.Epochs {
				t.Fatalf("losses = %v", res.Losses)
			}
			first, last := res.Losses[0], res.Losses[len(res.Losses)-1]
			if last >= first {
				t.Fatalf("loss did not decrease: %v", res.Losses)
			}
		})
	}
}

func TestAllVariantsTrain(t *testing.T) {
	cfg := tinyConfig(ComplEx)
	cfg.Epochs = 1
	kg := data.SyntheticKG(cfg.Entities, cfg.Relations, cfg.Triples, cfg.Seed)
	cases := []struct {
		kind driver.Kind
		mode Mode
	}{
		{driver.ClassicPS, ModePlain},
		{driver.ClassicFast, ModePlain},
		{driver.Lapse, ModeDataClustering},
		{driver.Lapse, ModeFull},
		{driver.LapseCached, ModeFull},
	}
	for _, c := range cases {
		res := runKGE(t, c.kind, 2, 2, cfg, c.mode, kg)
		if len(res.EpochTimes) != 1 || res.EpochTimes[0] <= 0 {
			t.Fatalf("%s mode %d: bad epoch times %v", c.kind, c.mode, res.EpochTimes)
		}
		if res.Losses[0] <= 0 {
			t.Fatalf("%s mode %d: suspicious loss %v", c.kind, c.mode, res.Losses)
		}
	}
}

func TestModeRequiresLocalize(t *testing.T) {
	cfg := tinyConfig(ComplEx)
	cl := cluster.New(cluster.Config{Nodes: 1, WorkersPerNode: 1})
	ps := driver.Build(driver.ClassicPS, cl, cfg.Layout(), driver.Options{})
	defer func() { cl.Close(); ps.Shutdown() }()
	kg := data.SyntheticKG(cfg.Entities, cfg.Relations, cfg.Triples, cfg.Seed)
	if _, err := RunOnKG(cl, ps, driver.ClassicPS, cfg, ModeFull, kg); err == nil {
		t.Fatal("ModeFull on classic PS should fail")
	}
}

func TestRelationAccessesLocalUnderDataClustering(t *testing.T) {
	// With data clustering, all relation-parameter accesses must be local.
	cfg := tinyConfig(RESCAL)
	cfg.Epochs = 1
	kg := data.SyntheticKG(cfg.Entities, cfg.Relations, cfg.Triples, cfg.Seed)
	cl := cluster.New(cluster.Config{Nodes: 2, WorkersPerNode: 2})
	ps := driver.Build(driver.Lapse, cl, cfg.Layout(), driver.Options{})
	defer func() { cl.Close(); ps.Shutdown() }()
	if _, err := RunOnKG(cl, ps, driver.Lapse, cfg, ModeFull, kg); err != nil {
		t.Fatal(err)
	}
	// All triples' relations were localized; entity conflicts can cause
	// some remote reads, but there should be overwhelmingly local access.
	var local, remote int64
	for _, st := range ps.Stats() {
		local += st.LocalReads.Load()
		remote += st.RemoteReads.Load()
	}
	if local == 0 {
		t.Fatal("no local reads")
	}
	if remote > local/2 {
		t.Fatalf("PAL ineffective: %d local vs %d remote reads", local, remote)
	}
}

func TestGradientsComplExFiniteDifference(t *testing.T) {
	cfg := tinyConfig(ComplEx)
	checkGradients(t, cfg)
}

func TestGradientsRESCALFiniteDifference(t *testing.T) {
	cfg := tinyConfig(RESCAL)
	checkGradients(t, cfg)
}

// checkGradients compares scoreAndGrad's analytic gradients against central
// finite differences of the logistic loss.
func checkGradients(t *testing.T, cfg Config) {
	t.Helper()
	sc := newScorer(cfg)
	entHalf := cfg.entLen() / 2
	relHalf := cfg.relLen() / 2
	se := fill(entHalf, 0.3)
	oe := fill(entHalf, -0.2)
	re := fill(relHalf, 0.15)
	for _, label := range []float32{1, -1} {
		gs := make([]float32, entHalf)
		gr := make([]float32, relHalf)
		goo := make([]float32, entHalf)
		sc.scoreAndGrad(cfg, se, re, oe, gs, gr, goo, label)
		const h = 1e-3
		lossAt := func() float64 {
			tmp := make([]float32, entHalf)
			f := sc.scoreAndGrad(cfg, se, re, oe, tmp, make([]float32, relHalf), make([]float32, entHalf), label)
			return logisticLoss(f, label)
		}
		for _, probe := range []struct {
			vec  []float32
			grad []float32
		}{{se, gs}, {re, gr}, {oe, goo}} {
			for i := 0; i < len(probe.vec); i += 3 { // sample a few coordinates
				orig := probe.vec[i]
				probe.vec[i] = orig + h
				up := lossAt()
				probe.vec[i] = orig - h
				down := lossAt()
				probe.vec[i] = orig
				fd := (up - down) / (2 * h)
				if diff := fd - float64(probe.grad[i]); diff > 1e-2 || diff < -1e-2 {
					t.Fatalf("model %s label %v coord %d: analytic %v vs fd %v",
						cfg.Model, label, i, probe.grad[i], fd)
				}
			}
		}
	}
}

func fill(n int, base float32) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = base + float32(i%5)*0.01
	}
	return v
}

func TestSampleDedupesKeys(t *testing.T) {
	// Subject and object coincide, and the negatives repeat them.
	keys := entityKeys(nil, []int32{5, 5, 7, 5, 9, 7})
	if want := []kv.Key{5, 7, 9}; !slices.Equal(keys, want) {
		t.Fatalf("keys %v, want %v", keys, want)
	}
}

// TestLossesIndependentOfLocality checks that the PAL techniques move
// parameters, not what trains: on one worker every access is local, so every
// mode must give bit-identical per-epoch losses.
func TestLossesIndependentOfLocality(t *testing.T) {
	for _, model := range []Model{ComplEx, RESCAL} {
		cfg := tinyConfig(model)
		kg := data.SyntheticKG(cfg.Entities, cfg.Relations, cfg.Triples, cfg.Seed)
		want := runKGE(t, driver.Lapse, 1, 1, cfg, ModePlain, kg).Losses
		for _, mode := range []Mode{ModeDataClustering, ModeFull} {
			if got := runKGE(t, driver.Lapse, 1, 1, cfg, mode, kg).Losses; !slices.Equal(got, want) {
				t.Fatalf("%s mode %d: losses %v, mode %d %v", model, mode, got, ModePlain, want)
			}
		}
	}
}

// TestLapseStepAllocatesNothing: on one node every parameter is local, and a
// step reuses its buffers and index, so after a warm-up epoch an epoch
// allocates only per epoch — the samples, the worker's share, the scorer and
// the window — never per data point.
func TestLapseStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, model := range []Model{ComplEx, RESCAL} {
		cfg := tinyConfig(model)
		cfg.Triples = 20_000
		kg := data.SyntheticKG(cfg.Entities, cfg.Relations, cfg.Triples, cfg.Seed)
		cl := cluster.New(cluster.Config{Nodes: 1, WorkersPerNode: 1})
		ps := driver.Build(driver.Lapse, cl, cfg.Layout(), driver.Options{})
		parts, _ := kg.PartitionByRelation(cl.Nodes())
		ps.Init(cfg.InitEmbeddings())
		epoch := 0
		// AllocsPerRun's first call, not counted, is the warm-up epoch 0.
		perEpoch := testing.AllocsPerRun(2, func() {
			cl.RunWorkers(func(node, worker int) {
				if _, _, err := runWorkerEpoch(cl, ps, cfg, ModeFull, parts[node], epoch, node, worker); err != nil {
					t.Error(err)
				}
			})
			epoch++
		})
		cl.Close()
		ps.Shutdown()
		if perPoint := perEpoch / float64(cfg.Triples); perPoint >= 0.01 {
			t.Errorf("%s: a KGE epoch allocates %.0f times for %d data points (%.4f per point), want < 0.01 per point",
				model, perEpoch, cfg.Triples, perPoint)
		} else {
			t.Logf("%s: a KGE epoch allocates %.0f times for %d data points", model, perEpoch, cfg.Triples)
		}
	}
}

// kvCall is one Pull, Localize or LocalizeAsync call of a worker.
type kvCall struct {
	op   string // "pull", "localize" or "async"
	keys []kv.Key
}

// recordingPS hands out handles that log those calls per worker.
type recordingPS struct {
	driver.PS
	logs [][]kvCall // by worker; each worker appends only to its own
}

func (p *recordingPS) Handle(worker int) kv.KV {
	return &recordingKV{KV: p.PS.Handle(worker), log: &p.logs[worker]}
}

type recordingKV struct {
	kv.KV
	log *[]kvCall
}

func (r *recordingKV) record(op string, keys []kv.Key) {
	*r.log = append(*r.log, kvCall{op: op, keys: slices.Clone(keys)})
}

func (r *recordingKV) Pull(keys []kv.Key, dst []float32) error {
	r.record("pull", keys)
	return r.KV.Pull(keys, dst)
}

func (r *recordingKV) Localize(keys []kv.Key) error {
	r.record("localize", keys)
	return r.KV.Localize(keys)
}

func (r *recordingKV) LocalizeAsync(keys []kv.Key) *kv.Future {
	r.record("async", keys)
	return r.KV.LocalizeAsync(keys)
}

// TestSamplePrefetchOrder pins the prefetch window on one node, where each
// worker's call order is deterministic. Under ModeFull a worker's data points
// enter the window in order, at most windowDepth ahead of the one in training
// and never past the worker's share; each reaches LocalizeAsync when it enters
// and again on every later step until it trains, and on no step after. The
// other modes localize no entity key.
func TestSamplePrefetchOrder(t *testing.T) {
	cfg := tinyConfig(ComplEx)
	cfg.Epochs = 1
	kg := data.SyntheticKG(cfg.Entities, cfg.Relations, cfg.Triples, cfg.Seed)
	isEntity := func(k kv.Key) bool { return k < kv.Key(cfg.Entities) }
	sorted := func(keys []kv.Key) []kv.Key { return slices.Sorted(slices.Values(keys)) }
	for _, mode := range []Mode{ModePlain, ModeDataClustering, ModeFull} {
		cl := cluster.New(cluster.Config{Nodes: 1, WorkersPerNode: 2})
		ps := driver.Build(driver.Lapse, cl, cfg.Layout(), driver.Options{})
		rec := &recordingPS{PS: ps, logs: make([][]kvCall, cl.TotalWorkers())}
		_, err := RunOnKG(cl, rec, driver.Lapse, cfg, mode, kg)
		cl.Close()
		ps.Shutdown()
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		for w, log := range rec.logs {
			// Each Pull trains one point: its entity keys, then its relation.
			var points [][]kv.Key
			for _, c := range log {
				if c.op == "pull" {
					points = append(points, sorted(c.keys[:len(c.keys)-1]))
				}
			}
			if len(points) == 0 {
				t.Fatalf("mode %d worker %d trained no point", mode, w)
			}
			// Points [trained, entered) are in the window and not trained;
			// requests[j] counts the LocalizeAsync calls naming point j.
			entered, trained := 0, 0
			requests := make([]int, len(points))
			for _, c := range log {
				keys := sorted(c.keys)
				switch {
				case c.op == "pull":
					if mode == ModeFull && trained == entered {
						t.Fatalf("worker %d: point %d trained before it entered the window", w, trained)
					}
					trained++
				case !slices.ContainsFunc(keys, isEntity):
					// Data clustering's localize of the node's relations.
				case mode != ModeFull || c.op == "localize":
					t.Fatalf("mode %d worker %d: %s of entity keys %v", mode, w, c.op, c.keys)
				case entered < len(points) && slices.Equal(keys, points[entered]):
					if entered-trained > windowDepth {
						t.Fatalf("worker %d: point %d entered while point %d trained, depth %d", w, entered, trained, windowDepth)
					}
					requests[entered]++
					entered++
				default:
					// A repeat request: of a point ahead of the one about to train.
					lo := min(trained+1, entered)
					j := slices.IndexFunc(points[lo:entered], func(p []kv.Key) bool { return slices.Equal(keys, p) })
					if j < 0 {
						t.Fatalf("worker %d: LocalizeAsync %v names no point in the window [%d, %d) of %d", w, c.keys, lo, entered, len(points))
					}
					requests[lo+j]++
				}
			}
			if mode != ModeFull {
				continue
			}
			if entered != len(points) {
				t.Fatalf("worker %d: %d points entered the window, %d trained", w, entered, len(points))
			}
			// Point j enters the window before step 0 (j < windowDepth) or on
			// step j-windowDepth, and is requested on every step up to j-1.
			for j, n := range requests {
				if want := min(j+1, windowDepth); n != want {
					t.Fatalf("worker %d: point %d requested %d times, want %d", w, j, n, want)
				}
			}
		}
	}
}
