package harness

import (
	"slices"
	"strings"
	"testing"
	"time"

	"lapse/internal/data"
	"lapse/internal/driver"
	"lapse/internal/ml/kge"
	"lapse/internal/ml/mf"
)

// Harness tests validate the shape invariants of the scaled experiments at a
// small parallelism (full sweeps run via the root benchmarks). They use the
// real network profile, so they are wall-clock tests; keep sizes small.

func smallMF() (mf.Config, *data.Matrix) {
	cfg := MFScaledConfig("10x1")
	cfg.NNZ = 6000
	cfg.PointCost = 50 * time.Microsecond
	return cfg, data.SyntheticMatrix(cfg.Rows, cfg.Cols, cfg.NNZ, cfg.TrueRank, 0.05, cfg.Seed)
}

func TestMFClassicSlowerThanLapseMultiNode(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock harness test")
	}
	cfg, m := smallMF()
	par := Parallelism{Nodes: 2, Workers: 2}
	classic := RunMFCell(driver.ClassicPS, par, cfg, m)
	lapse := RunMFCell(driver.Lapse, par, cfg, m)
	if lapse.EpochTime >= classic.EpochTime {
		t.Fatalf("Lapse (%v) not faster than classic PS (%v) at %s",
			lapse.EpochTime, classic.EpochTime, par)
	}
	// Parameter blocking keeps all Lapse reads local.
	if lapse.Stats.RemoteReads != 0 {
		t.Fatalf("Lapse MF had %d remote reads", lapse.Stats.RemoteReads)
	}
}

func TestMFClassicMultiNodeSlowerThanSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock harness test")
	}
	cfg, m := smallMF()
	single := RunMFCell(driver.ClassicPS, Parallelism{Nodes: 1, Workers: 2}, cfg, m)
	multi := RunMFCell(driver.ClassicPS, Parallelism{Nodes: 2, Workers: 2}, cfg, m)
	// The paper's headline: adding nodes makes the classic PS slower.
	if multi.EpochTime <= single.EpochTime {
		t.Fatalf("classic PS got faster with more nodes: 1 node %v vs 2 nodes %v",
			single.EpochTime, multi.EpochTime)
	}
}

func TestMFLowLevelFasterThanLapse(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock harness test")
	}
	cfg, m := smallMF()
	par := Parallelism{Nodes: 2, Workers: 2}
	// The specialized implementation must not be slower; the paper
	// reports Lapse within 2.0–2.6× of it. At this size both epochs are
	// mostly modeled compute (75 of ~90 ms), so one scheduling hiccup on a
	// busy two-core box flips a single comparison (about 1 run in 15, at any
	// commit): the claim fails only if it fails three times in a row.
	var lapse, low Point
	for attempt := 0; attempt < 3; attempt++ {
		lapse = RunMFCell(driver.Lapse, par, cfg, m)
		low = RunMFLowLevelCell(par, cfg, m)
		if low.EpochTime <= lapse.EpochTime {
			return
		}
	}
	t.Fatalf("low-level (%v) slower than Lapse (%v)", low.EpochTime, lapse.EpochTime)
}

func TestKGELapseMostReadsLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock harness test")
	}
	cfg := KGEScaledConfig(ComplExLarge)
	cfg.Triples = 3000
	kg := data.SyntheticKG(cfg.Entities, cfg.Relations, cfg.Triples, cfg.Seed)
	pt := RunKGECell(KGEVariant{Label: "lapse", Kind: driver.Lapse, Mode: kge.ModeFull},
		ComplExLarge, Parallelism{Nodes: 2, Workers: 2}, cfg, kg)
	if pt.Stats.LocalReads == 0 {
		t.Fatal("no local reads")
	}
	frac := float64(pt.Stats.RemoteReads) / float64(pt.Stats.TotalReads())
	// Table 5: the non-local fraction stays small (conflicts only).
	if frac > 0.2 {
		t.Fatalf("non-local read fraction %.2f too high", frac)
	}
	if pt.Stats.Relocations == 0 {
		t.Fatal("no relocations recorded")
	}
}

func TestTable4RowsPopulated(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock harness test")
	}
	rows := Table4()
	if len(rows) != 6 {
		t.Fatalf("Table 4 has %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.KeyAccesses <= 0 || r.ReadMBPerSec <= 0 {
			t.Fatalf("empty row: %+v", r)
		}
	}
	out := RenderTable4(rows)
	if !strings.Contains(out, "MF 10x1") || !strings.Contains(out, "Word2Vec") {
		t.Fatalf("render missing rows:\n%s", out)
	}
}

func TestMFLossSanityDecreases(t *testing.T) {
	losses := MFLossSanity(3)
	if len(losses) != 3 {
		t.Fatalf("losses = %v", losses)
	}
	if losses[2] >= losses[0] {
		t.Fatalf("harness MF config does not learn: %v", losses)
	}
}

func TestRenderOutputs(t *testing.T) {
	s := []Series{{Label: "x", Points: []Point{
		{Par: Parallelism{Nodes: 1, Workers: 4}, EpochTime: time.Second},
		{Par: Parallelism{Nodes: 8, Workers: 4}, EpochTime: 250 * time.Millisecond},
	}}}
	out := Render("title", s)
	if !strings.Contains(out, "title") || !strings.Contains(out, "1x4") || !strings.Contains(out, "4.0x") {
		t.Fatalf("render output wrong:\n%s", out)
	}
	if got := s[0].Speedup(); got != 4 {
		t.Fatalf("speedup = %v", got)
	}
}

func TestParallelismString(t *testing.T) {
	if (Parallelism{Nodes: 8, Workers: 4}).String() != "8x4" {
		t.Fatal("bad Parallelism string")
	}
}

// TestTable3 is the exact oracle for Table 3 (Section 3.5): every row, and the
// accesses and relocations the table leaves out, in which the home shares a
// node with another role and a hop stays on the node. A protocol change that
// adds or drops a message fails it.
func TestTable3(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	want := []Table3Row{
		{"Static partition", true, 0, 2, -1, -1, -1},
		{"Broadcast operations", false, 0, 8, 0, -1, -1},
		{"Broadcast relocations", false, 1024, 2, 8, -1, -1},
		{"Home node", true, 128, 3, 3, -1, -1},
		{"Home node (with location caches)", true, 128, 3, 3, 2, 4},
	}
	if len(rows) != len(want) {
		t.Fatalf("got\n%swant\n%s", RenderTable3(rows), RenderTable3(want))
	}
	for i, w := range want {
		t.Run(w.Strategy, func(t *testing.T) {
			if rows[i] != w {
				t.Errorf("got %+v, want %+v", rows[i], w)
			}
		})
	}
	// Key 0 is homed at node 0. Each case runs on every kind it names and
	// returns the counts of the operations it measures.
	lapse := []driver.Kind{driver.Lapse}
	for _, c := range []struct {
		name  string
		kinds []driver.Kind
		run   func(p *probe) []int
		want  []int
	}{
		{"home is the requester", lapse, func(p *probe) []int {
			p.localize(1, 0)
			return []int{p.pull(0, 0)}
		}, []int{2}},
		{"home is the relocation's destination", lapse, func(p *probe) []int {
			p.localize(1, 0)
			return []int{p.localize(0, 0)}
		}, []int{2}},
		{"home is the owner when a relocation starts", lapse, func(p *probe) []int {
			return []int{p.localize(1, 0)}
		}, []int{2}},
		{"local access is free", []driver.Kind{driver.ClassicPS, driver.Lapse, driver.LapseCached}, func(p *probe) []int {
			return []int{p.pull(0, 0)}
		}, []int{0}},
		{"local access after a relocation", lapse, func(p *probe) []int {
			p.localize(1, 0)
			return []int{p.pull(1, 0)}
		}, []int{0}},
		// Cold, warm, stale (the cache names node 1), and refreshed by the
		// stale pull.
		{"home node cache learns location", []driver.Kind{driver.LapseCached}, func(p *probe) []int {
			p.localize(1, 0)
			cold, warm := p.pull(2, 0), p.pull(2, 0)
			p.localize(3, 0)
			return []int{cold, warm, p.pull(2, 0), p.pull(2, 0)}
		}, []int{3, 2, 4, 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, kind := range c.kinds {
				p := newProbe(kind)
				got := c.run(p)
				if err := p.close(); err != nil {
					t.Fatalf("%v: %v", kind, err)
				}
				if !slices.Equal(got, c.want) {
					t.Errorf("%v: %v messages, want %v", kind, got, c.want)
				}
			}
		})
	}
}
