package adaptive

import (
	"math/rand"
	"testing"

	"lapse/internal/kv"
	"lapse/internal/replication"
)

// fakeState executes classifier actions against an in-memory management
// state, standing in for internal/core's transition machinery.
type fakeState struct {
	home  int
	owner map[kv.Key]int
	repl  map[kv.Key]bool
}

func newFakeState(home int) *fakeState {
	return &fakeState{home: home, owner: make(map[kv.Key]int), repl: make(map[kv.Key]bool)}
}

func (f *fakeState) view() View {
	return View{
		Node: f.home,
		Owner: func(k kv.Key) int {
			if o, ok := f.owner[k]; ok {
				return o
			}
			return f.home
		},
		Replicated: func(k kv.Key) bool { return f.repl[k] },
		Busy:       func(k kv.Key) bool { return false },
	}
}

func (f *fakeState) apply(t *testing.T, acts []Action) {
	t.Helper()
	for _, a := range acts {
		switch a.Kind {
		case ActReplicate:
			if f.repl[a.Key] {
				t.Fatalf("replicate of already replicated key %d", a.Key)
			}
			f.repl[a.Key] = true
			f.owner[a.Key] = f.home
		case ActDemote:
			if !f.repl[a.Key] {
				t.Fatalf("demote of unreplicated key %d", a.Key)
			}
			delete(f.repl, a.Key)
		case ActRelocate:
			if f.repl[a.Key] {
				t.Fatalf("relocate of replicated key %d", a.Key)
			}
			f.owner[a.Key] = a.Dest
		}
	}
}

func TestClassifierReplicatesHotEverywhereKey(t *testing.T) {
	st := newFakeState(0)
	c := NewClassifier(Config{}, st.view())
	acts := c.Ingest(0, 1, []kv.Key{5}, []float32{50})
	if len(acts) != 0 {
		t.Fatalf("one-origin report below dominance issued %v", acts)
	}
	acts = c.Ingest(1, 1, []kv.Key{5}, []float32{50})
	if len(acts) != 1 || acts[0].Kind != ActReplicate || acts[0].Key != 5 {
		t.Fatalf("hot-everywhere key: got %v, want replicate(5)", acts)
	}
}

// window is the report of an origin that reaches everything over the slow
// path: total recorded accesses, all of them waited for, of which the listed
// keys take the listed counts. Nothing is left out of it.
func window(total float32, keys []kv.Key, counts []float32) Report {
	return Report{Waiting: total, Evidence: total, Keys: keys, Counts: counts, Seen: counts}
}

func TestClassifierRelocatesDominantKey(t *testing.T) {
	st := newFakeState(0)
	c := NewClassifier(Config{}, st.view())
	// Key 9 is a quarter percent of the home's waiting and two and a half
	// percent of node 1's: only node 1 is interested and it holds 10/11 of
	// the demand.
	c.IngestReport(0, 1, window(4000, []kv.Key{9}, []float32{10}))
	acts := c.IngestReport(1, 1, window(4000, []kv.Key{9}, []float32{100}))
	if len(acts) != 1 || acts[0].Kind != ActRelocate || acts[0].Key != 9 || acts[0].Dest != 1 {
		t.Fatalf("dominant key: got %v, want relocate(9 -> 1)", acts)
	}
	st.apply(t, acts)
	// Once owned by the dominant node, re-reports change nothing.
	if acts := c.IngestReport(1, 4, window(4000, []kv.Key{9}, []float32{100})); len(acts) != 0 {
		t.Fatalf("settled dominant key re-decided: %v", acts)
	}
}

// TestClassifierImmatureWindowProvesNoAbsence: node 1 is interested in a key
// the home has not recorded. If the home's window is mature, the key's
// absence from it shows the home has no demand and the key relocates to
// node 1. If the window is too short for a key of that share to have shown
// up, absence proves nothing: node 1's need is served by replication, which
// takes the key away from nobody.
func TestClassifierImmatureWindowProvesNoAbsence(t *testing.T) {
	for _, tc := range []struct {
		homeWindow float32
		want       ActionKind
	}{{4000, ActRelocate}, {400, ActReplicate}} {
		st := newFakeState(0)
		c := NewClassifier(Config{}, st.view())
		c.IngestReport(0, 1, window(tc.homeWindow, nil, nil))
		acts := c.IngestReport(1, 1, window(4000, []kv.Key{9}, []float32{100}))
		if len(acts) != 1 || acts[0].Kind != tc.want || acts[0].Key != 9 {
			t.Fatalf("home window of %v observations without the key: got %v, want kind %v", tc.homeWindow, acts, tc.want)
		}
	}
}

// TestClassifierSetsAsideInsufficientEvidence: a window holding fewer
// observations than hotCount supports no judgement — whatever shares its
// handful of accesses suggest — and counts for nothing.
func TestClassifierSetsAsideInsufficientEvidence(t *testing.T) {
	st := newFakeState(0)
	c := NewClassifier(Config{}, st.view())
	c.IngestReport(0, 1, window(4000, []kv.Key{5}, []float32{100}))
	if Sufficient(10) {
		t.Fatal("10 observations judged sufficient under hotCount 16")
	}
	if acts := c.IngestReport(1, 1, window(10, []kv.Key{5}, []float32{10})); len(acts) != 0 {
		t.Fatalf("report with 10 observations was acted on: %v", acts)
	}
	// The same share on enough evidence counts.
	acts := c.IngestReport(1, 2, window(20, []kv.Key{5}, []float32{20}))
	if len(acts) != 1 || acts[0].Kind != ActReplicate {
		t.Fatalf("report with 20 observations: got %v, want replicate(5)", acts)
	}
}

// TestClassifierReplicatesDespiteRateSkewedCounts pins the scale-free
// interest rule: the home node reaches its own keys through the in-memory
// fast path while a remote node's issue rate is capped by the round-trip
// window, so the same per-worker workload yields absolute counts orders of
// magnitude apart. The key must still replicate — the remote origin spends
// its entire (capped) volume on it.
func TestClassifierReplicatesDespiteRateSkewedCounts(t *testing.T) {
	st := newFakeState(0)
	c := NewClassifier(Config{}, st.view())
	c.Ingest(0, 1, []kv.Key{5}, []float32{500000})     // home fast path
	acts := c.Ingest(1, 1, []kv.Key{5}, []float32{40}) // latency-capped remote
	if len(acts) != 1 || acts[0].Kind != ActReplicate || acts[0].Key != 5 {
		t.Fatalf("rate-skewed hot-everywhere key: got %v, want replicate(5)", acts)
	}
}

func TestClassifierDemotesColdReplicatedKeyAndRelocatesColdStray(t *testing.T) {
	st := newFakeState(0)
	c := NewClassifier(Config{}, st.view())
	// Node 1 wants key 3 before the home reported: replicated. Then the home
	// reports a mature window, and node 2 alone wants key 7: relocated there.
	st.apply(t, c.IngestReport(1, 1, window(4000, []kv.Key{3}, []float32{100})))
	st.apply(t, c.IngestReport(0, 1, window(4000, nil, nil)))
	st.apply(t, c.IngestReport(2, 1, window(4000, []kv.Key{7}, []float32{100})))
	if !st.repl[3] || st.owner[7] != 2 {
		t.Fatalf("setup: key 3 replicated %t, key 7 at node %d; want replicated, at node 2", st.repl[3], st.owner[7])
	}
	// An epoch with no counts at all for either key: the stray relocates
	// home at once, while the replicated key only starts its cold streak.
	var acts []Action
	for o := range 3 {
		acts = append(acts, c.Ingest(o, 3, nil, nil)...)
	}
	if len(acts) != 1 || acts[0].Kind != ActRelocate || acts[0].Key != 7 || acts[0].Dest != 0 {
		t.Fatalf("cold stray key: got %v, want relocate(7 -> 0) only", acts)
	}
	st.apply(t, acts)
	// Still cold coldStreakEpochs later: now the replicated key demotes.
	acts = c.Sweep(3 + coldStreakEpochs)
	if len(acts) != 1 || acts[0].Kind != ActDemote || acts[0].Key != 3 {
		t.Fatalf("cold replicated key after sustained streak: got %v, want demote(3)", acts)
	}
}

// TestClassifierNeverDemotesStaticKey: a key the view reports replicated but
// that this classifier never promoted — a Config.Replicate key — is pinned.
// It stays through any number of cold epochs, while a key the classifier
// promoted in the same run is demoted.
func TestClassifierNeverDemotesStaticKey(t *testing.T) {
	st := newFakeState(0)
	st.repl[3] = true
	c := NewClassifier(Config{}, st.view())
	acts := c.Ingest(1, 1, []kv.Key{3, 5}, []float32{100, 100})
	if len(acts) != 1 || acts[0].Kind != ActReplicate || acts[0].Key != 5 {
		t.Fatalf("got %v, want replicate(5) only", acts)
	}
	st.apply(t, acts)
	st.apply(t, c.Ingest(1, 3, nil, nil))
	for e := uint32(4); e < 100*coldStreakEpochs; e++ {
		st.apply(t, c.Sweep(e))
	}
	if !st.repl[3] || st.repl[5] {
		t.Fatalf("after %d cold epochs: static key 3 replicated %t, promoted key 5 replicated %t; want true, false",
			100*coldStreakEpochs, st.repl[3], st.repl[5])
	}
}

// TestClassifierReportStaysInForceUntilReplaced: origins report when their
// window changed, so silence means "unchanged", not "gone" — a slow origin's
// interest must not lapse between its reports. Only a report that no longer
// carries the key (the origin's window moved on, or aged out) retracts it.
func TestClassifierReportStaysInForceUntilReplaced(t *testing.T) {
	st := newFakeState(0)
	c := NewClassifier(Config{}, st.view())
	st.apply(t, c.IngestReport(0, 1, window(4000, []kv.Key{5}, []float32{60})))
	st.apply(t, c.IngestReport(1, 1, window(4000, []kv.Key{5}, []float32{60})))
	if !st.repl[5] {
		t.Fatal("key 5 not replicated after two interested reports")
	}
	for e := uint32(2); e < 100; e++ {
		if acts := c.Sweep(e); len(acts) != 0 {
			t.Fatalf("epoch %d: key demoted although both origins' last reports still hold it: %v", e, acts)
		}
	}
	// Both windows move on to other keys.
	st.apply(t, c.IngestReport(0, 100, window(4000, nil, nil)))
	st.apply(t, c.IngestReport(1, 100, window(4000, nil, nil)))
	if !st.repl[5] {
		t.Fatal("key 5 demoted on its first cold epoch, before the streak completed")
	}
	st.apply(t, c.Sweep(100+coldStreakEpochs))
	if st.repl[5] {
		t.Fatal("key 5 still replicated after every origin retracted it")
	}
}

// TestClassifierColdNeedsMatureWindows: a replicated key missing from a
// window too short to show it is not cold yet.
func TestClassifierColdNeedsMatureWindows(t *testing.T) {
	st := newFakeState(0)
	c := NewClassifier(Config{}, st.view())
	st.apply(t, c.IngestReport(1, 1, window(4000, []kv.Key{5}, []float32{100})))
	if !st.repl[5] {
		t.Fatal("setup: key 5 not promoted")
	}
	c.IngestReport(1, 1, window(400, nil, nil))
	for e := uint32(2); e < 20; e++ {
		if acts := c.Sweep(e); len(acts) != 0 {
			t.Fatalf("epoch %d: demoted on an immature window: %v", e, acts)
		}
	}
	c.IngestReport(1, 20, window(4000, nil, nil))
	acts := c.Sweep(20 + coldStreakEpochs)
	if len(acts) != 1 || acts[0].Kind != ActDemote {
		t.Fatalf("mature window without the key: got %v, want demote(5)", acts)
	}
}

// TestClassifierOscillationBound pins the hysteresis guarantee with exact
// counters: a key whose hot set flips every phase (heavily accessed in odd
// phases, untouched in even ones) transitions exactly once, not once per
// flip. Its decayed count in each origin's window of 2000 background
// observations follows 100, 50, 125, 62, 131, ... — a share that wobbles
// between 2.4 % and 6 %, never down to the cold share — and the separated
// thresholds plus the dwell gate absorb the wobble.
func TestClassifierOscillationBound(t *testing.T) {
	st := newFakeState(0)
	c := NewClassifier(Config{}, st.view())
	transitions := 0
	counts := [2]float32{} // decayed per-origin estimate of key 5
	for tick := uint32(1); tick <= 40; tick++ {
		for o := range counts {
			counts[o] /= 2
			if tick%2 == 1 { // the workload phase where key 5 is hot
				counts[o] += 100
			}
		}
		for o := range counts {
			var keys []kv.Key
			var vals []float32
			if counts[o] > 0 {
				keys, vals = []kv.Key{5}, []float32{counts[o]}
			}
			acts := c.IngestReport(o, tick, window(2000+counts[o], keys, vals))
			transitions += len(acts)
			st.apply(t, acts)
		}
	}
	if transitions != 1 {
		t.Fatalf("oscillating workload caused %d transitions of key 5, want exactly 1", transitions)
	}
	if !st.repl[5] {
		t.Fatal("key 5 should have settled replicated")
	}
}

// TestClassifierSweepDemotesIdleReplicatedKey pins the idle-demotion edge
// Sweep closes: when traffic stops entirely, the origins' windows age out,
// their last reports retract every key — and then no report arrives ever
// again, so Ingest, otherwise the only thing advancing the epoch clock,
// never runs and a replicated key would hold replica memory on every node
// forever. Sweeps must run the cold streak and demote.
func TestClassifierSweepDemotesIdleReplicatedKey(t *testing.T) {
	st := newFakeState(0)
	c := NewClassifier(Config{}, st.view())
	st.apply(t, c.Ingest(1, 1, []kv.Key{3}, []float32{100}))
	if !st.repl[3] {
		t.Fatal("setup: key 3 not promoted")
	}
	// Steady state: a warm report keeps the replicated key in place.
	if acts := c.Ingest(1, 2, []kv.Key{3}, []float32{100}); len(acts) != 0 {
		t.Fatalf("warm replicated key re-decided: %v", acts)
	}
	// All traffic stops: the origin's aged-out window retracts the key and
	// starts the cold streak; from here on only sweeps arrive.
	if acts := c.Ingest(1, 3, nil, nil); len(acts) != 0 {
		t.Fatalf("retraction demoted before the streak completed: %v", acts)
	}
	if acts := c.Sweep(4); len(acts) != 0 {
		t.Fatalf("sweep demoted before the streak completed: %v", acts)
	}
	// coldStreakEpochs later the key demotes — from sweeps alone.
	acts := c.Sweep(3 + coldStreakEpochs)
	if len(acts) != 1 || acts[0].Kind != ActDemote || acts[0].Key != 3 {
		t.Fatalf("idle replicated key after sweeps: got %v, want demote(3)", acts)
	}
	st.apply(t, acts)
	// Sweeps against a settled state stay quiet.
	if acts := c.Sweep(4 + coldStreakEpochs); len(acts) != 0 {
		t.Fatalf("post-demotion sweep issued %v", acts)
	}
}

// replay drives node 1's tracker with a seeded key stream at perTick
// accesses per controller tick and feeds the classifier at home node 0
// whatever node 1's controller would report, until recorded observations
// were made. Keys are reached over the slow path until the classifier
// replicates them and over the sampled fast path from then on. The home's
// own report is fixed. It returns the recorded observations at which each
// key came under management.
func replay(t *testing.T, next func() kv.Key, perTick, recorded int, home Report) map[kv.Key]int {
	t.Helper()
	st := newFakeState(0)
	c := NewClassifier(Config{}, st.view())
	st.apply(t, c.IngestReport(0, 0, home))
	tr := replication.NewTracker(0)
	h := tr.Handle()
	at := make(map[kv.Key]int)
	var keys []kv.Key
	var counts, seen []float32
	for tick := uint32(1); ; tick++ {
		for i := 0; i < perTick; i++ {
			if k := next(); st.repl[k] {
				h.Observe(k)
			} else {
				h.ObserveRemote(k)
			}
		}
		var acts []Action
		changed := tr.Roll()
		top, sum := tr.Window(ReportTopK, ColdCount, ColdShare)
		if changed {
			keys, counts, seen = keys[:0], counts[:0], seen[:0]
			for _, f := range top {
				keys, counts, seen = append(keys, f.Key), append(counts, f.Count), append(seen, f.Seen)
			}
			acts = c.IngestReport(1, tick, Report{Waiting: sum.Waiting, Evidence: sum.Evidence, Floor: sum.Floor,
				Keys: keys, Counts: counts, Seen: seen})
		} else {
			acts = c.Sweep(tick)
		}
		// The evidence clock: observations recorded so far, whatever the
		// number of ticks they took.
		soFar := int(tick) * perTick
		for _, a := range acts {
			if a.Kind == ActDemote {
				t.Fatalf("tick %d: %v on a stationary stream", tick, a)
			}
			if _, again := at[a.Key]; !again {
				at[a.Key] = soFar
			}
		}
		st.apply(t, acts)
		if soFar >= recorded {
			return at
		}
	}
}

// TestControllerIsRateInvariant replays one Zipf(1.3) stream through the
// tracker → report → classify path at the rate of a remote worker on an
// instantaneous network (~3 000 accesses per tick) and at a latency-capped
// rate (~10 accesses per tick). What an origin is interested in must depend
// on the evidence it has recorded, not on how long recording it took: the
// same top keys come under management within the same number of accesses at
// both rates, the set keeps growing down the skewed tail as the managed keys
// leave the origin's waiting, and a uniform stream — every key the same
// small part of the waiting — promotes nothing at either.
func TestControllerIsRateInvariant(t *testing.T) {
	const numKeys = 2048
	// The home reaches its keys locally and waits for nothing: every key it
	// has recorded is its own to keep. Its window is too short to prove any
	// key absent, so node 1's interest alone decides, by replication.
	home := Report{Evidence: 1024}
	rates := []struct {
		name    string
		perTick int
	}{{"instantaneous", 3000}, {"latency-capped", 10}}
	managed := make(map[string]map[kv.Key]int)
	for _, r := range rates {
		t.Run("zipf/"+r.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			z := rand.NewZipf(rng, 1.3, 1, numKeys-1)
			at := replay(t, func() kv.Key { return kv.Key(z.Uint64()) }, r.perTick, 60000, home)
			managed[r.name] = at
			for k := kv.Key(0); k < 10; k++ { // shares 28 % … 1.4 %
				if n, ok := at[k]; !ok || n > 3000+r.perTick {
					t.Errorf("key %d managed after %d accesses (managed: %v), want within 3000", k, n, ok)
				}
			}
			for k := kv.Key(10); k < 40; k++ { // … 0.23 %: the tail is worked off
				if _, ok := at[k]; !ok {
					t.Errorf("key %d never managed in 60000 accesses", k)
				}
			}
			for k := range at {
				if k >= 500 { // 0.009 %: never 16 observations in a window
					t.Errorf("tail key %d managed", k)
				}
			}
		})
		t.Run("uniform/"+r.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			at := replay(t, func() kv.Key { return kv.Key(rng.Intn(numKeys)) }, r.perTick, 60000, home)
			if len(at) != 0 {
				t.Errorf("uniform stream promoted %d keys: %v", len(at), at)
			}
		})
	}
	// The two rates saw the same stream: what they manage must agree except
	// at the noisy margin of the tail.
	fast, slow := managed["instantaneous"], managed["latency-capped"]
	common := 0
	for k := range fast {
		if _, ok := slow[k]; ok {
			common++
		}
	}
	if union := len(fast) + len(slow) - common; union == 0 || float64(common) < 0.8*float64(union) {
		t.Errorf("managed sets disagree: %d keys at the instantaneous rate, %d latency-capped, %d in common", len(fast), len(slow), common)
	}
}
