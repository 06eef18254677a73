package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func smokeEnv(t *testing.T, seed int64) *env {
	return &env{seed: seed, seconds: 0.15, smoke: true, outDir: t.TempDir(), tmpDir: t.TempDir()}
}

// calls returns how often op was called across the workers.
func (s *shimPS) calls(op opKind) int64 {
	var n int64
	for _, r := range s.recs {
		n += r.calls[op]
	}
	return n
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclarations checks every declared name against the benchmark contract
// and BENCHMARK.json against the tables it is generated from.
func TestDeclarations(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.name, len(w.why))
		}
	}
	for _, d := range endToEnd {
		check("end-to-end metric", d.name)
		if b := bounds[d.name]; b <= 0 || b > maxBound {
			t.Errorf("end-to-end metric %s: bound %v outside (0, %v]", d.name, b, maxBound)
		}
	}
	for _, d := range perLayer {
		check("per-layer metric", d.name)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go and main.go; regenerate it with -describe")
	}
}

// TestSmoke runs every workload untraced and traced at smoke size: every
// declared metric is reported, every oracle passes, and it stays quick.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			e := smokeEnv(t, 1)
			e.trace = traced
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			res, err := runOne(w, e)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct=%v, %d failed of %d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (trace %v): %d metrics reported, %d declared", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s (trace %v): metric %s missing or unit %q != %q", w.name, traced, d.name, m.Unit, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, d.name, m.Value)
				}
			}
			if traced {
				var sum float64
				for _, s := range shareNames {
					sum += res.Metrics["trace."+s+"_share"].Value
				}
				if sum < 0.98 || sum > 1.02 {
					t.Errorf("%s: trace shares sum to %v", w.name, sum)
				}
				if _, err := os.Stat(filepath.Join(e.outDir, "trace_"+w.name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("smoke took %v, budget 10s", d)
	}
}

// TestSeedDeterminesInputs: the same seed generates the same inputs, another
// seed other inputs.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		a, again, b := w.streamHash(smokeEnv(t, 7)), w.streamHash(smokeEnv(t, 7)), w.streamHash(smokeEnv(t, 8))
		if a != again {
			t.Errorf("%s: seed 7 hashed to %x and then %x", w.name, a, again)
		}
		if a == b {
			t.Errorf("%s: seeds 7 and 8 both hash to %x", w.name, a)
		}
	}
}

// TestSpanCountsMatchCalls: tracing changes nothing the shim counts, and the
// spans account for the calls — one per call where every call is timed, one
// per `every` calls (per worker) where calls are sampled.
func TestSpanCountsMatchCalls(t *testing.T) {
	for _, name := range []string{"kv_remote_tcp", "mf_blocking"} {
		w := workloadByName(name)
		var plain [numOps]int64
		for _, traced := range []bool{false, true} {
			in, err := w.build(smokeEnv(t, 3))
			if err != nil {
				t.Fatal(err)
			}
			_, ps := in.parts()
			ps.reset(0)
			if traced {
				ps.startTrace(1 << 16)
			}
			if kvIn, ok := in.(*kvInstance); ok {
				kvIn.round()
				kvIn.round()
			} else {
				in.(*trainInstance).train(2)
			}
			var spans [numOps]int64
			if traced {
				for _, tr := range ps.stopTrace() {
					if tr.dropped != 0 {
						t.Fatalf("%s: %d spans dropped", name, tr.dropped)
					}
					for _, sp := range tr.spans {
						spans[sp.op]++
					}
				}
			}
			if !traced {
				for op := range plain {
					plain[op] = ps.calls(opKind(op))
				}
				in.close()
				continue
			}
			// Reads (Pull, PullIfLocal) and writes (Push, PushAsync) are each
			// timed 1 in `every` per worker; everything else always.
			var wantReads, wantWrites int64
			for _, r := range ps.recs {
				wantReads += (r.calls[opPull] + r.calls[opPullIfLocal]) / int64(r.every)
				wantWrites += (r.calls[opPush] + r.calls[opPushAsync]) / int64(r.every)
			}
			if got := spans[opPull] + spans[opPullIfLocal]; got != wantReads {
				t.Errorf("%s: %d read spans, want %d", name, got, wantReads)
			}
			if got := spans[opPush] + spans[opPushAsync]; got != wantWrites {
				t.Errorf("%s: %d write spans, want %d", name, got, wantWrites)
			}
			for op := opKind(0); op < opRoot; op++ {
				calls := ps.calls(op)
				if calls != plain[op] {
					t.Errorf("%s: %d %s calls traced, %d untraced", name, calls, opNames[op], plain[op])
				}
				switch op {
				case opPull, opPullIfLocal, opPush, opPushAsync, opPace:
				default:
					if spans[op] != calls {
						t.Errorf("%s: %d %s spans for %d calls", name, spans[op], opNames[op], calls)
					}
				}
			}
			in.close()
		}
	}
}
