// Command bench is the repository's benchmark: six named workloads driven
// through driver.NewCluster / driver.Build and kv.KV handles, end-to-end
// metrics from untraced runs, per-layer metrics from a traced run plus layer
// probes, and an output oracle per workload. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

var workloads = []*workloadDef{
	{name: "mf_blocking", setupReps: 3, build: buildMF, streamHash: mfStreamHash,
		why: "DSGD matrix factorization with parameter blocking: every access is a shared-memory fast-path op, so store, dispatch fast path and sampling do the work and the message path almost none"},
	{name: "w2v_hiding", setupReps: 3, build: buildW2V, streamHash: w2vStreamHash,
		why: "word2vec with latency hiding: the relocation protocol under contention; time is serial round trips x simulated latency, so it moves with message and relocation counts, not CPU"},
	{name: "zipf_adaptive", setupReps: 5, build: zipfAdaptive.build, streamHash: zipfAdaptive.streamHash,
		why: "closed-loop skewed pull/push under the adaptive controller: classifier, replica sync and promote/demote decide the remote fraction, simulated latency turns it into throughput"},
	{name: "kv_remote_tcp", setupReps: 5, build: kvRemoteTCP.build, streamHash: kvRemoteTCP.streamHash,
		why: "closed-loop 4-key pull/push, every key homed on the other node, over loopback TCP: dispatch, codec, syscalls, shard hand-off and future wake-up are the whole cost; management is idle"},
	{name: "kv_remote_shm", setupReps: 5, build: kvRemoteSHM.build, streamHash: kvRemoteSHM.streamHash,
		why: "the same program on shared-memory rings: a tcp-only change must leave it unchanged, a shm-only one must leave kv_remote_tcp unchanged, a msg or server change must move both"},
	{name: "serve_rw", setupReps: 5, build: buildServe, streamHash: serveStreamHash,
		why: "open-loop leased MultiGet reads with synchronous writes at three offered rates: hits and revocations meet in the serving code, backlog shows as sojourn, the overload step gives goodput"},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run prints as its last line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runInfo is the run hygiene record written next to every set of results.
type runInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Revision   string `json:"git_revision"`
	Time       string `json:"time"`
}

func hostInfo() runInfo {
	info := runInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: "unknown", Revision: "unknown", Time: time.Now().UTC().Format(time.RFC3339)}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		info.Kernel = string(b)
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				info.Revision = s.Value
			}
		}
	}
	return info
}

// runOne runs one workload once and returns its result line. Metrics are
// also printed by name with unit, one per line, before the caller prints the
// JSON.
func runOne(w *workloadDef, e *env) (resultLine, error) {
	defs, run := endToEnd, runUntraced
	if e.trace {
		defs, run = perLayer, runTraced
	}
	values, o, err := run(w, e)
	if err != nil {
		return resultLine{}, err
	}
	res := resultLine{Correct: o.failed == 0, Attempted: max(o.attempted, 1), Failed: o.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return res, fmt.Errorf("%s: metric %s was not measured", w.name, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("%-14s %-34s %16.6g %s\n", w.name, d.name, v, d.unit)
	}
	fmt.Printf("%-14s %-34s %16.6g ratio  (%d failed of %d attempted)\n", w.name, "fail_ratio",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, n := range o.notes {
		fmt.Fprintf(os.Stderr, "bench: %s: oracle: %s\n", w.name, n)
	}
	return res, nil
}

// resultsFile is what -workload all and -aa write and -compare reads: for
// every workload and metric, the values of the runs made.
type resultsFile struct {
	Info    runInfo                         `json:"env"`
	Seconds float64                         `json:"seconds"`
	Samples map[string]map[string][]float64 `json:"samples"`
}

func (r *resultsFile) add(workload string, res resultLine) {
	if r.Samples[workload] == nil {
		r.Samples[workload] = map[string][]float64{}
	}
	for name, m := range res.Metrics {
		r.Samples[workload][name] = append(r.Samples[workload][name], m.Value)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run, or all: every workload untraced, then traced with the layer probes")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured window of one run")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and span file")
		aa       = flag.Int("aa", 0, "A/A calibration: this many untraced runs per workload, each a fresh process and seed; prints spreads and writes bounds.json")
		compare  = flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
		descr    = flag.Bool("describe", false, "print BENCHMARK.json as generated from the metric and workload tables")
		smoke    = flag.Bool("smoke", false, "~1/50 problem sizes and 1/100 probe iterations (what the test runs)")
		outDir   = flag.String("out", "bench/out", "directory for span and results files")
		tmpDir   = flag.String("tmp", "", "directory for shared-memory ring files (default <out>/tmp)")
	)
	flag.Parse()
	if *tmpDir == "" {
		*tmpDir = filepath.Join(*outDir, "tmp")
	}
	if *descr {
		out, err := describe()
		if err != nil {
			fatal("%v", err)
		}
		os.Stdout.Write(out)
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), boundsPath(*outDir)))
	}
	if runtime.GOMAXPROCS(0) < 2 {
		fatal("GOMAXPROCS is %d: the workloads run two load-generating goroutines plus the servers and need at least 2", runtime.GOMAXPROCS(0))
	}
	e := &env{seed: *seed, seconds: *seconds, smoke: *smoke, trace: *trace != 0, outDir: *outDir, tmpDir: *tmpDir}
	if *smoke && *seconds == runSeconds {
		e.seconds = 0.15
	}
	if *aa > 0 {
		os.Exit(calibrate(*aa, e))
	}

	if *workload != "all" {
		w := workloadByName(*workload)
		if w == nil {
			fatal("unknown workload %q", *workload)
		}
		res, err := runOne(w, e)
		if err != nil {
			fatal("%v", err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	// One command, every metric: all workloads untraced, then traced.
	file := resultsFile{Info: hostInfo(), Seconds: e.seconds, Samples: map[string]map[string][]float64{}}
	ok := true
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			e.trace = traced
			res, err := runOne(w, e)
			if err != nil {
				fatal("%v", err)
			}
			file.add(w.name, res)
			ok = ok && res.Correct
		}
	}
	path := filepath.Join(*outDir, "results.json")
	if err := writeJSON(path, file); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("results written to %s (%+v)\n", path, file.Info)
	if !ok {
		fatal("an output oracle failed")
	}
}

func fatal(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
	os.Exit(2)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
