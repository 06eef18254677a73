package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// maxBound is the widest regression bound an end-to-end metric may carry.
// A (metric, workload) pair that cannot repeat within it is reported as
// unresolved by -compare rather than trusted.
const maxBound = 0.25

// pairBound is the calibrated regression bound of one (workload, metric).
type pairBound struct {
	Median float64 `json:"median"`
	Spread float64 `json:"iqr_over_median"`
	Bound  float64 `json:"bound"`
	Note   string  `json:"note,omitempty"`
}

type boundsFile struct {
	Info   runInfo                         `json:"env"`
	Runs   int                             `json:"runs"`
	Bounds map[string]map[string]pairBound `json:"bounds"`
}

func boundsPath(outDir string) string { return filepath.Join(filepath.Dir(outDir), "bounds.json") }

// calibrate is the A/A mode: n passes over the workloads of this same
// binary, the order reversed on every other pass, every run a fresh process
// with its own seed — exactly how the acceptance procedure runs it. It prints
// median, quartiles and IQR/median per (metric, workload), writes the samples
// to aa.json and the derived bounds, max(3 × IQR/median, 2 %), to bounds.json.
func calibrate(n int, e *env) int {
	exe, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	file := resultsFile{Info: hostInfo(), Seconds: e.seconds, Samples: map[string]map[string][]float64{}}
	for pass := 0; pass < n; pass++ {
		for i := range workloads {
			w := workloads[i]
			if pass%2 == 1 {
				w = workloads[len(workloads)-1-i]
			}
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(e.seed+int64(pass), 10),
				"-seconds", strconv.FormatFloat(e.seconds, 'g', -1, 64), "-trace", "0", "-out", e.outDir, "-tmp", e.tmpDir}
			if e.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fatal("pass %d, %s: %v", pass, w.name, err)
			}
			res, err := lastLine(out)
			if err != nil {
				fatal("pass %d, %s: %v", pass, w.name, err)
			}
			if !res.Correct {
				fatal("pass %d, %s: output oracle failed (%d of %d)", pass, w.name, res.Failed, res.Attempted)
			}
			file.add(w.name, res)
			fmt.Fprintf(os.Stderr, "bench: pass %d/%d %s done\n", pass+1, n, w.name)
		}
	}
	bounds := boundsFile{Info: file.Info, Runs: n, Bounds: map[string]map[string]pairBound{}}
	fmt.Printf("%-14s %-18s %14s %14s %14s %9s %7s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "bound")
	for _, w := range workloads {
		bounds.Bounds[w.name] = map[string]pairBound{}
		for _, d := range endToEnd {
			v := file.Samples[w.name][d.name]
			pb := pairBound{Median: median(v), Spread: spread(v)}
			pb.Bound = math.Max(3*pb.Spread, 0.02)
			if pb.Bound > maxBound {
				pb.Note = fmt.Sprintf("3 x IQR/median = %.3f exceeds %.2f: comparisons on this pair are unresolved", pb.Bound, maxBound)
				pb.Bound = maxBound
			}
			bounds.Bounds[w.name][d.name] = pb
			q1, q3 := math.NaN(), math.NaN()
			if len(v) >= 2 {
				q1, q3 = quartiles(v)
			}
			fmt.Printf("%-14s %-18s %14.6g %14.6g %14.6g %8.2f%% %6.1f%%\n", w.name, d.name, pb.Median, q1, q3, 100*pb.Spread, 100*pb.Bound)
		}
	}
	if err := writeJSON(filepath.Join(e.outDir, "aa.json"), file); err != nil {
		fatal("%v", err)
	}
	if err := writeJSON(boundsPath(e.outDir), bounds); err != nil {
		fatal("%v", err)
	}
	return 0
}

// lastLine parses the result object a run printed as its last line.
func lastLine(out []byte) (resultLine, error) {
	out = bytes.TrimSpace(out)
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	var res resultLine
	if err := json.Unmarshal(out, &res); err != nil {
		return res, fmt.Errorf("last output line is not a result: %w", err)
	}
	return res, nil
}

// compareFiles prints one row per (workload, metric) present in both results
// files: both medians, the change (positive = b better), the bound and a
// verdict. A pair is unresolved when either side's own spread exceeds the
// bound. It returns 1 if any pair is worse.
func compareFiles(aPath, bPath, boundsFilePath string) int {
	var a, b resultsFile
	for _, f := range []struct {
		path string
		into *resultsFile
	}{{aPath, &a}, {bPath, &b}} {
		raw, err := os.ReadFile(f.path)
		if err != nil {
			fatal("%v", err)
		}
		if err := json.Unmarshal(raw, f.into); err != nil {
			fatal("%s: %v", f.path, err)
		}
	}
	var bounds boundsFile
	if raw, err := os.ReadFile(boundsFilePath); err == nil {
		if err := json.Unmarshal(raw, &bounds); err != nil {
			fatal("%s: %v", boundsFilePath, err)
		}
	}
	better := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		better[d.name] = d.better
	}
	worse := 0
	fmt.Printf("%-14s %-34s %14s %14s %8s %7s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "verdict")
	for _, w := range sortedKeys(a.Samples) {
		for _, name := range sortedKeys(a.Samples[w]) {
			va, vb := a.Samples[w][name], b.Samples[w][name]
			if len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			bound := 0.10
			if pb, ok := bounds.Bounds[w][name]; ok {
				bound = pb.Bound
			}
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / math.Abs(ma)
			}
			if better[name] == "lower" {
				change = -change
			}
			verdict := "same"
			switch {
			case spread(va) > bound || spread(vb) > bound:
				verdict = "unresolved"
			case change < -bound:
				verdict = "worse"
				worse++
			case change > bound:
				verdict = "better"
			}
			fmt.Printf("%-14s %-34s %14.6g %14.6g %+7.1f%% %6.1f%%  %s\n", w, name, ma, mb, 100*change, 100*bound, verdict)
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}
