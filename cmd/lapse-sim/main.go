// Command lapse-sim regenerates the paper's figures and tables on the
// simulated cluster. Each subcommand reproduces one experiment; "all" runs
// everything (several minutes).
//
// Usage:
//
//	lapse-sim [-short] <experiment>
//
// Experiments: fig1 fig6 fig7 fig8 fig9 table1 table3 table4 table5 ablation all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"lapse/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run runs the experiment args name and returns the exit status: 2, after
// the usage, unless args are the flags and exactly one known experiment.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lapse-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprint(stderr, usage) }
	short := fs.Bool("short", false, "run the reduced parallelism sweep")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	pars := harness.PaperParallelism()
	if *short {
		pars = harness.ShortParallelism()
	}
	what := strings.ToLower(fs.Arg(0))
	// err is set by an experiment that failed.
	var err error
	experiments := map[string]func(){
		"fig1": func() {
			fmt.Fprint(stdout, harness.Render("Figure 1: KGE (RESCAL) epoch runtime", harness.Figure1(pars)))
		},
		"fig6": func() {
			fmt.Fprint(stdout, harness.Render("Figure 6a: MF epoch runtime (10x1 matrix)", harness.Figure6("10x1", pars)))
			fmt.Fprint(stdout, harness.Render("Figure 6b: MF epoch runtime (3x3 matrix)", harness.Figure6("3x3", pars)))
		},
		"fig7": func() {
			fmt.Fprint(stdout, harness.Render("Figure 7a: ComplEx-Small", harness.Figure7(harness.ComplExSmall, pars)))
			fmt.Fprint(stdout, harness.Render("Figure 7b: ComplEx-Large", harness.Figure7(harness.ComplExLarge, pars)))
			fmt.Fprint(stdout, harness.Render("Figure 7c: RESCAL-Large", harness.Figure7(harness.RescalLarge, pars)))
		},
		"fig8": func() {
			fmt.Fprint(stdout, harness.RenderFigure8(harness.Figure8(pars, 5)))
		},
		"fig9": func() {
			fmt.Fprint(stdout, harness.Render("Figure 9a: MF vs stale PS and low-level (10x1 matrix)", harness.Figure9("10x1", pars)))
		},
		"table1": func() {
			fmt.Fprintln(stdout, "Table 1 (consistency guarantees) is verified by executable checks:")
			fmt.Fprintln(stdout, "  go test ./internal/consistency/ -run TestTable1 -v")
			fmt.Fprintln(stdout, "  go test ./internal/core/ -run 'Theorem3|CachesOff' -v")
		},
		"table3": func() {
			var rows []harness.Table3Row
			rows, err = harness.Table3()
			fmt.Fprint(stdout, harness.RenderTable3(rows))
		},
		"table4": func() {
			fmt.Fprint(stdout, harness.RenderTable4(harness.Table4()))
		},
		"table5": func() {
			fmt.Fprint(stdout, harness.RenderTable5(harness.Table5(pars)))
		},
		"ablation": func() {
			par := pars[len(pars)-1]
			fmt.Fprint(stdout, harness.RenderAblation(harness.Ablation(par), par))
		},
	}
	names := []string{what}
	if what == "all" {
		names = []string{"fig1", "fig6", "fig7", "fig8", "fig9", "table1", "table3", "table4", "table5", "ablation"}
	} else if experiments[what] == nil {
		fmt.Fprintf(stderr, "unknown experiment %q\n", what)
		fs.Usage()
		return 2
	}
	for _, name := range names {
		experiments[name]()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			return 1
		}
		if what == "all" {
			fmt.Fprintln(stdout)
		}
	}
	return 0
}

const usage = `lapse-sim regenerates the experiments of "Dynamic Parameter Allocation in
Parameter Servers" (VLDB 2020) on a simulated cluster.

usage: lapse-sim [-short] <experiment>

  -short    run the reduced parallelism sweep

experiments:
  fig1      KGE (RESCAL) epoch runtime: classic PS vs fast-local vs Lapse
  fig6      matrix factorization epoch runtime (two matrices)
  fig7      knowledge-graph embeddings (ComplEx-S, ComplEx-L, RESCAL-L)
  fig8      word vectors: epoch runtime and error over epochs/time
  fig9      MF vs the stale PS (Petuum) and a low-level implementation
  table1    pointer to the consistency-guarantee checks
  table3    location-management strategy costs
  table4    per-task access statistics (single thread)
  table5    Lapse reads/relocations on ComplEx-Large
  ablation  location caching and DPA-vs-fast-local-access study
  all       everything above
`
