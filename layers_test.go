package lapse_test

import (
	"errors"
	"os/exec"
	"strings"
	"testing"
)

// layers is the module's import graph, written as DESIGN.md's layer diagram
// draws it: row by row, top to bottom, each package of the row and the module
// packages it imports (paths relative to the module, "lapse" for the root). A
// package imports only packages in its own row or in rows below it.
var layers = []struct {
	row     string
	imports map[string][]string
}{
	{"entry points", map[string][]string{
		"lapse":                        {"internal/cluster", "internal/core", "internal/driver", "internal/kv", "internal/metrics", "internal/obs", "internal/simnet"},
		"cmd/lapse-node":               {"lapse"},
		"cmd/lapse-sim":                {"internal/harness"},
		"internal/obs":                 {"internal/metrics"},
		"examples/dataclustering":      {"lapse"},
		"examples/hotkeys":             {"lapse"},
		"examples/latencyhiding":       {"lapse"},
		"examples/matrixfactorization": {"lapse"},
		"examples/quickstart":          {"lapse"},
	}},
	{"experiments and workloads", map[string][]string{
		"internal/harness": {"internal/cluster", "internal/data", "internal/driver", "internal/kv", "internal/metrics", "internal/ml/kge", "internal/ml/mf", "internal/ml/w2v", "internal/simnet"},
		"internal/ml":      {"internal/cluster", "internal/kv"},
		"internal/ml/kge":  {"internal/cluster", "internal/data", "internal/driver", "internal/kv", "internal/ml"},
		// ml/mf → msg: the low-level MF ring hands its blocks around as
		// msg.Block messages sent straight over the transport.
		"internal/ml/mf":       {"internal/cluster", "internal/data", "internal/driver", "internal/kv", "internal/ml", "internal/msg"},
		"internal/ml/w2v":      {"internal/cluster", "internal/data", "internal/driver", "internal/kv", "internal/ml"},
		"internal/data":        nil,
		"internal/consistency": {"internal/kv"},
	}},
	{"uniform driver", map[string][]string{
		// driver → transport/tcp, transport/shm: a Deployment builds the
		// transport a multi-process node runs on.
		"internal/driver": {"internal/adaptive", "internal/classic", "internal/cluster", "internal/core", "internal/kv", "internal/metrics", "internal/simnet", "internal/transport", "internal/transport/shm", "internal/transport/tcp"},
	}},
	{"variant policy", map[string][]string{
		"internal/classic":     {"internal/cluster", "internal/kv", "internal/metrics", "internal/msg", "internal/partition", "internal/server", "internal/store"},
		"internal/core":        {"internal/adaptive", "internal/cluster", "internal/kv", "internal/metrics", "internal/msg", "internal/partition", "internal/replication", "internal/server", "internal/store"},
		"internal/replication": {"internal/kv", "internal/metrics", "internal/msg", "internal/partition"},
		"internal/adaptive":    {"internal/kv"},
	}},
	{"server runtime", map[string][]string{
		// server → transport: each shard's loop registers the shard's one
		// handler with the transport (Network.Serve), whose receivers may
		// run it themselves when the shard is idle.
		"internal/server": {"internal/cluster", "internal/kv", "internal/metrics", "internal/msg", "internal/transport"},
	}},
	{"cluster", map[string][]string{
		// cluster → simnet: a cluster whose Config.Transport is nil builds a
		// fresh simulated network itself.
		"internal/cluster": {"internal/metrics", "internal/msg", "internal/simnet", "internal/transport"},
	}},
	{"transports", map[string][]string{
		"internal/transport":     {"internal/msg"},
		"internal/simnet":        {"internal/msg", "internal/transport"},
		"internal/transport/tcp": {"internal/msg", "internal/transport"},
		"internal/transport/shm": {"internal/msg", "internal/transport", "internal/transport/tcp"},
	}},
	{"foundations", map[string][]string{
		"internal/msg":       {"internal/kv"},
		"internal/store":     {"internal/kv"},
		"internal/partition": {"internal/kv"},
		"internal/metrics":   {"internal/kv"},
		"internal/kv":        nil,
	}},
}

// TestImportLayers checks the module's import graph, from go list, against
// layers: every edge must be listed, and every listed edge and package must
// still exist.
func TestImportLayers(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-f",
		`{{if not .Standard}}{{.ImportPath}}{{range .Imports}} {{.}}{{end}}{{"\n"}}{{end}}`, "./...").Output()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		t.Fatalf("go list: %v\n%s", err, exit.Stderr)
	}
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	rel := func(p string) string { return strings.TrimPrefix(p, "lapse/") }
	got := map[string]bool{} // "from → to"
	pkgs := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		pkgs[rel(f[0])] = true
		for _, imp := range f[1:] {
			if imp == "lapse" || strings.HasPrefix(imp, "lapse/") {
				got[rel(f[0])+" → "+rel(imp)] = true
			}
		}
	}
	rowOf := map[string]int{}
	for i, l := range layers {
		for p := range l.imports {
			rowOf[p] = i
		}
	}
	listed := map[string]bool{}
	for i, l := range layers {
		for p, imps := range l.imports {
			if !pkgs[p] {
				t.Errorf("%s (%s) is listed but no longer a package", p, l.row)
			}
			for _, imp := range imps {
				e := p + " → " + imp
				listed[e] = true
				if r, ok := rowOf[imp]; !ok || r < i {
					t.Errorf("%s is listed, but %s is in no row at or below %q", e, imp, l.row)
				}
				if !got[e] {
					t.Errorf("%s is listed but no longer imported: delete it from the list", e)
				}
			}
		}
	}
	for p := range pkgs {
		if _, ok := rowOf[p]; !ok {
			t.Errorf("package %s is in no row of the layer list", p)
		}
	}
	for e := range got {
		if !listed[e] {
			t.Errorf("import %s is in no row of the layer list: remove it, or place it here and in DESIGN.md's diagram", e)
		}
	}
}
