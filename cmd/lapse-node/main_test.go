package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// binDir holds the lapse-node binary the tests build, once per test run.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "lapse-node-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var buildNode = sync.OnceValues(func() ([]byte, error) {
	return exec.Command("go", "build", "-o", filepath.Join(binDir, "lapse-node"), ".").CombinedOutput()
})

// nodeBinary returns the path of the real lapse-node binary, building it on
// first use; it skips the test in -short mode.
func nodeBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and launches subprocesses")
	}
	if out, err := buildNode(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return filepath.Join(binDir, "lapse-node")
}

// reservePorts picks n distinct loopback ports by briefly binding them. The
// tiny window between release and the node binding again is the standard
// test-only compromise; production deployments pass fixed ports.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return addrs
}

// TestThreeProcessCluster is the end-to-end deployment check: build the real
// binary, start a 3-node cluster as 3 OS processes — once with a single
// server shard per node and once with 4, each on the auto-selected
// shared-memory rings (same-host processes) and once more forced onto plain
// TCP, plus one cell with the serving tier on — and require every process to
// exit 0, which, for node 0, includes verifying the converged parameter
// values pulled across process boundaries (and, with -serving, every
// worker's MultiGets of a strided hot set).
func TestThreeProcessCluster(t *testing.T) {
	bin := nodeBinary(t)
	for _, tc := range []struct {
		transport string
		shards    int
		serving   string
	}{
		{"shm", 1, ""}, {"shm", 4, ""}, {"tcp", 1, ""}, {"tcp", 4, ""}, {"shm", 2, "10s"},
	} {
		name := fmt.Sprintf("%s/shards=%d", tc.transport, tc.shards)
		if tc.serving != "" {
			name += "/serving=" + tc.serving
		}
		t.Run(name, func(t *testing.T) {
			addrs := reservePorts(t, 3)
			addrList := strings.Join(addrs, ",")
			// A private ring directory per cell: concurrent test runs must
			// not rendezvous through the default Addrs-derived path.
			shmDir := filepath.Join(t.TempDir(), "rings")

			type result struct {
				node int
				out  []byte
				err  error
			}
			results := make(chan result, 3)
			for node := 0; node < 3; node++ {
				go func(node int) {
					args := []string{
						"-node", fmt.Sprint(node),
						"-addrs", addrList,
						"-workers", "2",
						"-shards", fmt.Sprint(tc.shards),
						"-keys", "48",
						"-iters", "3",
					}
					if tc.serving != "" {
						args = append(args, "-serving", tc.serving)
					}
					if tc.transport == "tcp" {
						args = append(args, "-no-shm")
					} else {
						args = append(args, "-shm-dir", shmDir)
					}
					out, err := exec.Command(bin, args...).CombinedOutput()
					results <- result{node, out, err}
				}(node)
			}
			for i := 0; i < 3; i++ {
				r := <-results
				if r.err != nil {
					t.Errorf("node %d failed: %v\n%s", r.node, r.err, r.out)
					continue
				}
				if !strings.Contains(string(r.out), "converged") {
					t.Errorf("node %d output missing convergence line:\n%s", r.node, r.out)
				}
				if want := "transport=" + tc.transport; !strings.Contains(string(r.out), want) {
					t.Errorf("node %d did not report %s:\n%s", r.node, want, r.out)
				}
			}
		})
	}
}

// TestBadFlagsAreReported checks that a configuration the cluster rejects
// ends the process with the facade's error on one line and exit status 1,
// and that a shard count below 1 is a usage error (exit 2): the facade would
// read 0 as a per-process default, which the processes of one deployment
// need not share. A key count below 1 is one too: a negative one would
// convert to a huge lapse.Key.
func TestBadFlagsAreReported(t *testing.T) {
	bin := nodeBinary(t)
	for _, tc := range []struct {
		flag, value string
		exit        int
		want        string
	}{
		{"-workers", "0", 1, "invalid topology"},
		{"-vallen", "0", 1, "layout"},
		{"-shards", "0", 2, "-shards and -keys must be at least 1"},
		{"-keys", "0", 2, "-shards and -keys must be at least 1"},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			out, err := exec.Command(bin, "-node", "0", "-addrs", "127.0.0.1:0", "-q", tc.flag, tc.value).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != tc.exit {
				t.Fatalf("exit = %v, want status %d\n%s", err, tc.exit, out)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			if !strings.Contains(lines[0], tc.want) {
				t.Errorf("first line %q does not contain %q", lines[0], tc.want)
			}
			if tc.exit == 1 && len(lines) != 1 {
				t.Errorf("error took %d lines, want 1:\n%s", len(lines), out)
			}
		})
	}
}
