package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"lapse/internal/metrics"
)

func testSource() Source {
	var st metrics.ServerStats
	st.LocalReads.Add(100)
	st.RemoteReads.Add(7)
	st.Relocations.Add(3)
	st.LeaseRefreshes.Add(11)
	st.RelocationTime.Observe(2 * time.Millisecond)
	st.RelocationTime.Observe(4 * time.Millisecond)
	st.AdaptManaged.Set(5)
	st.AdaptReportEvidence.Set(1, 640) // node 1 reported; node 0 never did
	st.AdaptReportAge.Set(1, 3)
	var lat metrics.OpLat
	for i := 0; i < 100; i++ {
		lat.PullFast.Observe(time.Microsecond)
		lat.PushSlow.Observe(50 * time.Microsecond)
	}
	lat.Localize.Observe(3 * time.Millisecond)
	ring := metrics.NewTraceRing(64)
	ring.Record(0, 0, metrics.TraceRelocStart, 42, 1, 0, "")
	ring.Record(0, 0, metrics.TraceRelocFinish, 42, -1, 0, "")
	return Source{
		Node:      0,
		Stats:     func() metrics.Totals { return metrics.Sum([]*metrics.ServerStats{&st}) },
		Latencies: func() metrics.LatencySnapshot { return lat.Snapshot() },
		Trace:     ring,
	}
}

// checkExposition validates the Prometheus text format line by line: comments
// start with #, samples are "name value" or "name{labels} value", and no
// metric name gets two TYPE lines.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	types := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", ln+1)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			if types[parts[2]] {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, parts[2])
			}
			types[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Sample line: name[{labels}] value
		rest := line
		if i := strings.IndexByte(rest, '{'); i >= 0 {
			j := strings.IndexByte(rest, '}')
			if j < i {
				t.Fatalf("line %d: unbalanced braces %q", ln+1, line)
			}
			rest = rest[:i] + rest[j+1:]
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		var f float64
		if _, err := fmt.Sscanf(fields[1], "%g", &f); err != nil {
			t.Fatalf("line %d: non-numeric value %q: %v", ln+1, fields[1], err)
		}
	}
}

func TestWriteMetricsExposition(t *testing.T) {
	var b strings.Builder
	WriteMetrics(&b, testSource())
	body := b.String()
	checkExposition(t, body)
	for _, want := range []string{
		`lapse_local_reads_total{node="0"} 100`,
		`lapse_relocations_total{node="0"} 3`,
		`lapse_lease_refreshes_total{node="0"} 11`, // reflected from Totals, no wiring of its own
		`lapse_relocation_time_seconds{node="0",quantile="0.5"}`,
		`lapse_op_latency_seconds{node="0",op="pull",path="fast",quantile="0.99"}`,
		`lapse_pull_latency_seconds{node="0",quantile="0.999"}`,
		`lapse_trace_events_total{node="0"} 2`,
		"# TYPE lapse_adapt_managed gauge",
		`lapse_adapt_managed{node="0",shard="0"} 5`,
		`lapse_adapt_report_evidence{node="0",shard="0",origin="1"} 640`,
		`lapse_adapt_report_age{node="0",shard="0",origin="1"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
	if strings.Contains(body, `origin="0"`) {
		t.Errorf("exposition has a report gauge for an origin that never reported\n%s", body)
	}
}

func TestWriteMetricsNoNodeLabel(t *testing.T) {
	src := testSource()
	src.Node = -1
	var b strings.Builder
	WriteMetrics(&b, src)
	checkExposition(t, b.String())
	for _, want := range []string{"lapse_local_reads_total 100", `lapse_adapt_report_age{shard="0",origin="1"} 3`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("unlabeled exposition missing %q:\n%s", want, b.String())
		}
	}
}

func TestServeEndpoints(t *testing.T) {
	s, err := Serve("127.0.0.1:0", testSource())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	checkExposition(t, get("/metrics"))

	var tr struct {
		Total  uint64               `json:"total"`
		Events []metrics.TraceEvent `json:"events"`
	}
	if err := json.Unmarshal([]byte(get("/debug/trace")), &tr); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if tr.Total != 2 || len(tr.Events) != 2 {
		t.Fatalf("trace = %d events (total %d), want 2/2", len(tr.Events), tr.Total)
	}
	if tr.Events[0].Kind != metrics.TraceRelocStart || tr.Events[0].Key != 42 {
		t.Fatalf("unexpected first trace event %+v", tr.Events[0])
	}

	var st struct {
		Node    int                        `json:"node"`
		Totals  metrics.Totals             `json:"totals"`
		Latency map[string]json.RawMessage `json:"latency"`
	}
	if err := json.Unmarshal([]byte(get("/debug/stats")), &st); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	if st.Node != 0 || st.Latency["pull"] == nil {
		t.Fatalf("unexpected stats payload: node=%d latency keys=%d", st.Node, len(st.Latency))
	}
	if ev := st.Totals.AdaptReportEvidence; len(ev) != 1 || len(ev[0]) != 2 || ev[0][0] != -1 || ev[0][1] != 640 {
		t.Fatalf("stats payload report evidence = %v, want [[-1 640]]", ev)
	}
}

func TestSnakeCase(t *testing.T) {
	for in, want := range map[string]string{
		"LocalReads":      "local_reads",
		"QueueWait":       "queue_wait",
		"ReplicaSyncTime": "replica_sync_time",
		"ReadValues":      "read_values",
	} {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%s) = %s, want %s", in, got, want)
		}
	}
}
