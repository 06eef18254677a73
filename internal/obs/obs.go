// Package obs exposes a running parameter server's metrics over HTTP for
// live inspection: a Prometheus text-format /metrics endpoint (counters and
// latency-quantile summaries), a /debug/trace endpoint dumping the cluster's
// control-plane event ring as JSON, and a /debug/stats endpoint with the raw
// aggregate stats. It uses only net/http — no third-party client library —
// so it stays dependency-free like the rest of the repository.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"time"

	"lapse/internal/metrics"
)

// Source supplies the live data the endpoints read on every request. Stats is
// required; Latencies and Trace are optional (their endpoints degrade to
// empty output when nil).
type Source struct {
	// Node is the node ID used as the metric label; a negative value means
	// this process hosts several nodes and the label is omitted.
	Node int
	// Stats returns the current cluster-wide (or process-wide) totals.
	Stats func() metrics.Totals
	// Latencies returns the merged worker operation-latency snapshot.
	Latencies func() metrics.LatencySnapshot
	// Trace is the control-plane event ring served by /debug/trace.
	Trace *metrics.TraceRing
}

// Server is a running metrics HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr (host:port; port 0 picks a free one) and serves the
// metrics endpoints in a background goroutine until Close.
func Serve(addr string, src Source) (*Server, error) {
	if src.Stats == nil {
		return nil, fmt.Errorf("obs: Source.Stats is required")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteMetrics(w, src)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeTrace(w, src.Trace)
	})
	mux.HandleFunc("/debug/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeStats(w, src)
	})
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases the listener.
func (s *Server) Close() error { return s.srv.Close() }

// quantiles exported on every latency summary.
var quantiles = []float64{0.5, 0.95, 0.99, 0.999}

// WriteMetrics writes the Prometheus text exposition of src's current state.
// Counters come from the int64 fields of metrics.Totals (reflected, so a new
// counter field shows up here without wiring), gauges from its GaugeVal
// slices (one series per shard, and per origin node where the gauge has that
// dimension); histogram fields and the worker latency snapshot are rendered
// as summaries with quantile labels.
func WriteMetrics(w io.Writer, src Source) {
	w = &typeTracker{Writer: w, seen: make(map[string]bool)}
	t := src.Stats()
	label := ""
	if src.Node >= 0 {
		label = fmt.Sprintf(`node="%d"`, src.Node)
	}
	v := reflect.ValueOf(t)
	tt := v.Type()
	for i := 0; i < tt.NumField(); i++ {
		f := tt.Field(i)
		switch f.Type {
		case reflect.TypeOf(int64(0)):
			name := "lapse_" + snakeCase(f.Name) + "_total"
			if !typeSeen(w, name) {
				fmt.Fprintf(w, "# TYPE %s counter\n", name)
			}
			fmt.Fprintf(w, "%s %d\n", withLabels(name, label), v.Field(i).Int())
		case reflect.TypeOf(metrics.HistSnapshot{}):
			writeSummary(w, "lapse_"+snakeCase(f.Name)+"_seconds", label,
				v.Field(i).Interface().(metrics.HistSnapshot))
		case reflect.TypeOf([]metrics.GaugeVal(nil)):
			for shard, g := range v.Field(i).Interface().([]metrics.GaugeVal) {
				writeGauge(w, "lapse_"+snakeCase(f.Name), joinLabels(label, fmt.Sprintf(`shard="%d"`, shard)), g)
			}
		case reflect.TypeOf([][]metrics.GaugeVal(nil)):
			for shard, row := range v.Field(i).Interface().([][]metrics.GaugeVal) {
				for origin, g := range row {
					if g >= 0 { // unset slots read -1
						writeGauge(w, "lapse_"+snakeCase(f.Name),
							joinLabels(label, fmt.Sprintf(`shard="%d",origin="%d"`, shard, origin)), g)
					}
				}
			}
		}
	}
	if src.Latencies != nil {
		lat := src.Latencies()
		for _, h := range []struct {
			op, path string
			s        metrics.HistSnapshot
		}{
			{"pull", "fast", lat.PullFast},
			{"pull", "slow", lat.PullSlow},
			{"push", "fast", lat.PushFast},
			{"push", "slow", lat.PushSlow},
			{"localize", "all", lat.Localize},
		} {
			writeSummary(w, "lapse_op_latency_seconds", joinLabels(label, fmt.Sprintf(`op="%s",path="%s"`, h.op, h.path)), h.s)
		}
		// The merged fast+slow distributions: the end-to-end latency an
		// application worker sees, matching the bench p50/p99/p999 columns.
		writeSummary(w, "lapse_pull_latency_seconds", label, lat.Pull())
		writeSummary(w, "lapse_push_latency_seconds", label, lat.Push())
	}
	if src.Trace != nil {
		name := "lapse_trace_events_total"
		fmt.Fprintf(w, "# TYPE %s counter\n", name)
		fmt.Fprintf(w, "%s %d\n", withLabels(name, label), src.Trace.Total())
	}
}

// writeGauge renders one gauge reading. Its shard label is the index of the
// ServerStats the reading came from (node-major over this process's nodes).
func writeGauge(w io.Writer, name, labels string, g metrics.GaugeVal) {
	if !typeSeen(w, name) {
		fmt.Fprintf(w, "# TYPE %s gauge\n", name)
	}
	fmt.Fprintf(w, "%s %d\n", withLabels(name, labels), g)
}

// joinLabels puts the possibly empty label set a in front of b.
func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// writeSummary renders one histogram snapshot as a Prometheus summary in
// seconds. The TYPE line is emitted once per metric name per scrape; repeated
// label sets under the same name (the op-latency family) skip it.
func writeSummary(w io.Writer, name, labels string, s metrics.HistSnapshot) {
	if !typeSeen(w, name) {
		fmt.Fprintf(w, "# TYPE %s summary\n", name)
	}
	for _, q := range quantiles {
		fmt.Fprintf(w, "%s{%s} %g\n", name, joinLabels(labels, fmt.Sprintf(`quantile="%g"`, q)), s.Quantile(q).Seconds())
	}
	fmt.Fprintf(w, "%s %g\n", withLabels(name+"_sum", labels), s.Sum().Seconds())
	fmt.Fprintf(w, "%s %d\n", withLabels(name+"_count", labels), s.Count())
}

// typeTracker deduplicates # TYPE lines per exposition write when the writer
// supports it (the common case: WriteMetrics wraps w in one).
type typeTracker struct {
	io.Writer
	seen map[string]bool
}

func typeSeen(w io.Writer, name string) bool {
	t, ok := w.(*typeTracker)
	if !ok {
		return false
	}
	if t.seen[name] {
		return true
	}
	t.seen[name] = true
	return false
}

func withLabels(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// snakeCase converts a Go field name (LocalReads) to a metric name segment
// (local_reads).
func snakeCase(s string) string {
	var b strings.Builder
	for i, r := range s {
		if r >= 'A' && r <= 'Z' {
			if i > 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r - 'A' + 'a')
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// writeTrace dumps the control-plane event ring as JSON.
func writeTrace(w io.Writer, ring *metrics.TraceRing) {
	type out struct {
		Total  uint64               `json:"total"`
		Events []metrics.TraceEvent `json:"events"`
	}
	o := out{Events: []metrics.TraceEvent{}}
	if ring != nil {
		o.Total = ring.Total()
		o.Events = ring.Events()
	}
	json.NewEncoder(w).Encode(o)
}

// latSummary is the compact per-distribution view /debug/stats serves next to
// the raw totals.
type latSummary struct {
	Count int64         `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P99   time.Duration `json:"p99_ns"`
	P999  time.Duration `json:"p999_ns"`
}

func summarize(s metrics.HistSnapshot) latSummary {
	return latSummary{
		Count: s.Count(),
		Mean:  s.Mean(),
		P50:   s.Quantile(0.5),
		P99:   s.Quantile(0.99),
		P999:  s.Quantile(0.999),
	}
}

// writeStats dumps the raw totals plus derived latency summaries as JSON.
func writeStats(w io.Writer, src Source) {
	type out struct {
		Node    int                   `json:"node"`
		Totals  metrics.Totals        `json:"totals"`
		Latency map[string]latSummary `json:"latency,omitempty"`
	}
	o := out{Node: src.Node, Totals: src.Stats()}
	if src.Latencies != nil {
		lat := src.Latencies()
		o.Latency = map[string]latSummary{
			"pull":     summarize(lat.Pull()),
			"push":     summarize(lat.Push()),
			"localize": summarize(lat.Localize),
		}
	}
	json.NewEncoder(w).Encode(o)
}
