package main

import "encoding/json"

// metricDef declares one metric. BENCHMARK.json carries name, unit, better
// (and bound for the end-to-end ones); layer and moves are the interaction
// model: which package does the work, and which end-to-end metric on which
// workload a change in this number should show up in.
type metricDef struct {
	name, unit, better string
	layer, moves       string
}

// endToEnd is what a user of the parameter server sees, reported by every
// untraced run of every workload. read_* is the time a worker is blocked in
// the call that fetches parameters, timed by the load generator (the shim,
// for the trainers):
//
//	mf_blocking, w2v_hiding   every synchronous Localize (block hand-over,
//	                          sentence prefetch): where a trainer's worker
//	                          waits; the pulls that follow are local
//	zipf_adaptive             every Pull
//	kv_remote_*               every Pull (4 keys)
//	serve_rw                  MultiGet sojourn from the scheduled arrival,
//	                          light step
//
// The workers' timings are cut, in order, into 20 batches; a run reports the
// median over its batches of the batch mean and the batch p95 (see
// batchStats). The centre of a batch is its mean, not its median: on half
// the workloads a call is either a shared-memory access (~0.2 µs) or a
// simulated round trip (~640 µs) in near-equal shares (zipf_adaptive: 48–49 %
// remote reads; serve_rw writes: median 9, 10, 602, 603 µs over four seeds), so
// a median flips between the two modes from run to run while the mean moves
// smoothly with the remote share. The tail is p95 because p99 sits on a mode
// boundary on some workload whatever is timed, and p99.9 has too few samples
// on serve_rw. Medians and p99 are reported per layer (user.*).
//
// Write timings (Push; the trainers' PushAsync call) and the trainers' Pull
// timings are per-layer metrics only (user.*): a trainer's Pull or PushAsync
// takes 0.2–0.4 µs, of the order of the clock reads around it, and over ten
// A/A runs their means and p95s spread 13–31 % (IQR/median) against 4–9 % for
// the same workloads' throughput — no bound a change could be held to.
//
// ops_per_s is key accesses completed per second, the median over the
// window's fixed-work rounds (epochs for the trainers; the overload step's
// goodput for serve_rw).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "bench", "data generation + cluster build + Init + warm-up; median of the run's set-ups"},
	{"ops_per_s", "1/s", "higher", "all", "the throughput a job or caller gets"},
	{"read_mean_us", "us", "lower", "all", "mean time a worker is blocked fetching parameters"},
	{"read_p95_us", "us", "lower", "all", "tail of the same"},
	{"net_msgs_per_op", "count", "lower", "all", "remote messages per key access (the paper's communication overhead)"},
	{"net_bytes_per_op", "B", "lower", "all", "remote bytes per key access"},
	{"allocs_per_op", "count", "lower", "all", "heap allocations per key access, whole process"},
}

// bounds is the share of the parent's median by which each end-to-end metric
// may get worse before a change counts as a regression. BENCHMARK.json holds
// one bound per metric for all workloads, so each is set by the workload on
// which the metric repeats worst (see README.md, "Bounds"); bounds.json, which
// -aa writes and -compare reads, has one per (workload, metric).
var bounds = map[string]float64{
	"setup_s":          0.25,
	"ops_per_s":        0.25,
	"read_mean_us":     0.25,
	"read_p95_us":      0.25,
	"net_msgs_per_op":  0.20,
	"net_bytes_per_op": 0.20,
	"allocs_per_op":    0.10,
}

// runSeconds is the measured window the acceptance procedure asks for.
const runSeconds = 10

// describe renders BENCHMARK.json from the tables above.
func describe() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workload{w.name, w.why})
	}
	for _, d := range endToEnd {
		b := bounds[d.name]
		doc.EndToEnd = append(doc.EndToEnd, metric{d.name, d.unit, d.better, &b})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metric{d.name, d.unit, d.better, nil})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n'), err
}

// perLayer is reported by every traced run. Probe metrics time calls into one
// package's exported functions with the message shapes the workloads produce
// and are the same whatever the workload; counter, trace and user metrics
// describe the workload of the run and read 0 where the layer does no work.
var perLayer = []metricDef{
	// msg: wire codec (probe). Op 4 keys; OpResp 4×16 floats; RelocTransfer 64×16; ReplicaRefresh 32×16.
	{"msg.op_encode_ns", "ns", "lower", "msg", "read_mean_us, ops_per_s on kv_remote_*; not w2v_hiding, zipf_adaptive"},
	{"msg.op_decode_ns", "ns", "lower", "msg", "same"},
	{"msg.resp_encode_ns", "ns", "lower", "msg", "same"},
	{"msg.resp_decode_ns", "ns", "lower", "msg", "same"},
	{"msg.reloc_encode_ns", "ns", "lower", "msg", "ops_per_s on the trainers (block hand-over)"},
	{"msg.reloc_decode_ns", "ns", "lower", "msg", "same"},
	{"msg.refresh_roundtrip_ns", "ns", "lower", "msg", "ops_per_s on zipf_adaptive (sync rounds)"},
	{"msg.roundtrip_allocs", "count", "lower", "msg", "allocs_per_op on kv_remote_*"},
	// store (probe).
	{"store.read_ns", "ns", "lower", "store", "ops_per_s on mf_blocking; not kv_remote_*"},
	{"store.add_ns", "ns", "lower", "store", "ops_per_s on mf_blocking"},
	{"store.add_contended_ns", "ns", "lower", "store", "ops_per_s on mf_blocking with more workers per node"},
	{"store.take_set_ns", "ns", "lower", "store", "relocation cost: ops_per_s on w2v_hiding"},
	// kv (probe).
	{"kv.future_roundtrip_ns", "ns", "lower", "kv", "read_mean_us on kv_remote_*; not mf_blocking"},
	// server: probe + counters of the run's workload.
	{"server.pending_roundtrip_ns", "ns", "lower", "server", "read_mean_us on kv_remote_*"},
	{"server.serve_p50_us", "us", "lower", "server", "ops_per_s, read_p95_us on kv_remote_*"},
	{"server.serve_p99_us", "us", "lower", "server", "read_p95_us on kv_remote_*"},
	{"server.serve_busy_share", "ratio", "lower", "server", "closed-loop ops_per_s saturates as this nears 1"},
	{"server.queue_wait_p99_us", "us", "lower", "server", "ops_per_s on w2v_hiding (ops parked behind relocations)"},
	{"server.queued_ops_per_kop", "count", "lower", "server", "same"},
	// simnet (probe): bias and noise floor of every sim workload.
	{"simnet.send_deliver_ns", "ns", "lower", "simnet", "software cost per simulated message; sim workloads' read_p95_us"},
	{"simnet.sleep_overshoot_p50_us", "us", "lower", "simnet", "bias of every simulated latency"},
	{"simnet.sleep_overshoot_p99_us", "us", "lower", "simnet", "noise floor of read_p95_us on sim workloads"},
	{"simnet.delivery_overshoot_p99_us", "us", "lower", "simnet", "same, for message deliveries"},
	// transports (probe).
	{"tcp.rtt_p50_us", "us", "lower", "transport/tcp", "read_mean_us, ops_per_s on kv_remote_tcp; not kv_remote_shm"},
	{"tcp.rtt_p99_us", "us", "lower", "transport/tcp", "read_p95_us on kv_remote_tcp"},
	{"tcp.stream_msgs_per_s", "1/s", "higher", "transport/tcp", "batched traffic; ops_per_s on kv_remote_tcp with more workers"},
	{"shm.rtt_p50_us", "us", "lower", "transport/shm", "read_mean_us, ops_per_s on kv_remote_shm; not kv_remote_tcp"},
	{"shm.rtt_p99_us", "us", "lower", "transport/shm", "read_p95_us on kv_remote_shm"},
	{"shm.stream_msgs_per_s", "1/s", "higher", "transport/shm", "batched traffic on kv_remote_shm"},
	// cluster (probe).
	{"cluster.barrier_us", "us", "lower", "cluster", "ops_per_s on mf_blocking (P barriers per epoch; small)"},
	// core (probe, 2-node zero-latency simnet: the software path with no fabric cost).
	{"core.pull_local_ns", "ns", "lower", "core", "ops_per_s on mf_blocking"},
	{"core.push_local_ns", "ns", "lower", "core", "ops_per_s on mf_blocking"},
	{"core.push_async_local_ns", "ns", "lower", "core", "ops_per_s on mf_blocking"},
	{"core.pull_remote_us", "us", "lower", "core", "read_mean_us on kv_remote_* (≈ fabric rtt + this)"},
	{"core.push_remote_us", "us", "lower", "core", "ops_per_s, user.write_mean_us on kv_remote_*"},
	{"core.localize_us_per_key", "us", "lower", "core", "ops_per_s, read_mean_us on both trainers"},
	{"core.localize_msgs_per_key", "count", "lower", "core", "net_msgs_per_op on both trainers"},
	{"core.pull_if_local_ns", "ns", "lower", "core", "ops_per_s on w2v_hiding"},
	{"core.multiget_hit_ns", "ns", "lower", "core", "ops_per_s, read_mean_us on serve_rw"},
	{"core.multiget_miss_us", "us", "lower", "core", "ops_per_s, read_p95_us on serve_rw"},
	{"core.pull_replica_ns", "ns", "lower", "core", "ops_per_s on zipf_adaptive, only through the hit ratio"},
	// core (counters of the run's workload).
	{"core.remote_read_ratio", "ratio", "lower", "core", "ops_per_s, net_msgs_per_op on zipf_adaptive, w2v_hiding"},
	{"core.relocations_per_kop", "count", "lower", "core", "ops_per_s, net_msgs_per_op on w2v_hiding"},
	{"core.relocation_p50_us", "us", "lower", "core", "ops_per_s, read_mean_us on w2v_hiding"},
	{"core.relocation_p99_us", "us", "lower", "core", "read_p95_us on w2v_hiding"},
	{"core.forwards_per_kop", "count", "lower", "core", "net_msgs_per_op everywhere"},
	{"core.lease_hit_ratio", "ratio", "higher", "core", "ops_per_s, read_mean_us on serve_rw"},
	{"core.revokes_per_write", "count", "lower", "core", "ops_per_s, user.write_p95_us on serve_rw"},
	// replication.
	{"replication.tracker_observe_ns", "ns", "lower", "replication", "ops_per_s on mf_blocking (every fast-path access)"},
	{"replication.replica_hit_ratio", "ratio", "higher", "replication", "ops_per_s, net_msgs_per_op on zipf_adaptive"},
	{"replication.sync_msgs_per_s", "1/s", "lower", "replication", "net_msgs_per_op on zipf_adaptive"},
	{"replication.sync_round_p50_us", "us", "lower", "replication", "ops_per_s on zipf_adaptive (small)"},
	// adaptive.
	{"adaptive.ingest_ns_per_key", "ns", "lower", "adaptive", "server.serve_busy_share on zipf_adaptive"},
	{"adaptive.transitions", "count", "lower", "adaptive", "ops_per_s on zipf_adaptive (churn)"},
	{"adaptive.settle_ms", "ms", "lower", "adaptive", "setup_s and ops_per_s on zipf_adaptive"},
	// metrics (probe).
	{"metrics.hist_observe_ns", "ns", "lower", "metrics", "ops_per_s on mf_blocking (fast-path sampling)"},
	{"metrics.trace_record_ns", "ns", "lower", "metrics", "ops_per_s on w2v_hiding (relocation events)"},
	// ml, data (probe): lower bound of an epoch, and of set-up.
	{"ml.mf_step_ns", "ns", "lower", "ml/mf", "ops_per_s on mf_blocking: the trainer's own share"},
	{"ml.w2v_pair_ns", "ns", "lower", "ml/w2v", "ops_per_s on w2v_hiding: the trainer's own share"},
	{"data.mf_gen_s", "s", "lower", "data", "setup_s on mf_blocking"},
	{"data.corpus_gen_s", "s", "lower", "data", "setup_s on w2v_hiding"},
	// trace shares of the run's workload: where worker time went, summing to 1.
	{"trace.pull_share", "ratio", "lower", "trace", "where a claimed saving must appear"},
	{"trace.push_share", "ratio", "lower", "trace", "same"},
	{"trace.localize_share", "ratio", "lower", "trace", "same"},
	{"trace.wait_all_share", "ratio", "lower", "trace", "same"},
	{"trace.barrier_share", "ratio", "lower", "trace", "same"},
	{"trace.multiget_share", "ratio", "lower", "trace", "same"},
	{"trace.pace_share", "ratio", "higher", "trace", "idle time of the open-loop generator"},
	{"trace.other_share", "ratio", "lower", "trace", "the generator's or trainer's own time"},
	// bench: the benchmark's own behaviour.
	{"bench.trace_overhead_pct", "%", "lower", "bench", "traced vs untraced ops_per_s of the same build"},
	{"bench.gen_lag_p99_us", "us", "lower", "bench", "how late the open-loop generator issued (serve_rw knee step)"},
	{"bench.span_count", "count", "lower", "bench", "spans recorded in the traced window"},
	// user: what the workload's own user sees, measured in the traced run's
	// untraced window. None can be an end-to-end metric of every run: they
	// either do not repeat within a bound (see endToEnd) or exist on one kind
	// of workload only.
	{"user.read_p50_us", "us", "lower", "all", "median of the read timings behind read_mean_us"},
	{"user.read_p99_us", "us", "lower", "all", "p99 of the same"},
	{"user.write_mean_us", "us", "lower", "all", "time a worker is blocked in Push (trainers: the PushAsync call), median of batch means"},
	{"user.write_p50_us", "us", "lower", "all", "median of the write timings"},
	{"user.write_p95_us", "us", "lower", "all", "median of batch p95s of the write timings"},
	{"user.write_p99_us", "us", "lower", "all", "p99 of the write timings"},
	{"user.pull_mean_us", "us", "lower", "all", "trainers: Pull/PullIfLocal timed 1 in 16, median of batch means"},
	{"user.epoch_s", "s", "lower", "all", "trainers: median epoch (the paper's yardstick); = accesses per epoch ÷ ops_per_s"},
	{"user.loss", "count", "lower", "ml", "trainers: model quality after the last epoch"},
	{"user.goodput_rps", "1/s", "higher", "core", "serve_rw: read requests per second at the overload step; = ops_per_s ÷ 4.25"},
	{"user.sojourn_p50_ms", "ms", "lower", "core", "serve_rw knee step (4 k rps): queueing amplifies service-time changes and noise alike (p99 4.5–6.1 ms over three seeds), so not bounded"},
	{"user.sojourn_p99_ms", "ms", "lower", "core", "same"},
	{"user.write_p99_ms", "ms", "lower", "core", "serve_rw knee step: synchronous push"},
	{"user.slo_rate_rps", "1/s", "higher", "core", "serve_rw: highest ladder rate with sojourn p99 ≤ 5 ms and no backlog; a three-step function, so not bounded"},
}
