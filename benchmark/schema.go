package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// metricSet maps metric names to measured values.
type metricSet map[string]float64

// metricDef declares one metric: its name, unit and direction, and for an
// end-to-end metric the share of the baseline's median by which it may get
// worse before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system would see; the same names
// on every workload. fail_ratio is the fifth end-to-end figure: it must be
// 0, so it is carried by the attempted and failed counts of every result
// instead of being a bounded metric.
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s", higher, 0.25},
	{"latency_p50_us", "us", lower, 0.25},
	{"mem_peak_mb", "MiB", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
}

// perLayer are the metrics of single layers, reported by the traced run as
// <module>.<metric>. A metric that does not apply to a workload reads 0
// there.
var perLayer = []metricDef{
	{"rdma.qp_send_ns", "ns", lower, 0},
	{"rdma.qp_oneway_ns", "ns", lower, 0},
	{"rdma.cq_wait_ns_per_cqe", "ns", lower, 0},
	{"dpa.run_block_ns", "ns", lower, 0},
	{"dpa.pipeline_ns_per_msg", "ns", lower, 0},
	{"dpa.pipeline_k4_ns_per_msg", "ns", lower, 0},
	{"dpa.msgs_per_block", "count", higher, 0},
	{"dpa.block_ns_mean", "ns", lower, 0},
	{"dpa.cq_drain_batch_mean", "count", higher, 0},
	{"dpa.activations_per_msg", "ratio", lower, 0},
	{"core.arrive_ns_per_msg", "ns", lower, 0},
	{"core.post_recv_ns", "ns", lower, 0},
	{"core.optimistic_ratio", "ratio", higher, 0},
	{"core.conflicts_per_msg", "ratio", lower, 0},
	{"core.fast_path_per_msg", "ratio", higher, 0},
	{"core.slow_path_per_msg", "ratio", lower, 0},
	{"core.revalidated_per_msg", "ratio", lower, 0},
	{"core.steals_per_msg", "ratio", lower, 0},
	{"core.unexpected_per_msg", "ratio", lower, 0},
	{"core.lazy_reaped_per_msg", "ratio", lower, 0},
	{"core.post_traversed_per_search", "count", lower, 0},
	{"core.arrive_traversed_per_search", "count", lower, 0},
	{"core.wc_fp_link_slow_path", "count", lower, 0},
	{"core.wc_sp_link_fast_path", "count", lower, 0},
	{"mpi.wc_fp_msg_rate", "1/s", higher, 0},
	{"mpi.wc_sp_msg_rate", "1/s", higher, 0},
	{"match.list_post_ns", "ns", lower, 0},
	{"match.list_arrive_ns", "ns", lower, 0},
	{"match.list_traversed_per_search", "count", lower, 0},
	{"mpi.isend_ns", "ns", lower, 0},
	{"mpi.irecv_ns", "ns", lower, 0},
	{"mpi.waitall_ns_per_msg", "ns", lower, 0},
	{"mpi.sync_ns_per_seq", "ns", lower, 0},
	{"mpi.coalesce_width_mean", "count", higher, 0},
	{"mpi.coalesce_flush_size_share", "ratio", higher, 0},
	{"mpi.coalesce_flush_count_share", "ratio", higher, 0},
	{"mpi.coalesce_flush_sync_share", "ratio", lower, 0},
	{"mpi.coalesce_flush_timeout_share", "ratio", lower, 0},
	{"mpi.world_new_ms", "ms", lower, 0},
	{"mpi.world_close_ms", "ms", lower, 0},
	{"mpi.rel_retransmits", "count", lower, 0},
	{"netfabric.setup_ms", "ms", lower, 0},
	{"netfabric.tcp_send_ns", "ns", lower, 0},
	{"netfabric.tcp_oneway_us", "us", lower, 0},
	{"netfabric.tcp_frames_per_flush", "count", higher, 0},
	{"netfabric.tcp_stalls", "count", lower, 0},
	{"netfabric.tcp_read_us_256k", "us", lower, 0},
	{"netfabric.shm_send_ns", "ns", lower, 0},
	{"netfabric.shm_register_us", "us", lower, 0},
	{"netfabric.shm_read_us_256k", "us", lower, 0},
	{"netfabric.shm_spin_wakes", "count", higher, 0},
	{"netfabric.shm_parks", "count", lower, 0},
	{"netfabric.shm_ring_full", "count", lower, 0},
	{"tracegen.generate_ms", "ms", lower, 0},
	{"trace.cache_save_ms", "ms", lower, 0},
	{"trace.cache_load_ms", "ms", lower, 0},
	{"trace.cache_bytes", "bytes", lower, 0},
	{"analyzer.sweep_ns_per_event_config", "ns", lower, 0},
	{"analyzer.analyze_ns_per_event", "ns", lower, 0},
	{"analyzer.shards", "count", lower, 0},
	{"analyzer.events", "count", lower, 0},
	{"daemon.submit_us", "us", lower, 0},
	{"daemon.wait_us", "us", lower, 0},
	{"daemon.turnaround_offload_us", "us", lower, 0},
	{"daemon.turnaround_host_us", "us", lower, 0},
	{"daemon.turnaround_tcp_us", "us", lower, 0},
	{"daemon.rejected", "count", lower, 0},
	{"daemon.control_rtt_us", "us", lower, 0},
	{"daemon.client_turnaround_ms", "ms", lower, 0},
	{"proc.allocs_per_op", "count", lower, 0},
	{"proc.bytes_per_op", "bytes", lower, 0},
	{"proc.gc_cycles", "count", lower, 0},
	{"proc.cpu_util", "ratio", lower, 0},
	{"proc.goroutines_leaked", "count", lower, 0},
	{"e2e.throughput_median_ops_s", "ops/s", higher, 0},
	{"e2e.latency_pooled_p50_us", "us", lower, 0},
	{"e2e.latency_p99_us", "us", lower, 0},
	{"e2e.latency_samples", "count", higher, 0},
	{"e2e.throughput_reps", "count", higher, 0},
	{"bench.trace_overhead_pct", "%", lower, 0},
	{"bench.span_coverage_pct", "%", higher, 0},
	{"env.calib_drift_pct", "%", lower, 0},
}

// manifest is BENCHMARK.json, the benchmark's contract with its driver. An
// end-to-end metric carries its bound; a per-layer metric has none, and the
// zero bound is left out of the file.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one run of the driver measures.
const runSeconds = 15

// buildManifest derives BENCHMARK.json from the workload and metric tables,
// so the file and the program cannot name different things.
func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadDef{w.name, w.why})
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// validate checks a manifest against the limits of the benchmark contract.
func (m *manifest) validate() error {
	if n := len(m.Command); n < 1 || n > 32 {
		return fmt.Errorf("command has %d strings", n)
	}
	if n := len(m.Paths); n < 1 || n > 16 {
		return fmt.Errorf("%d paths", n)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || p[0] == '/' {
			return fmt.Errorf("path %q", p)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d", m.RunSeconds)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	name := func(s string) error {
		if !nameRE.MatchString(s) {
			return fmt.Errorf("name %q", s)
		}
		if seen[s] {
			return fmt.Errorf("name %q used twice", s)
		}
		seen[s] = true
		return nil
	}
	metric := func(n, unit, better string) error {
		if err := name(n); err != nil {
			return err
		}
		if !unitRE.MatchString(unit) {
			return fmt.Errorf("%s: unit %q", n, unit)
		}
		if better != lower && better != higher {
			return fmt.Errorf("%s: better %q", n, better)
		}
		return nil
	}
	for _, w := range m.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			return fmt.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		if err := metric(d.Name, d.Unit, d.Better); err != nil {
			return err
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			return fmt.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		return fmt.Errorf("no setup_s metric in s, lower is better")
	}
	for _, d := range m.PerLayer {
		if err := metric(d.Name, d.Unit, d.Better); err != nil {
			return err
		}
		if d.Bound != 0 {
			return fmt.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	return nil
}

// marshalManifest renders the manifest the way it is checked in.
func marshalManifest(m manifest) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	enc.Encode(m) // cannot fail: plain strings and numbers
	return buf.Bytes()
}

const resultSchema = "repro/benchmark-results/v1"

// resultSet is one result file: every workload of one full run, with the
// environment that produced it.
type resultSet struct {
	Schema string       `json:"schema"`
	Env    envRecord    `json:"env"`
	Traced bool         `json:"traced"`
	Runs   []*runResult `json:"runs"`
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rs.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rs.Schema, resultSchema)
	}
	return &rs, nil
}

func (rs *resultSet) write(path string) error {
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
