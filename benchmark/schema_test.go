package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// BENCHMARK.json is generated from the workload and metric tables
// (`benchmark manifest`); the checked-in file must be that output and must
// satisfy the contract's limits.
func TestManifestMatchesTables(t *testing.T) {
	m := buildManifest()
	if err := m.validate(); err != nil {
		t.Fatalf("generated manifest breaks the contract: %v", err)
	}
	want := marshalManifest(m)
	if len(want) > 64<<10 {
		t.Errorf("manifest is %d bytes, over 64 KiB", len(want))
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `benchmark manifest`; regenerate it")
	}
	var back manifest
	dec := json.NewDecoder(bytes.NewReader(got))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err != nil {
		t.Fatalf("BENCHMARK.json does not decode into the schema: %v", err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Errorf("BENCHMARK.json does not round-trip")
	}
	if len(m.Workloads) != 7 || len(m.EndToEnd) != 4 {
		t.Errorf("%d workloads and %d end-to-end metrics", len(m.Workloads), len(m.EndToEnd))
	}
}

func TestManifestValidateRejects(t *testing.T) {
	clone := func() manifest { // the generated manifest shares the metric tables
		m := buildManifest()
		m.EndToEnd = append([]metricDef(nil), m.EndToEnd...)
		m.PerLayer = append([]metricDef(nil), m.PerLayer...)
		m.Workloads = append([]workloadDef(nil), m.Workloads...)
		return m
	}
	mutations := map[string]func(*manifest){
		"absolute path":   func(m *manifest) { m.Paths = []string{"/benchmark"} },
		"one workload":    func(m *manifest) { m.Workloads = m.Workloads[:1] },
		"bound too wide":  func(m *manifest) { m.EndToEnd[0].Bound = 0.3 },
		"no setup_s":      func(m *manifest) { m.EndToEnd = m.EndToEnd[:3] },
		"name used twice": func(m *manifest) { m.PerLayer[1].Name = m.PerLayer[0].Name },
		"bad unit":        func(m *manifest) { m.PerLayer[0].Unit = "µs" },
		"long run":        func(m *manifest) { m.RunSeconds = 61 },
		"bounded layer":   func(m *manifest) { m.PerLayer[0].Bound = 0.1 },
		"two-line why":    func(m *manifest) { m.Workloads[0].Why = "a\nb" },
	}
	for name, mutate := range mutations {
		m := clone()
		mutate(&m)
		if err := m.validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Every metric a run reports must be declared, and every declared metric
// must be in the driver's result line of its kind of run.
func TestResultLineCarriesExactlyTheDeclaredMetrics(t *testing.T) {
	for _, traced := range []bool{false, true} {
		res := &runResult{Traced: traced, Correct: true, Attempted: 10, Metrics: metricSet{"throughput_ops_s": 1.5, "rdma.qp_send_ns": 2.5}}
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		dec := json.NewDecoder(bytes.NewReader(resultLine(res)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("traced=%v: %d metrics in the line, %d declared", traced, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			if got, ok := line.Metrics[d.Name]; !ok || got.Unit != d.Unit {
				t.Errorf("traced=%v: %s missing or in the wrong unit", traced, d.Name)
			}
		}
		if !line.Correct || line.Attempted != 10 {
			t.Errorf("line header: %+v", line)
		}
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	rs := &resultSet{Schema: resultSchema, Env: readEnv(3), Runs: []*runResult{{
		Workload: "nc_burst", Op: "matched 8 B message", Seed: 3, Correct: true, Attempted: 100,
		Metrics:    metricSet{"throughput_ops_s": 4e5, "setup_s": 0.5},
		Throughput: summary{N: 7, Median: 4e5, Q1: 3.9e5, Q3: 4.1e5},
		Latency:    latencySummary{N: 1000, P50: 3.2, Percentiles: map[string]float64{"p90": 4, "p99": 9}, Highest: "p99"},
		SetupS:     []float64{0.6, 0.5, 0.5}, WallS: 12, CalibNs: [2]float64{1e7, 1.01e7},
	}}}
	path := filepath.Join(t.TempDir(), "set.json")
	if err := rs.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := readResultSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rs) {
		t.Errorf("result set does not round-trip:\n got %+v\nwant %+v", back.Runs[0], rs.Runs[0])
	}
	if rs.Env.NProc < 1 || rs.Env.GoVersion == "" || rs.Env.Seed != 3 {
		t.Errorf("environment record: %+v", rs.Env)
	}
	os.WriteFile(path, []byte(`{"schema":"something/else"}`), 0o644)
	if _, err := readResultSet(path); err == nil {
		t.Errorf("a file of another schema was accepted")
	}
}
