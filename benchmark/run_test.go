package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/match"
)

// The same workload, seed and size give byte-identical inputs; another seed
// gives other inputs wherever the workload has something to draw.
func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		enc := func(seed uint64) []byte {
			in, err := genInputs(w.name, seed, w.full)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(in)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		a, b, c := enc(1), enc(1), enc(2)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 generated two different inputs", w.name)
		}
		drawn := w.name != "wc_burst" && w.name != "tcp_eager" && w.name != "shm_rndv" // fixed orders: nothing to draw
		if drawn && bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", w.name)
		}
	}
}

// Every generated plan must be one the list matcher agrees with, keep the
// wildcard mix exact, and leave no message over.
func TestWildcardPlansAreConsistent(t *testing.T) {
	w, _ := findWorkload("unexp_wild")
	for seed := uint64(1); seed <= 5; seed++ {
		in, err := genInputs(w.name, seed, w.full)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkGolden(in.Plans); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, p := range in.Plans {
			var classes [match.NumClasses]int
			for j := range p.RecvTag {
				r := match.Recv{Source: match.Rank(p.RecvSrc[j]), Tag: match.Tag(p.RecvTag[j])}
				classes[r.Class()]++
			}
			if classes != [match.NumClasses]int{40, 25, 25, 10} {
				t.Fatalf("seed %d: wildcard classes %v, want 40/25/25/10", seed, classes)
			}
		}
	}
	// A plan the list matcher disagrees with must be caught.
	in, _ := genInputs(w.name, 1, w.full)
	in.Plans[0].WantPos[0], in.Plans[0].WantPos[1] = in.Plans[0].WantPos[1], in.Plans[0].WantPos[0]
	if err := checkGolden(in.Plans[:1]); err == nil {
		t.Errorf("a wrong pairing passed the golden check")
	}
}

func TestDaemonMixIsExact(t *testing.T) {
	w, _ := findWorkload("daemon_churn")
	in, err := genInputs(w.name, 9, w.full)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	var classes [numJobClasses]int
	for _, tenant := range in.Jobs {
		for _, c := range tenant {
			classes[c]++
			total++
		}
	}
	if total != w.full.repOps || classes[jobOffload]*10 != total*7 || classes[jobHost]*10 != total*3 {
		t.Errorf("%d jobs in classes %v, want %d at 70/30", total, classes, w.full.repOps)
	}
}

// Stamps identify a message; a wrong stamp, a wrong tail and a wrong body
// must all be caught.
func TestPayloadChecks(t *testing.T) {
	mi := &msgInstance{sz: size{k: 4, payload: 4096}}
	mi.pattern = make([]byte, 4096)
	for i := range mi.pattern {
		mi.pattern[i] = byte(i)
	}
	buf := append([]byte(nil), mi.pattern...)
	stamp(buf, 77, 3)
	if !mi.payloadOK(buf, 77, 3, 0) {
		t.Fatalf("a correct payload was rejected")
	}
	if mi.payloadOK(buf, 77, 2, 0) || mi.payloadOK(buf, 78, 3, 0) {
		t.Errorf("a payload with another stamp was accepted")
	}
	buf[4095] ^= 1
	if mi.payloadOK(buf, 77, 3, 1) {
		t.Errorf("a payload with a damaged tail was accepted")
	}
	buf[4095] ^= 1
	buf[2000] ^= 1
	if mi.payloadOK(buf, 77, 3, fullCompareEvery) {
		t.Errorf("a damaged body passed the full compare")
	}
	if !mi.payloadOK(buf, 77, 3, 1) {
		t.Errorf("between full compares only the stamps are checked")
	}
	small := make([]byte, 8)
	stamp(small, 5, 6)
	if !mi.payloadOK(small, 5, 6, 0) || mi.payloadOK(small, 5, 7, 0) {
		t.Errorf("8-byte payload check")
	}
}

// The smoke pass: every workload at 1/100 of its size must run to the end
// with nothing failed, nothing left running and nothing left on disk.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		res, err := run(runConfig{workload: &w, seed: 1, seconds: 0.2, smoke: true, outDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Metrics["fail_ratio"] != 0 {
			t.Errorf("%s: correct=%v failed=%d notes=%v", w.name, res.Correct, res.Failed, res.Notes)
		}
		for _, d := range endToEnd {
			if v := res.Metrics[d.Name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive value", w.name, d.Name, v)
			}
		}
		if res.Throughput.N < buildsPerRun || len(res.SetupS) != buildsPerRun || res.Latency.N == 0 {
			t.Errorf("%s: %d reps, %d set-ups, %d latency samples", w.name, res.Throughput.N, len(res.SetupS), res.Latency.N)
		}
	}
}

// The traced run at full repetition size (a short run, light probes): spans
// must account for the repetition, the exact counts must hold, and every
// metric reported must be declared.
func TestTracedRun(t *testing.T) {
	declared := map[string]bool{"fail_ratio": true}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		declared[d.Name] = true
	}
	for _, name := range []string{"nc_burst", "wc_burst", "unexp_wild", "daemon_churn"} {
		w, _ := findWorkload(name)
		res, err := run(runConfig{workload: w, seed: 2, seconds: 0.1, probeDiv: 10, traced: true, outDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct {
			t.Fatalf("%s: %v", name, res.Notes)
		}
		m := res.Metrics
		for k := range m {
			if !declared[k] {
				t.Errorf("%s: metric %s is reported but not declared", name, k)
			}
		}
		if c := m["bench.span_coverage_pct"]; c < 95 {
			t.Errorf("%s: spans cover %.1f %% of the repetition, want at least 95", name, c)
		}
		if m["mpi.rel_retransmits"] != 0 || m["proc.goroutines_leaked"] != 0 || m["daemon.rejected"] != 0 {
			t.Errorf("%s: retransmits %v, goroutines leaked %v, rejected %v", name, m["mpi.rel_retransmits"], m["proc.goroutines_leaked"], m["daemon.rejected"])
		}
		switch name {
		case "nc_burst":
			if m["core.conflicts_per_msg"] != 0 || m["rdma.qp_send_ns"] <= 0 || m["dpa.pipeline_ns_per_msg"] <= 0 || m["netfabric.shm_read_us_256k"] <= 0 {
				t.Errorf("nc_burst: conflicts %v, probes %v %v %v", m["core.conflicts_per_msg"], m["rdma.qp_send_ns"], m["dpa.pipeline_ns_per_msg"], m["netfabric.shm_read_us_256k"])
			}
		case "wc_burst":
			if m["core.wc_fp_link_slow_path"] != 0 || m["core.wc_sp_link_fast_path"] != 0 || m["core.conflicts_per_msg"] < 0.9 {
				t.Errorf("wc_burst: fp link slow %v, sp link fast %v, conflicts %v", m["core.wc_fp_link_slow_path"], m["core.wc_sp_link_fast_path"], m["core.conflicts_per_msg"])
			}
		case "unexp_wild":
			if m["core.unexpected_per_msg"] < 0.98 { // 100/101 when no receive races the tail of a block
				t.Errorf("unexp_wild: unexpected_per_msg %v, want at least 0.98", m["core.unexpected_per_msg"])
			}
		case "daemon_churn":
			if m["daemon.control_rtt_us"] <= 0 || m["daemon.client_turnaround_ms"] <= 0 || m["daemon.submit_us"] <= 0 {
				t.Errorf("daemon_churn: client probe %v %v, submit %v", m["daemon.control_rtt_us"], m["daemon.client_turnaround_ms"], m["daemon.submit_us"])
			}
		}
	}
}
