package daemon

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// startDaemon brings up an in-process matchd — daemon core plus control
// listener — and returns it with its control address. Cleanup closes the
// listener and every live connection.
func startDaemon(t *testing.T, budgets Budgets) (*Daemon, string) {
	t.Helper()
	d := New(Config{Budgets: budgets, Logf: t.Logf})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("control listen: %v", err)
	}
	go d.ServeControl(ln)
	t.Cleanup(func() {
		ln.Close()
		d.CloseConns()
	})
	return d, ln.Addr().String()
}

// goldenRing runs one spec through the single-job path — Run over a plain
// in-process world, no daemon, no net transport, no pacing — and returns
// its deterministic outcome: the global message count and, for the offload
// engine, the aggregate matched-pairing total (every message pairs exactly
// once at its receiver, so the total is schedule-independent).
func goldenRing(t *testing.T, spec JobSpec) (messages int, matched uint64) {
	t.Helper()
	spec.Transport = "inproc"
	res, err := Run(spec, Local{})
	if err != nil {
		t.Fatalf("golden ring: %v", err)
	}
	for _, nd := range res.Sinks {
		matched += nd.Sink.Counters.Load(obs.CtrMatched)
	}
	return res.Messages, matched
}

// TestDaemonMultiTenantIntegration hosts 8 concurrent tenant jobs — every
// engine, in-flight depths K ∈ {1,4,8}, and all four transports — through
// the real control protocol, then checks each tenant's matched results
// against the golden single-job path and the daemon's admission
// bookkeeping against its own /tenants view.
func TestDaemonMultiTenantIntegration(t *testing.T) {
	d, addr := startDaemon(t, Budgets{TenantThreads: 256, TenantBytes: 256 << 20})

	specs := []JobSpec{
		{Tenant: "t0", Engine: "host", Transport: "inproc", Ranks: 4, K: 8, Reps: 3},
		{Tenant: "t1", Engine: "offload", Transport: "inproc", Ranks: 2, K: 8, Reps: 3, InFlight: 1},
		{Tenant: "t2", Engine: "offload", Transport: "inproc", Ranks: 2, K: 8, Reps: 3, InFlight: 4},
		{Tenant: "t3", Engine: "offload", Transport: "inproc", Ranks: 2, K: 8, Reps: 3, InFlight: 8},
		{Tenant: "t4", Engine: "raw", Transport: "inproc", Ranks: 4, K: 8, Reps: 3},
		{Tenant: "t5", Engine: "host", Transport: "tcp", Ranks: 2, K: 4, Reps: 2},
		{Tenant: "t6", Engine: "offload", Transport: "shm", Ranks: 2, K: 4, Reps: 2, InFlight: 4},
		{Tenant: "t7", Engine: "host", Transport: "hybrid", Ranks: 2, K: 4, Reps: 2},
	}

	finals := make([]*JobStatus, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec JobSpec) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			st, err := c.Submit(spec)
			if err != nil {
				errs[i] = fmt.Errorf("submit: %w", err)
				return
			}
			finals[i], errs[i] = c.Wait(st.ID, 2*time.Minute)
		}(i, spec)
	}
	wg.Wait()

	for i, spec := range specs {
		if errs[i] != nil {
			t.Fatalf("%s (%s/%s): %v", spec.Tenant, spec.Engine, spec.Transport, errs[i])
		}
		st := finals[i]
		if st.State != "done" {
			t.Fatalf("%s ended %s: %s", spec.Tenant, st.State, st.Error)
		}
		// Golden equivalence: the daemon-hosted run must move exactly the
		// messages the single-job path moves...
		goldenMsgs, goldenMatched := goldenRing(t, spec)
		if st.Messages != goldenMsgs {
			t.Errorf("%s: daemon moved %d messages, golden single-job path %d",
				spec.Tenant, st.Messages, goldenMsgs)
		}
		// ...and, on the offload engine, pair them the same number of
		// times (matched totals are deterministic: every data message,
		// ready token, and barrier message pairs once at its receiver).
		if spec.Engine == "offload" && st.Matched != goldenMatched {
			t.Errorf("%s: daemon matched %d pairings, golden %d",
				spec.Tenant, st.Matched, goldenMatched)
		}
	}

	// The daemon's own accounting must agree: 8 tenants, all charges
	// returned, every admission completed.
	doc := d.Tenants()
	if len(doc.Tenants) != len(specs) {
		t.Fatalf("daemon reports %d tenants, want %d", len(doc.Tenants), len(specs))
	}
	for _, ti := range doc.Tenants {
		if ti.ActiveJobs != 0 || ti.ThreadsUsed != 0 || ti.BytesUsed != 0 {
			t.Errorf("tenant %s retains charges after completion: %+v", ti.Name, ti)
		}
		for _, j := range ti.Jobs {
			if j.State != "done" {
				t.Errorf("tenant %s job %s ended %s", ti.Name, j.ID, j.State)
			}
		}
	}
}

// TestDaemonMetricsEndToEnd drives a couple of jobs and checks the
// /metrics document carries per-tenant labeled counters and the
// OpenMetrics scaffolding obscheck -metrics validates in CI.
func TestDaemonMetricsEndToEnd(t *testing.T) {
	d, _ := startDaemon(t, Budgets{})
	matched := make(map[string]uint64)
	for _, tenant := range []string{"alpha", "beta"} {
		st, err := d.Submit(JobSpec{Tenant: tenant, Engine: "offload", Ranks: 2, K: 4, Reps: 2})
		if err != nil {
			t.Fatalf("%s: %v", tenant, err)
		}
		fin, err := d.WaitJob(st.ID)
		if err != nil || fin.State != "done" {
			t.Fatalf("%s job: state %s, err %v", tenant, fin.State, err)
		}
		matched[tenant] = fin.Matched
	}
	var sb strings.Builder
	if err := d.WriteMetrics(&sb); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE matchd_daemon_admitted counter",
		`matchd_daemon_admitted_total{tenant="alpha"} 1`,
		`matchd_daemon_admitted_total{tenant="beta"} 1`,
		`matchd_daemon_completed_total{tenant="alpha"} 1`,
		// The scrape and the job's status read one fold of the same counters.
		fmt.Sprintf(`matchd_matched_total{tenant="alpha"} %d`+"\n", matched["alpha"]),
		fmt.Sprintf(`matchd_matched_total{tenant="beta"} %d`+"\n", matched["beta"]),
		"# TYPE matchd_tenants_active gauge",
		"matchd_tenants_active 2",
		"matchd_jobs_running 0",
		"# EOF\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q\ngot:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("/metrics does not terminate with # EOF")
	}
}

// TestDaemonDrainLeavesNoGoroutines pins the shutdown contract: after a
// busy daemon drains and its listeners close, the process is back to its
// pre-daemon goroutine census — no leaked rank loops, engine workers,
// accept loops, or connection handlers.
func TestDaemonDrainLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	d := New(Config{Logf: t.Logf})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("control listen: %v", err)
	}
	go d.ServeControl(ln)
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	for i := 0; i < 4; i++ {
		spec := JobSpec{Tenant: fmt.Sprintf("t%d", i%2), Engine: []string{"host", "offload"}[i%2],
			Ranks: 2, K: 4, Reps: 2}
		st, err := c.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if fin, err := c.Wait(st.ID, time.Minute); err != nil || fin.State != "done" {
			t.Fatalf("job %d: state %s, err %v", i, fin.State, err)
		}
	}
	c.Close()
	if forced, err := d.Drain(); err != nil || forced != 0 {
		t.Fatalf("Drain = (%d, %v), want (0, nil)", forced, err)
	}
	ln.Close()
	d.CloseConns()

	// Give conn handlers and world teardown a moment to unwind, then
	// require the census back at (or below) the baseline.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before, %d after drain\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestDaemonReplayJob hosts a replay workload end to end (the daemon's
// second workload type, exercised through the public surface).
func TestDaemonReplayJob(t *testing.T) {
	d, _ := startDaemon(t, Budgets{})
	st, err := d.Submit(JobSpec{Tenant: "amg", Workload: "replay", Engine: "offload",
		App: "AMG", Scale: 5, Ranks: 0})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Ranks was left 0: the daemon derives the trace's rank count before
	// admission, so the admitted status already carries it.
	if st.Ranks < 2 {
		t.Fatalf("derived ranks = %d, want the AMG trace's rank count", st.Ranks)
	}
	fin, err := d.WaitJob(st.ID)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if fin.State != "done" {
		t.Fatalf("replay job ended %s: %s", fin.State, fin.Error)
	}
	if fin.Messages == 0 || fin.Matched == 0 {
		t.Errorf("replay job reported no work: %+v", fin)
	}
}
