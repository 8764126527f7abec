package daemon

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock drives drain deadlines deterministically: After never fires
// until the test calls fire.
type fakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []chan time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	c.waiters = append(c.waiters, ch)
	c.mu.Unlock()
	return ch
}

// pending reports how many After channels are armed.
func (c *fakeClock) pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// fire expires every armed After channel.
func (c *fakeClock) fire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ch := range c.waiters {
		ch <- c.now
	}
	c.waiters = nil
}

func admissionCode(t *testing.T, err error) string {
	t.Helper()
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("got %v (%T), want *AdmissionError", err, err)
	}
	return adm.Code
}

// TestAdmissionOverBudgetRejected pins the §IV-E budget gate: a job asking
// past its tenant's DPA-thread or memory budget is rejected with a typed
// reason naming the exhausted budget, and the rejection charges nothing —
// a fitting job from the same tenant, and any job from another tenant,
// still admit.
func TestAdmissionOverBudgetRejected(t *testing.T) {
	d := New(Config{
		Budgets: Budgets{TenantThreads: 64, TenantBytes: 32 << 20},
		Clock:   newFakeClock(),
	})

	// 2 ranks × 32 threads = the whole 64-thread budget. Long enough to
	// still be running while the asks below bounce off it.
	full := JobSpec{Tenant: "alpha", Engine: "offload", Ranks: 2, Threads: 32, K: 2, Reps: 300}
	st, err := d.Submit(full)
	if err != nil {
		t.Fatalf("first offload job: %v", err)
	}
	// A second offload thread-ask must bounce while the first runs.
	_, err = d.Submit(JobSpec{Tenant: "alpha", Engine: "offload", Ranks: 1, Threads: 32, K: 2, Reps: 1})
	if code := admissionCode(t, err); code != CodeOverBudget {
		t.Fatalf("thread-over-budget code = %s, want %s", code, CodeOverBudget)
	} else if !strings.Contains(err.Error(), "thread") {
		t.Fatalf("rejection reason %q does not name the thread budget", err)
	}
	// The same tenant still fits a host job (no thread charge)...
	if _, err := d.Submit(JobSpec{Tenant: "alpha", Engine: "host", Ranks: 2, K: 2, Reps: 1}); err != nil {
		t.Fatalf("host job within budget: %v", err)
	}
	// ...and another tenant's budget is untouched.
	if _, err := d.Submit(JobSpec{Tenant: "beta", Engine: "offload", Ranks: 2, Threads: 32, K: 2, Reps: 1}); err != nil {
		t.Fatalf("other tenant's offload job: %v", err)
	}

	// Memory budget: a table ask modeled past TenantBytes is rejected with
	// a reason naming memory.
	_, err = d.Submit(JobSpec{Tenant: "alpha", Engine: "host", Ranks: 8, MaxReceives: MaxReceivesCap, K: 2, Reps: 1})
	if code := admissionCode(t, err); code != CodeOverBudget {
		t.Fatalf("memory-over-budget code = %s, want %s", code, CodeOverBudget)
	} else if !strings.Contains(err.Error(), "memory") {
		t.Fatalf("rejection reason %q does not name the memory budget", err)
	}

	// Once the first job finishes its charges return and the thread ask
	// that bounced now admits.
	if _, err := d.WaitJob(st.ID); err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	waitAllTerminal(t, d)
	if _, err := d.Submit(JobSpec{Tenant: "alpha", Engine: "offload", Ranks: 1, Threads: 32, K: 2, Reps: 1}); err != nil {
		t.Fatalf("offload job after release: %v", err)
	}
	waitAllTerminal(t, d)
}

// TestUnbuildableOffloadSpecsRefused pins the pre-admission gate: an
// offload spec no world can be built from — fewer DPA threads than the
// matcher's block, or matching tables no DPA memory holds — is refused with
// a typed code through the decoder's boundary, takes no job id, charges
// nothing, and starts (so leaks) no DPA worker.
func TestUnbuildableOffloadSpecsRefused(t *testing.T) {
	before := runtime.NumGoroutine()
	d := New(Config{Clock: newFakeClock()})
	for _, tc := range []struct {
		line, code, names string
	}{
		{`{"op":"submit","job":{"tenant":"a","engine":"offload","threads":8}}`, CodeBadRequest, "threads"},
		{`{"op":"submit","job":{"tenant":"a","engine":"offload","bins":524288}}`, CodeOverBudget, "DPA memory"},
	} {
		if _, err := DecodeRequest([]byte(tc.line)); err == nil {
			t.Fatalf("DecodeRequest accepted %s", tc.line)
		}
		for i := 0; i < 10; i++ {
			resp := d.handle([]byte(tc.line), nil)
			if resp.OK || resp.Code != tc.code || !strings.Contains(resp.Error, tc.names) {
				t.Fatalf("%s: ok=%v code=%s error=%q, want %s naming %q",
					tc.line, resp.OK, resp.Code, resp.Error, tc.code, tc.names)
			}
		}
	}
	if jobs := d.List(); len(jobs) != 0 {
		t.Fatalf("refused specs took job ids: %+v", jobs)
	}
	if doc := d.Tenants(); len(doc.Tenants) != 0 {
		t.Fatalf("refused specs were charged to a tenant: %+v", doc.Tenants)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines: %d before, %d after 20 refused submissions", before, now)
	}
	// The same shapes with a buildable ask still admit and run.
	st, err := d.Submit(JobSpec{Tenant: "a", Engine: "offload", Threads: 32, K: 2, Reps: 1})
	if err != nil {
		t.Fatalf("buildable offload spec: %v", err)
	}
	if st, err = d.WaitJob(st.ID); err != nil || st.State != "done" {
		t.Fatalf("buildable offload job: state %s err %v (%s)", st.State, err, st.Error)
	}
}

// waitAllTerminal blocks until every submitted job settles.
func waitAllTerminal(t *testing.T, d *Daemon) {
	t.Helper()
	for _, st := range d.List() {
		if _, err := d.WaitJob(st.ID); err != nil {
			t.Fatalf("WaitJob(%s): %v", st.ID, err)
		}
	}
}

// TestTenantJobLimit pins the concurrency gate: one tenant's running-job
// count is capped; the cap does not bleed across tenants.
func TestTenantJobLimit(t *testing.T) {
	d := New(Config{Budgets: Budgets{TenantJobs: 1}, Clock: newFakeClock()})
	st, err := d.Submit(JobSpec{Tenant: "alpha", K: 2, Reps: 1})
	if err != nil {
		t.Fatalf("first job: %v", err)
	}
	if _, err := d.Submit(JobSpec{Tenant: "alpha", K: 2, Reps: 1}); err == nil {
		t.Fatalf("second concurrent job admitted past TenantJobs=1")
	} else if code := admissionCode(t, err); code != CodeOverBudget {
		t.Fatalf("job-limit code = %s, want %s", code, CodeOverBudget)
	}
	if _, err := d.Submit(JobSpec{Tenant: "beta", K: 2, Reps: 1}); err != nil {
		t.Fatalf("other tenant blocked by alpha's job limit: %v", err)
	}
	if _, err := d.WaitJob(st.ID); err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if _, err := d.Submit(JobSpec{Tenant: "alpha", K: 2, Reps: 1}); err != nil {
		t.Fatalf("job after release: %v", err)
	}
	waitAllTerminal(t, d)
}

// TestBackpressurePacesOffendingTenantOnly pins the bounded posted-receive
// depth: a tenant whose sequences exceed MaxPostedPerComm completes in
// paced windows — each extra window one daemon_backpressure_waits tick on
// that tenant — while a tenant within the bound records none.
func TestBackpressurePacesOffendingTenantOnly(t *testing.T) {
	const postCap = 4
	d := New(Config{Budgets: Budgets{MaxPostedPerComm: postCap}, Clock: newFakeClock()})

	wide := JobSpec{Tenant: "greedy", Ranks: 2, K: 16, Reps: 3} // 4 windows per sequence
	narrow := JobSpec{Tenant: "modest", Ranks: 2, K: postCap, Reps: 3}
	stW, err := d.Submit(wide)
	if err != nil {
		t.Fatalf("wide job: %v", err)
	}
	stN, err := d.Submit(narrow)
	if err != nil {
		t.Fatalf("narrow job: %v", err)
	}
	fw, err := d.WaitJob(stW.ID)
	if err != nil || fw.State != "done" {
		t.Fatalf("wide job ended %s (%v): %s", fw.State, err, fw.Error)
	}
	fn, err := d.WaitJob(stN.ID)
	if err != nil || fn.State != "done" {
		t.Fatalf("narrow job ended %s (%v): %s", fn.State, err, fn.Error)
	}

	d.mu.Lock()
	greedy := d.tenants["greedy"].sink.Counters.Load(obs.CtrDaemonBackpressure)
	modest := d.tenants["modest"].sink.Counters.Load(obs.CtrDaemonBackpressure)
	d.mu.Unlock()
	// 16/4 = 4 windows per sequence, 3 of them backpressure-born, per rank
	// per repetition.
	want := uint64(wide.Ranks * wide.Reps * (wide.K/postCap - 1))
	if greedy != want {
		t.Errorf("greedy tenant backpressure waits = %d, want %d", greedy, want)
	}
	if modest != 0 {
		t.Errorf("modest tenant backpressure waits = %d, want 0", modest)
	}
	if fw.Messages != wide.Ranks*wide.K*wide.Reps {
		t.Errorf("wide job messages = %d, want %d", fw.Messages, wide.Ranks*wide.K*wide.Reps)
	}
}

// TestDrainCleanCompletesWithoutDeadline pins the happy drain: running
// jobs flush, Drain returns zero forced cancels, and the deadline timer is
// never consulted past arming.
func TestDrainCleanCompletesWithoutDeadline(t *testing.T) {
	clk := newFakeClock()
	d := New(Config{Budgets: Budgets{}, Clock: clk})
	st, err := d.Submit(JobSpec{Tenant: "alpha", K: 4, Reps: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	forced, err := d.Drain()
	if err != nil || forced != 0 {
		t.Fatalf("Drain = (%d, %v), want (0, nil)", forced, err)
	}
	if !d.Draining() {
		t.Fatalf("daemon not draining after Drain")
	}
	if _, err := d.Submit(JobSpec{Tenant: "alpha", K: 2, Reps: 1}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain Submit: got %v, want ErrDraining", err)
	}
	fin, err := d.Status(st.ID)
	if err != nil || fin.State != "done" {
		t.Fatalf("drained job state %s (%v), want done", fin.State, err)
	}
}

// TestDrainDeadlineForceCancels pins the bounded drain: a job that cannot
// flush before the (fake-clock) deadline is force-canceled — its worlds
// close, mpi.ErrClosed unblocks the workload — and Drain itself returns
// within real-time bounds instead of hanging on the straggler.
func TestDrainDeadlineForceCancels(t *testing.T) {
	clk := newFakeClock()
	d := New(Config{Budgets: Budgets{}, Clock: clk})
	// A ring long enough to outlive any test timeout if never canceled.
	st, err := d.Submit(JobSpec{Tenant: "slow", Ranks: 2, K: 64, Reps: MaxReps})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	drained := make(chan int, 1)
	go func() {
		forced, _ := d.Drain()
		drained <- forced
	}()
	// Wait for Drain to arm its deadline, then expire it.
	deadline := time.Now().Add(5 * time.Second)
	for clk.pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Drain never armed its deadline timer")
		}
		time.Sleep(time.Millisecond)
	}
	clk.fire()

	select {
	case forced := <-drained:
		if forced != 1 {
			t.Errorf("Drain forced %d jobs, want 1", forced)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Drain still blocked 10s after its deadline fired")
	}
	fin, err := d.Status(st.ID)
	if err != nil || fin.State != "canceled" {
		t.Fatalf("forced job state %s (%v), want canceled", fin.State, err)
	}
	d.mu.Lock()
	canceled := d.tenants["slow"].sink.Counters.Load(obs.CtrDaemonCanceled)
	d.mu.Unlock()
	if canceled != 1 {
		t.Errorf("tenant canceled counter = %d, want 1", canceled)
	}
}

// TestCancelRunningJob pins explicit cancellation through the public
// surface: the job settles canceled, its charges return, and a successor
// job admits.
func TestCancelRunningJob(t *testing.T) {
	d := New(Config{Budgets: Budgets{TenantJobs: 1}, Clock: newFakeClock()})
	st, err := d.Submit(JobSpec{Tenant: "alpha", Ranks: 2, K: 64, Reps: MaxReps})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := d.Cancel(st.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	fin, err := d.WaitJob(st.ID)
	if err != nil || fin.State != "canceled" {
		t.Fatalf("canceled job state %s (%v), want canceled", fin.State, err)
	}
	if _, err := d.Submit(JobSpec{Tenant: "alpha", K: 2, Reps: 1}); err != nil {
		t.Fatalf("job after cancel released charges: %v", err)
	}
	waitAllTerminal(t, d)
}
