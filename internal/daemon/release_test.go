package daemon

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// defaultRingMessages is what a ring job with the default shape reports:
// 2 ranks × K 16 × 10 repetitions.
const defaultRingMessages = 2 * 16 * 10

// TestReleaseAfterCancel cancels offload and host ring jobs mid-run while
// another tenant's jobs run to completion beside them. Every finished job
// hands its worlds' bounce slabs and matching tables to the next: a
// canceled workload that still touched them after the release would race
// the job that drew them (the race detector's pool edges order only the
// release), and a completed job's ring would see a foreign payload.
func TestReleaseAfterCancel(t *testing.T) {
	d := New(Config{})
	engines := []string{"offload", "host"}
	const cancels = 12
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < cancels; i++ {
			st, err := d.Submit(JobSpec{Tenant: "canceled", Engine: engines[i%2], Reps: MaxReps})
			if err != nil {
				errs <- fmt.Errorf("submit %d: %w", i, err)
				return
			}
			time.Sleep(time.Duration(i%3) * time.Millisecond)
			if _, err := d.Cancel(st.ID); err != nil {
				errs <- fmt.Errorf("cancel %s: %w", st.ID, err)
				return
			}
			if fin, err := d.WaitJob(st.ID); err != nil || fin.State != "canceled" {
				errs <- fmt.Errorf("canceled job %s: state %s, %v", st.ID, fin.State, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 3*cancels; i++ {
			st, err := d.Submit(JobSpec{Tenant: "steady", Engine: engines[i%2]})
			if err == nil {
				st, err = d.WaitJob(st.ID)
			}
			if err != nil || st.State != "done" || st.Messages != defaultRingMessages {
				errs <- fmt.Errorf("job %d: state %s, %d messages, %v; want done, %d", i, st.State, st.Messages, err, defaultRingMessages)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if forced, err := d.Drain(); err != nil || forced != 0 {
		t.Fatalf("Drain = (%d, %v), want (0, nil)", forced, err)
	}
}

// TestDaemonRetainsOnlyJobRecords runs two tenants' jobs back to back and
// then collects once: what stays live is the daemon's record of each job,
// not its worlds. A world that outlived its first collection (a pool
// embedded in it by value pins it until the second) would show here as
// hundreds of kilobytes.
func TestDaemonRetainsOnlyJobRecords(t *testing.T) {
	const tenants, jobs = 2, 400
	d := New(Config{})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	errs := make(chan error, tenants)
	var wg sync.WaitGroup
	for k := 0; k < tenants; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < jobs; i++ {
				st, err := d.Submit(JobSpec{Tenant: fmt.Sprintf("t%d", k), Engine: []string{"offload", "host"}[i%2]})
				if err == nil {
					st, err = d.WaitJob(st.ID)
				}
				if err != nil || st.State != "done" {
					errs <- fmt.Errorf("tenant %d job %d: state %s, %v", k, i, st.State, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("live heap grew %d B over %d jobs: %d B a job", grew, tenants*jobs, grew/(tenants*jobs))
	if grew > tenants*jobs<<10 {
		t.Fatalf("live heap grew %d B over %d jobs, more than 1 KiB a job", grew, tenants*jobs)
	}
	runtime.KeepAlive(d)
}
