package main

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/daemon"
	"repro/internal/obs"
)

// jobSpecs maps a job class of the churn mix onto a daemon job. Everything
// else is the daemon's default: a 2-rank ring, K=16, 10 repetitions.
var jobSpecs = [numJobClasses]daemon.JobSpec{
	jobOffload: {Engine: "offload", Transport: "inproc"},
	jobHost:    {Engine: "host", Transport: "inproc"},
}

// jobMessages is what a default ring job must report: ranks × K × reps.
const jobMessages = 2 * 16 * 10

// daemonInstance is an in-process daemon with default budgets.
type daemonInstance struct {
	d    *daemon.Daemon
	jobs [][]jobClass // per tenant, the job classes of one repetition

	mu        sync.Mutex
	classNs   [numJobClasses]int64 // turnaround summed by class
	classJobs [numJobClasses]int64
	rejected  int64
}

func setupDaemon(_ string, in inputs, _ size, _ string, _ obs.Options) (instance, error) {
	return &daemonInstance{d: daemon.New(daemon.Config{}), jobs: in.Jobs}, nil
}

// churn runs each tenant's first n jobs of the repetition's list in a
// closed loop, one tenant per driver goroutine: Submit, then WaitJob, then
// the next. It returns the turnaround of every job.
func (di *daemonInstance) churn(n int, tr *tracer) ([]float64, opResult, error) {
	var res opResult
	errs := make([]error, len(di.jobs))
	turn := make([][]float64, len(di.jobs))
	var wg sync.WaitGroup
	lanes := make([]*lane, len(di.jobs))
	for t := range di.jobs {
		lanes[t] = tr.lane(fmt.Sprintf("tenant%d", t))
	}
	for t, classes := range di.jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ln := lanes[t]
			root := ln.begin(spRep, 0)
			defer ln.end(root)
			var local opResult
			var classNs, classJobs [numJobClasses]int64
			var rejected int64
			for i, class := range classes[:min(n, len(classes))] {
				spec := jobSpecs[class]
				spec.Tenant = fmt.Sprintf("tenant-%d", t)
				local.attempted++
				job := ln.begin(spSeq, uint32(i))
				start := time.Now()
				sp := ln.begin(spSubmit, uint32(i))
				st, err := di.d.Submit(spec)
				ln.end(sp)
				if err == nil {
					sp = ln.begin(spWaitJob, uint32(i))
					st, err = di.d.WaitJob(st.ID)
					ln.end(sp)
				}
				took := time.Since(start)
				ln.end(job)
				var adm *daemon.AdmissionError
				switch {
				case errors.As(err, &adm):
					rejected++
					local.failed++
				case err != nil:
					errs[t] = err
					local.failed++
				case st.State != "done" || st.Messages != jobMessages:
					local.failed++
				}
				classNs[class] += int64(took)
				classJobs[class]++
				turn[t] = append(turn[t], float64(took))
				if errs[t] != nil {
					break
				}
			}
			di.mu.Lock()
			res.add(local)
			di.rejected += rejected
			for c := range classNs {
				di.classNs[c] += classNs[c]
				di.classJobs[c] += classJobs[c]
			}
			di.mu.Unlock()
		}()
	}
	wg.Wait()
	// Nothing may be left running once every tenant has waited for its jobs.
	for _, st := range di.d.List() {
		if !st.Terminal() {
			res.failed++
		}
	}
	return slices.Concat(turn...), res, errors.Join(errs...)
}

func (di *daemonInstance) rep(tr *tracer) (opResult, error) {
	_, res, err := di.churn(len(di.jobs[0]), tr)
	return res, err
}

// latency is the Submit → terminal turnaround of n jobs, churned exactly
// like a repetition.
func (di *daemonInstance) latency(n int, samples []float64) ([]float64, opResult, error) {
	turn, res, err := di.churn((n+len(di.jobs)-1)/len(di.jobs), nil)
	return append(samples, turn...), res, err
}

func (di *daemonInstance) close() error {
	forced, err := di.d.Drain()
	if err == nil && forced > 0 {
		err = fmt.Errorf("drain had to force-cancel %d jobs", forced)
	}
	return err
}

func (di *daemonInstance) layers(m metricSet) {
	for c, name := range [numJobClasses]string{jobOffload: "daemon.turnaround_offload_us", jobHost: "daemon.turnaround_host_us"} {
		if di.classJobs[c] > 0 {
			m[name] = float64(di.classNs[c]) / float64(di.classJobs[c]) / 1e3
		}
	}
	m["daemon.rejected"] = float64(di.rejected)
}
