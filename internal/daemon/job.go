package daemon

import (
	"repro/internal/mpi"
	"repro/internal/obs"
)

// job is one hosted run: its admitted charges, the worlds carrying it, and
// its result. State transitions are guarded by the owning daemon's mutex;
// done closes when the job reaches a terminal state.
type job struct {
	spec    JobSpec
	tenant  *tenant
	fp      int
	threads int

	state    string // pending | running | done | failed | canceled
	canceled bool
	worlds   []*mpi.World
	done     chan struct{}

	messages   int
	msgPerSec  float64
	matched    uint64
	unexpected uint64
	err        error
}

func (j *job) status() JobStatus {
	st := JobStatus{
		ID: j.spec.ID, Tenant: j.spec.Tenant, State: j.state,
		Workload: j.spec.Workload, Engine: j.spec.Engine, Transport: j.spec.Transport,
		Ranks: j.spec.Ranks, FootprintBytes: j.fp, Threads: j.threads,
		Messages: j.messages, MsgPerSec: j.msgPerSec,
		Matched: j.matched, Unexpected: j.unexpected,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// runJob executes the job to a terminal state. It owns the worlds' lifetime;
// a concurrent Cancel closes them out from under the workload, which then
// surfaces mpi.ErrClosed and is recorded as canceled rather than failed.
func (d *Daemon) runJob(j *job) {
	// Ring pacing: the posted depth is bounded by the daemon's backpressure
	// policy (a bound below 1 is the strictest, 1). A tenant asking for K
	// wider than the bound still completes — each extra window is one
	// backpressure wait, charged as it happens to that tenant's
	// daemon_backpressure_waits and throttling nobody else, because the
	// pacing happens entirely inside the tenant's own worlds.
	loc := Local{
		Window:        max(1, d.Budgets().MaxPostedPerComm),
		OnExtraWindow: func() { j.tenant.sink.CounterInc(obs.CtrDaemonBackpressure) },
	}
	if j.spec.Transport == "hybrid" {
		// Two simulated hosts exercise both the shm and the tcp paths of
		// the locality router within one daemon process.
		loc.SimHosts = 2
	}
	worlds, cleanup, err := buildWorlds(&j.spec, loc)
	defer cleanup()
	if err != nil {
		d.finishJob(j, nil, err)
		return
	}

	d.mu.Lock()
	if j.canceled {
		d.mu.Unlock()
		mpi.CloseWorlds(worlds)
		d.finishJob(j, nil, mpi.ErrClosed)
		return
	}
	j.worlds = worlds
	d.mu.Unlock()

	res, err := runWorlds(&j.spec, loc, worlds)
	d.finishJob(j, res, err)
}

// finishJob records a successful run's result (res, nil otherwise), merges
// the job's observability into the tenant sink, moves j to its terminal
// state, releases the admission charges, and closes done. Merge and state
// change share one critical section, the one WriteMetrics reads under: a
// scrape finds the job's counts in its running worlds or in the tenant
// sink, never in both and never in neither.
func (d *Daemon) finishJob(j *job, res *Result, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	matched, unexpected := mergeSinks(j.tenant, j.worlds)
	if res != nil { // the run succeeded
		j.messages, j.msgPerSec = res.Messages, res.MsgPerSec
		j.matched, j.unexpected = matched, unexpected
	}
	switch {
	case j.canceled:
		j.state = "canceled"
		j.err = nil
		j.tenant.sink.CounterInc(obs.CtrDaemonCanceled)
	case err != nil:
		j.state = "failed"
		j.err = err
		j.tenant.sink.CounterInc(obs.CtrDaemonFailed)
	default:
		j.state = "done"
		j.tenant.sink.CounterInc(obs.CtrDaemonCompleted)
	}
	d.release(j.tenant, j.fp, j.threads)
	j.worlds = nil
	close(j.done)
	d.jobsWG.Done()
}

// mergeSinks folds the worlds' sinks, counters and histograms, into the
// tenant's sink, so tenant metrics survive the worlds' teardown with
// bounded memory.
func mergeSinks(t *tenant, worlds []*mpi.World) (matched, unexpected uint64) {
	for _, w := range worlds {
		for _, nd := range w.ObsSinks() {
			t.sink.Merge(nd.Sink) // folds nd.Sink: the loads below are direct
			matched += nd.Sink.Counters.Load(obs.CtrMatched)
			unexpected += nd.Sink.Counters.Load(obs.CtrUnexpected)
		}
	}
	return matched, unexpected
}
