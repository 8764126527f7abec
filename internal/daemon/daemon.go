package daemon

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/tracegen"
)

// ErrDraining rejects submissions once Drain has begun.
var ErrDraining = errors.New("daemon is draining")

// Config configures a Daemon.
type Config struct {
	// Budgets is the initial admission policy (zero fields defaulted).
	Budgets Budgets
	// Clock defaults to the real clock; tests inject a fake one to pin
	// drain-deadline behavior.
	Clock Clock
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

// Daemon hosts many tenants' matching jobs in one process. All state is
// guarded by mu; job workloads run on their own goroutines and report back
// through finishJob.
type Daemon struct {
	clock Clock
	logf  func(string, ...any)

	mu       sync.Mutex
	budgets  Budgets
	tenants  map[string]*tenant
	jobs     map[string]*job
	order    []string // job IDs in submission order
	seq      int
	draining bool
	conns    map[net.Conn]struct{}

	// sink carries daemon-global counters (bad requests, reloads);
	// per-tenant lifecycle counters live on each tenant's sink.
	sink *obs.Sink

	// jobsWG counts jobs admitted but not yet terminal; Drain waits on it.
	jobsWG sync.WaitGroup
}

// New returns a daemon ready to Submit into or serve.
func New(cfg Config) *Daemon {
	cfg.Budgets.fill()
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Daemon{
		clock:   cfg.Clock,
		logf:    cfg.Logf,
		budgets: cfg.Budgets,
		tenants: make(map[string]*tenant),
		jobs:    make(map[string]*job),
		conns:   make(map[net.Conn]struct{}),
		sink:    obs.New(obs.Options{}),
	}
}

// Submit validates, admits, and starts one job, returning its initial
// status. Rejections are typed: *AdmissionError (over budget, duplicate)
// or ErrDraining.
func (d *Daemon) Submit(spec JobSpec) (JobStatus, error) {
	if err := spec.Validate(); err != nil {
		d.sink.CounterInc(obs.CtrDaemonBadRequests)
		return JobStatus{}, refusal(err)
	}
	// Replay jobs with ranks left unset take the trace's rank count —
	// resolved before admission so the budget charge reflects the worlds
	// that will actually be built.
	deriveRanks := spec.Workload == "replay" && spec.Ranks == 0
	spec.Normalize()
	if deriveRanks {
		app, ok := tracegen.ByName(spec.App)
		if !ok {
			d.sink.CounterInc(obs.CtrDaemonBadRequests)
			return JobStatus{}, &AdmissionError{Code: CodeBadRequest,
				Reason: fmt.Sprintf("unknown application %q", spec.App)}
		}
		n := app.Generate(tracegen.Config{Scale: spec.Scale}).NumRanks()
		if n < 1 || n > MaxRanks {
			d.sink.CounterInc(obs.CtrDaemonBadRequests)
			return JobStatus{}, &AdmissionError{Code: CodeBadRequest,
				Reason: fmt.Sprintf("trace %s at scale %d needs %d ranks (limit %d)", spec.App, spec.Scale, n, MaxRanks)}
		}
		spec.Ranks = n
	}
	fp, threads := specFootprint(&spec), specThreads(&spec)

	d.mu.Lock()
	// The submission itself is a tenant-visible event even when rejected.
	if t := d.tenants[spec.Tenant]; t != nil {
		t.sink.CounterInc(obs.CtrDaemonSubmitted)
	} else {
		d.sink.CounterInc(obs.CtrDaemonSubmitted)
	}
	if d.draining {
		d.mu.Unlock()
		return JobStatus{}, ErrDraining
	}
	if spec.ID == "" {
		d.seq++
		spec.ID = fmt.Sprintf("job-%d", d.seq)
	}
	if _, dup := d.jobs[spec.ID]; dup {
		d.mu.Unlock()
		return JobStatus{}, &AdmissionError{Code: CodeDuplicate, Reason: fmt.Sprintf("job id %q already exists", spec.ID)}
	}
	t, err := d.admit(&spec, fp, threads)
	if err != nil {
		if t != nil {
			t.sink.CounterInc(obs.CtrDaemonRejected)
		} else {
			d.sink.CounterInc(obs.CtrDaemonRejected)
		}
		d.mu.Unlock()
		return JobStatus{}, err
	}
	t.sink.CounterInc(obs.CtrDaemonAdmitted)
	j := &job{spec: spec, tenant: t, fp: fp, threads: threads,
		state: "running", done: make(chan struct{})}
	d.jobs[spec.ID] = j
	d.order = append(d.order, spec.ID)
	d.jobsWG.Add(1)
	st := j.status()
	d.mu.Unlock()

	d.logf("admitted %s for tenant %s (%s/%s/%s, %d ranks, %d threads, %d bytes)",
		spec.ID, spec.Tenant, spec.Workload, spec.Engine, spec.Transport, spec.Ranks, threads, fp)
	go d.runJob(j)
	return st, nil
}

// Status returns one job's current state.
func (d *Daemon) Status(id string) (JobStatus, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j := d.jobs[id]
	if j == nil {
		return JobStatus{}, &AdmissionError{Code: CodeUnknownJob, Reason: fmt.Sprintf("no job %q", id)}
	}
	return j.status(), nil
}

// Cancel closes a running job's worlds, unblocking its workload with
// mpi.ErrClosed; the job settles as canceled. Canceling a terminal job is
// a no-op returning its final status.
func (d *Daemon) Cancel(id string) (JobStatus, error) {
	d.mu.Lock()
	j := d.jobs[id]
	if j == nil {
		d.mu.Unlock()
		return JobStatus{}, &AdmissionError{Code: CodeUnknownJob, Reason: fmt.Sprintf("no job %q", id)}
	}
	if j.state == "running" || j.state == "pending" {
		j.canceled = true
	}
	worldsToClose := j.worlds
	st := j.status()
	d.mu.Unlock()
	mpi.CloseWorlds(worldsToClose)
	return st, nil
}

// WaitJob blocks until the job reaches a terminal state.
func (d *Daemon) WaitJob(id string) (JobStatus, error) { return d.waitJob(id, 0, nil) }

// waitJob returns the job's status once it is terminal, once timeout has
// passed (0: never), or once gone closes, whichever comes first. Drain
// releases every waiter because it settles every job.
func (d *Daemon) waitJob(id string, timeout time.Duration, gone <-chan struct{}) (JobStatus, error) {
	d.mu.Lock()
	j := d.jobs[id]
	d.mu.Unlock()
	if j == nil {
		return JobStatus{}, &AdmissionError{Code: CodeUnknownJob, Reason: fmt.Sprintf("no job %q", id)}
	}
	var expired <-chan time.Time
	if timeout > 0 {
		expired = d.clock.After(timeout)
	}
	select {
	case <-j.done:
	case <-expired:
	case <-gone:
	}
	return d.Status(id)
}

// List returns every job's status in submission order.
func (d *Daemon) List() []JobStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]JobStatus, 0, len(d.order))
	for _, id := range d.order {
		out = append(out, d.jobs[id].status())
	}
	return out
}

// Reload hot-swaps the admission policy (SIGHUP in cmd/matchd). Running
// jobs keep their original charges; only future admissions and ring
// pacing see the new budgets.
func (d *Daemon) Reload(b Budgets) {
	b.fill()
	d.mu.Lock()
	d.budgets = b
	d.mu.Unlock()
	d.sink.CounterInc(obs.CtrDaemonReloads)
	d.logf("reloaded budgets: %d tenants max, %d threads, %d bytes, %d jobs, %d posted, drain %v",
		b.MaxTenants, b.TenantThreads, b.TenantBytes, b.TenantJobs, b.MaxPostedPerComm, b.DrainTimeout)
}

// Budgets returns the active policy.
func (d *Daemon) Budgets() Budgets {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.budgets
}

// Draining reports whether Drain has begun.
func (d *Daemon) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// Drain stops admissions and waits for running jobs to flush. Jobs still
// running at the budgets' DrainTimeout are force-canceled (their worlds
// close, every blocked Wait returns mpi.ErrClosed), and Drain then waits
// for them to settle — so it always terminates, and reports how many jobs
// needed force. Idempotent: later calls just wait again.
func (d *Daemon) Drain() (forced int, err error) {
	d.mu.Lock()
	d.draining = true
	timeout := d.budgets.DrainTimeout
	d.mu.Unlock()

	settled := make(chan struct{})
	go func() {
		d.jobsWG.Wait()
		close(settled)
	}()
	select {
	case <-settled:
		return 0, nil
	case <-d.clock.After(timeout):
	}

	// Deadline passed: force-cancel whatever still runs.
	d.mu.Lock()
	var stuck []string
	var closers []func()
	for id, j := range d.jobs {
		if j.state == "running" {
			j.canceled = true
			stuck = append(stuck, id)
			w := j.worlds
			closers = append(closers, func() { mpi.CloseWorlds(w) })
		}
	}
	d.mu.Unlock()
	sort.Strings(stuck)
	for _, c := range closers {
		c()
	}
	if len(stuck) > 0 {
		d.logf("drain deadline %v passed; force-canceled %v", timeout, stuck)
	}
	<-settled
	return len(stuck), nil
}

// ServeControl serves the JSON-lines control protocol on ln until the
// listener closes. Each connection gets its own goroutine; CloseConns
// tears live connections down for shutdown.
func (d *Daemon) ServeControl(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		d.mu.Lock()
		d.conns[conn] = struct{}{}
		d.mu.Unlock()
		go d.serveConn(conn)
	}
}

// CloseConns closes every live control connection.
func (d *Daemon) CloseConns() {
	d.mu.Lock()
	conns := make([]net.Conn, 0, len(d.conns))
	for c := range d.conns {
		conns = append(conns, c)
	}
	d.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (d *Daemon) serveConn(conn net.Conn) {
	// The connection is read beside the request loop, not by it, so that a
	// request blocked in a wait is released when the peer goes away: gone
	// closes once nothing more can be read.
	lines := make(chan []byte)
	gone := make(chan struct{})
	quit := make(chan struct{})
	go func() {
		defer close(gone)
		sc := bufio.NewScanner(conn)
		sc.Buffer(make([]byte, 64<<10), MaxLineBytes)
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			line := append([]byte(nil), sc.Bytes()...) // Scan reuses its buffer
			select {
			case lines <- line:
			case <-quit:
				return
			}
		}
	}()
	defer func() {
		close(quit)
		conn.Close()
		<-gone
		d.mu.Lock()
		delete(d.conns, conn)
		d.mu.Unlock()
	}()
	enc := json.NewEncoder(conn)
	for {
		select {
		case line := <-lines:
			if err := enc.Encode(d.handle(line, gone)); err != nil {
				return
			}
		case <-gone:
			return
		}
	}
}

// handle dispatches one decoded request line to a response. A wait blocks
// until its job settles, its timeout passes or gone closes.
func (d *Daemon) handle(line []byte, gone <-chan struct{}) *Response {
	req, err := DecodeRequest(line)
	if err != nil {
		d.sink.CounterInc(obs.CtrDaemonBadRequests)
		return errResponse(refusal(err))
	}
	switch req.Op {
	case OpPing:
		return &Response{OK: true}
	case OpList:
		return &Response{OK: true, Jobs: d.List()}
	case OpSubmit:
		st, err := d.Submit(*req.Job)
		if err != nil {
			return errResponse(err)
		}
		return &Response{OK: true, Job: &st}
	case OpStatus:
		st, err := d.Status(req.ID)
		if err != nil {
			return errResponse(err)
		}
		return &Response{OK: true, Job: &st}
	case OpCancel:
		st, err := d.Cancel(req.ID)
		if err != nil {
			return errResponse(err)
		}
		return &Response{OK: true, Job: &st}
	case OpWait:
		st, err := d.waitJob(req.ID, time.Duration(req.TimeoutMS)*time.Millisecond, gone)
		if err != nil {
			return errResponse(err)
		}
		return &Response{OK: true, Job: &st}
	}
	return &Response{Code: CodeBadRequest, Error: "unhandled op"}
}

func errResponse(err error) *Response {
	var adm *AdmissionError
	if errors.As(err, &adm) {
		return &Response{Code: adm.Code, Error: adm.Reason}
	}
	if errors.Is(err, ErrDraining) {
		return &Response{Code: CodeDraining, Error: err.Error()}
	}
	return &Response{Code: CodeInternal, Error: err.Error()}
}
