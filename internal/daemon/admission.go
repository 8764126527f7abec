package daemon

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dpa"
	"repro/internal/obs"
)

// Clock abstracts time for the daemon so drain-deadline behavior is
// testable with a fake clock; the real daemon uses realClock.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Budgets is the admission and backpressure policy, hot-reloadable via
// Reload (SIGHUP in cmd/matchd). Zero fields take defaults.
type Budgets struct {
	// MaxTenants bounds distinct tenants (default 16).
	MaxTenants int `json:"max_tenants,omitempty"`
	// TenantThreads is each tenant's DPA thread budget across its running
	// jobs: an offload job charges Ranks × dpa.ThreadsFor its matcher
	// (default dpa.MaxThreads, one BF3's worth per tenant; host/raw jobs
	// charge 0).
	TenantThreads int `json:"tenant_threads,omitempty"`
	// TenantBytes is each tenant's modeled-memory budget (§IV-E /
	// bench.ModelFootprintBytes summed over a job's ranks; default 64 MiB).
	TenantBytes int `json:"tenant_bytes,omitempty"`
	// TenantJobs bounds one tenant's concurrently running jobs (default 8).
	TenantJobs int `json:"tenant_jobs,omitempty"`
	// MaxPostedPerComm bounds how many receives one job keeps posted per
	// communicator (default 256). A ring sequence wider than this runs in
	// paced windows — backpressure that throttles only the offending
	// tenant — counted in daemon_backpressure_waits.
	MaxPostedPerComm int `json:"max_posted_per_comm,omitempty"`
	// DrainTimeout bounds Drain: jobs still running past it are
	// force-canceled by closing their worlds (default 30s).
	DrainTimeout time.Duration `json:"-"`
	// DrainTimeoutSec is the config-file form of DrainTimeout.
	DrainTimeoutSec int `json:"drain_timeout_sec,omitempty"`
}

func (b *Budgets) fill() {
	if b.MaxTenants == 0 {
		b.MaxTenants = 16
	}
	if b.TenantThreads == 0 {
		b.TenantThreads = dpa.MaxThreads
	}
	if b.TenantBytes == 0 {
		b.TenantBytes = 64 << 20
	}
	if b.TenantJobs == 0 {
		b.TenantJobs = 8
	}
	if b.MaxPostedPerComm == 0 {
		b.MaxPostedPerComm = 256
	}
	if b.DrainTimeout == 0 {
		if b.DrainTimeoutSec > 0 {
			b.DrainTimeout = time.Duration(b.DrainTimeoutSec) * time.Second
		} else {
			b.DrainTimeout = 30 * time.Second
		}
	}
}

// specMatcher is the matcher a normalized spec runs: base (zero: the
// paper's, which every hosted job runs) with the spec's tables and depth.
func specMatcher(s *JobSpec, base core.Config) core.Config {
	if base == (core.Config{}) {
		base = bench.PaperMatcherConfig()
	}
	base.Bins, base.MaxReceives, base.InFlightBlocks = s.Bins, s.MaxReceives, s.InFlight
	return base
}

// specThreads is the DPA thread charge of one normalized spec: every rank
// of an offload job gets its own accelerator, of the threads its world
// derives from the matcher (mpi.Options).
func specThreads(s *JobSpec) int {
	if s.Engine != "offload" {
		return 0
	}
	return s.Ranks * dpa.ThreadsFor(specMatcher(s, core.Config{}))
}

// specFootprint is the modeled resident bytes of one normalized spec,
// summed over its ranks. Offload jobs pin the full §IV-E model (index
// bins, descriptor table, block-slot envelopes); host and raw engines keep
// only descriptor state, so they are charged the descriptor table alone.
func specFootprint(s *JobSpec) int {
	if s.Engine == "offload" {
		return s.Ranks * bench.ModelFootprintBytes(specMatcher(s, core.Config{}))
	}
	return s.Ranks * s.MaxReceives * core.DescriptorModelBytes
}

// tenant is one tenant's admission state and metric domain. Its sink
// carries the daemon lifecycle counters plus the merged matching counters
// of every finished job, so per-tenant /metrics stay bounded no matter how
// many jobs churn through.
type tenant struct {
	name        string
	sink        *obs.Sink
	threadsUsed int
	bytesUsed   int
	active      int
}

// AdmissionError is a typed rejection; Code is one of the protocol codes.
type AdmissionError struct {
	Code   string
	Reason string
}

func (e *AdmissionError) Error() string { return e.Reason }

func overBudget(format string, args ...any) error {
	return &AdmissionError{Code: CodeOverBudget, Reason: fmt.Sprintf(format, args...)}
}

// refusal types a validation failure: a budget refusal keeps its code,
// anything else is a bad request.
func refusal(err error) error {
	var adm *AdmissionError
	if errors.As(err, &adm) {
		return err
	}
	return &AdmissionError{Code: CodeBadRequest, Reason: err.Error()}
}

// admit charges spec against its tenant's budgets, creating the tenant on
// first contact. Caller holds d.mu. On rejection nothing is charged and
// the typed error names the exhausted budget, or says that the job asks
// more than a whole budget and so will never be admitted.
func (d *Daemon) admit(spec *JobSpec, fp, threads int) (*tenant, error) {
	b := d.budgets
	switch {
	case threads > b.TenantThreads:
		return nil, overBudget("job asks %d DPA threads, more than a tenant's whole thread budget of %d: it can never be admitted",
			threads, b.TenantThreads)
	case fp > b.TenantBytes:
		return nil, overBudget("job's %d modeled bytes exceed a tenant's whole memory budget of %d: it can never be admitted",
			fp, b.TenantBytes)
	}
	t := d.tenants[spec.Tenant]
	if t == nil {
		if len(d.tenants) >= d.budgets.MaxTenants {
			return nil, overBudget("tenant limit reached (%d tenants)", d.budgets.MaxTenants)
		}
		t = &tenant{name: spec.Tenant, sink: obs.New(obs.Options{})}
		d.tenants[spec.Tenant] = t
	}
	switch {
	case t.active >= b.TenantJobs:
		return nil, overBudget("tenant %s already runs %d jobs (limit %d)", t.name, t.active, b.TenantJobs)
	case threads > 0 && t.threadsUsed+threads > b.TenantThreads:
		return nil, overBudget("tenant %s DPA thread budget exhausted: %d in use + %d asked > %d",
			t.name, t.threadsUsed, threads, b.TenantThreads)
	case t.bytesUsed+fp > b.TenantBytes:
		return nil, overBudget("tenant %s memory budget exhausted: %d bytes in use + %d modeled > %d",
			t.name, t.bytesUsed, fp, b.TenantBytes)
	}
	t.threadsUsed += threads
	t.bytesUsed += fp
	t.active++
	return t, nil
}

// release returns a finished job's charges. Caller holds d.mu.
func (d *Daemon) release(t *tenant, fp, threads int) {
	t.threadsUsed -= threads
	t.bytesUsed -= fp
	t.active--
}
