package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"repro/internal/obs"
)

// Handler returns the daemon's HTTP observability surface:
//
//	/healthz  — 200 "ok", or 503 "draining" once Drain has begun
//	/metrics  — OpenMetrics text: per-tenant counters and histograms
//	            (label tenant=...), daemon gauges, terminated by # EOF
//	/tenants  — JSON: each tenant's budget usage and its jobs
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", d.serveHealthz)
	mux.HandleFunc("/metrics", d.serveMetrics)
	mux.HandleFunc("/tenants", d.serveTenants)
	return mux
}

func (d *Daemon) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if d.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ok\n")
}

func (d *Daemon) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := d.WriteMetrics(w); err != nil {
		d.logf("metrics write: %v", err)
	}
}

// WriteMetrics renders the full OpenMetrics document: one label-less group
// for the daemon's own sink, one group per tenant (tenant sink plus the
// live sinks of its running jobs' worlds, so in-flight histograms are
// visible), daemon gauges, and the # EOF terminator. Each tenant's sinks
// are summed under d.mu, the lock finishJob moves a job's counts from its
// worlds to the tenant sink under, so no tenant series ever goes backwards.
func (d *Daemon) WriteMetrics(w io.Writer) error {
	d.mu.Lock()
	names := make([]string, 0, len(d.tenants))
	for name := range d.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	groups := []obs.LabeledSinks{{Sinks: []*obs.Sink{d.sink}}}
	running, jobsTotal := 0, len(d.jobs)
	for _, name := range names {
		t := d.tenants[name]
		sum := obs.New(obs.Options{})
		sum.Merge(t.sink)
		for _, id := range d.order {
			j := d.jobs[id]
			if j.tenant != t || j.state != "running" {
				continue
			}
			for _, w := range j.worlds {
				for _, nd := range w.ObsSinks() {
					sum.Merge(nd.Sink)
				}
			}
		}
		groups = append(groups, obs.LabeledSinks{
			Labels: []obs.Label{{Name: "tenant", Value: name}},
			Sinks:  []*obs.Sink{sum},
		})
	}
	for _, j := range d.jobs {
		if j.state == "running" {
			running++
		}
	}
	tenantsActive := len(d.tenants)
	draining := 0.0
	if d.draining {
		draining = 1
	}
	d.mu.Unlock()

	if err := obs.WriteProm(w, "matchd", groups); err != nil {
		return err
	}
	gauges := []struct {
		name  string
		value float64
	}{
		{"matchd_up", 1},
		{"matchd_draining", draining},
		{"matchd_tenants_active", float64(tenantsActive)},
		{"matchd_jobs_running", float64(running)},
		{"matchd_jobs_known", float64(jobsTotal)},
	}
	for _, g := range gauges {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", g.name, g.name, g.value); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

// TenantInfo is one tenant's /tenants entry.
type TenantInfo struct {
	Name        string      `json:"name"`
	ActiveJobs  int         `json:"active_jobs"`
	ThreadsUsed int         `json:"threads_used"`
	BytesUsed   int         `json:"bytes_used"`
	Jobs        []JobStatus `json:"jobs"`
}

// TenantsDoc is the /tenants JSON document.
type TenantsDoc struct {
	Draining bool         `json:"draining"`
	Budgets  Budgets      `json:"budgets"`
	Tenants  []TenantInfo `json:"tenants"`
}

// Tenants assembles the /tenants document.
func (d *Daemon) Tenants() TenantsDoc {
	d.mu.Lock()
	defer d.mu.Unlock()
	doc := TenantsDoc{Draining: d.draining, Budgets: d.budgets}
	names := make([]string, 0, len(d.tenants))
	for name := range d.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := d.tenants[name]
		info := TenantInfo{Name: name, ActiveJobs: t.active,
			ThreadsUsed: t.threadsUsed, BytesUsed: t.bytesUsed}
		for _, id := range d.order {
			if j := d.jobs[id]; j.tenant == t {
				info.Jobs = append(info.Jobs, j.status())
			}
		}
		doc.Tenants = append(doc.Tenants, info)
	}
	return doc
}

func (d *Daemon) serveTenants(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d.Tenants()); err != nil {
		d.logf("tenants write: %v", err)
	}
}
