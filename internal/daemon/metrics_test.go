package daemon

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// tenantSeries parses one /metrics document into its tenant-labelled
// counter (_total) and histogram _count samples, keyed by series.
func tenantSeries(doc string) (map[string]uint64, error) {
	out := make(map[string]uint64)
	sc := bufio.NewScanner(strings.NewReader(doc))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || !strings.Contains(line, `tenant="`) {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("malformed sample %q", line)
		}
		series := line[:sp]
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
		}
		if !strings.HasSuffix(name, "_total") && !strings.HasSuffix(name, "_count") {
			continue
		}
		v, err := strconv.ParseUint(line[sp+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sample %q: %w", line, err)
		}
		out[series] = v
	}
	return out, sc.Err()
}

// TestTenantMetricsMonotone scrapes /metrics in a loop while two tenants
// churn offload and host jobs: a finishing job's counts move from its live
// worlds to the tenant sink, and no scrape may see them in both places or
// in neither, so no tenant counter or histogram count ever decreases (a
// series that disappears counts as falling to zero).
func TestTenantMetricsMonotone(t *testing.T) {
	d := New(Config{})
	const jobs = 200 // across both tenants
	stop := make(chan struct{})
	scrapes := 0
	var scrapeErr error
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		prev := map[string]uint64{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := d.WriteMetrics(&sb); err != nil {
				scrapeErr = err
				return
			}
			cur, err := tenantSeries(sb.String())
			if err != nil {
				scrapeErr = err
				return
			}
			for series, was := range prev {
				if now := cur[series]; now < was {
					scrapeErr = fmt.Errorf("scrape %d: %s fell from %d to %d", scrapes, series, was, now)
					return
				}
			}
			prev = cur
			scrapes++
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, tenant := range []string{"mono-a", "mono-b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < jobs/2; i++ {
				engine := "offload"
				if i%2 == 1 {
					engine = "host"
				}
				st, err := d.Submit(JobSpec{Tenant: tenant, Engine: engine, Ranks: 2, K: 4, Reps: 2})
				if err != nil {
					errs <- fmt.Errorf("%s job %d: %w", tenant, i, err)
					return
				}
				if fin, err := d.WaitJob(st.ID); err != nil || fin.State != "done" {
					errs <- fmt.Errorf("%s job %d: state %s, err %v", tenant, i, fin.State, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	scraper.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if scrapeErr != nil {
		t.Fatal(scrapeErr)
	}

	// Every job is over: what the tenants show now lives in their sinks
	// alone, histograms included.
	var sb strings.Builder
	if err := d.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	final, err := tenantSeries(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"mono-a", "mono-b"} {
		for _, series := range []string{"matchd_daemon_completed_total", "matchd_post_depth_count"} {
			key := fmt.Sprintf(`%s{tenant="%s"}`, series, tenant)
			if final[key] == 0 {
				t.Errorf("%s missing after every job finished", key)
			}
		}
		if got := final[fmt.Sprintf(`matchd_daemon_completed_total{tenant="%s"}`, tenant)]; got != jobs/2 {
			t.Errorf("tenant %s: %d jobs completed, want %d", tenant, got, jobs/2)
		}
	}
	t.Logf("%d scrapes during %d jobs", scrapes, jobs)
}
