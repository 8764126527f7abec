// Command matchd is the long-running multi-tenant matching daemon: it
// hosts many jobs — each its own mini-MPI world over the in-process, TCP,
// shared-memory, or hybrid fabric — in one process, admitting them against
// per-tenant DPA-thread and modeled-memory budgets (§IV-E) and bounding
// each job's posted-receive depth so a greedy tenant backpressures only
// itself.
//
// Control runs over a JSON-lines protocol (submit/status/cancel/wait/list;
// msgrate -daemon and replay -daemon are clients); observability over
// HTTP: /metrics (OpenMetrics, per-tenant labels, validated by obscheck
// -metrics), /healthz, and /tenants. SIGTERM/SIGINT drains gracefully —
// stop admitting, let jobs flush, force-cancel past -drain-timeout — and
// exits 0; SIGHUP reloads -config.
//
// Usage:
//
//	matchd -control 127.0.0.1:7600 -http 127.0.0.1:7601
//	matchd -config budgets.json
//	matchd -tenant-threads 64 -tenant-bytes 16MiB -post-depth 128
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/daemon"
)

func main() {
	var (
		controlAddr   = flag.String("control", "127.0.0.1:7600", "control-protocol listen address (port 0 picks one; printed on start)")
		httpAddr      = flag.String("http", "127.0.0.1:7601", "HTTP listen address for /metrics, /healthz, /tenants")
		configPath    = flag.String("config", "", "budgets config file (JSON); reloaded on SIGHUP")
		maxTenants    = flag.Int("max-tenants", 0, "tenant limit (0 = default)")
		tenantThreads = flag.Int("tenant-threads", 0, "per-tenant DPA thread budget (0 = default)")
		tenantBytes   = flag.String("tenant-bytes", "", "per-tenant modeled-memory budget, e.g. 16MiB (empty = default)")
		tenantJobs    = flag.Int("tenant-jobs", 0, "per-tenant concurrent job limit (0 = default)")
		postDepth     = flag.Int("post-depth", 0, "bounded posted-receive depth per communicator (0 = default)")
		drainTimeout  = flag.Duration("drain-timeout", 0, "drain deadline before running jobs are force-canceled (0 = default)")
	)
	flag.Parse()

	budgets := daemon.Budgets{
		MaxTenants:       *maxTenants,
		TenantThreads:    *tenantThreads,
		TenantJobs:       *tenantJobs,
		MaxPostedPerComm: *postDepth,
		DrainTimeout:     *drainTimeout,
	}
	if *tenantBytes != "" {
		n, err := parseBytes(*tenantBytes)
		if err != nil {
			fatal(err)
		}
		budgets.TenantBytes = int(n)
	}
	if *configPath != "" {
		loaded, err := loadConfig(*configPath)
		if err != nil {
			fatal(err)
		}
		budgets = merge(budgets, loaded)
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "matchd: %s %s\n",
			time.Now().Format("15:04:05.000"), fmt.Sprintf(format, args...))
	}
	d := daemon.New(daemon.Config{Budgets: budgets, Logf: logf})

	controlLn, err := net.Listen("tcp", *controlAddr)
	if err != nil {
		fatal(err)
	}
	httpLn, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		fatal(err)
	}
	// The smoke test and scripts parse these two lines; keep them stable.
	fmt.Printf("matchd control listening on %s\n", controlLn.Addr())
	fmt.Printf("matchd http listening on %s\n", httpLn.Addr())

	go d.ServeControl(controlLn)
	srv := &http.Server{Handler: d.Handler()}
	go srv.Serve(httpLn)

	sigs := make(chan os.Signal, 4)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)
	for sig := range sigs {
		if sig == syscall.SIGHUP {
			if *configPath == "" {
				logf("SIGHUP with no -config; keeping current budgets")
				continue
			}
			loaded, err := loadConfig(*configPath)
			if err != nil {
				logf("reload failed, keeping current budgets: %v", err)
				continue
			}
			d.Reload(merge(daemon.Budgets{}, loaded))
			continue
		}
		logf("%v: draining", sig)
		forced, _ := d.Drain()
		if forced > 0 {
			logf("drain forced %d job(s)", forced)
		}
		controlLn.Close()
		httpLn.Close()
		d.CloseConns()
		srv.Close()
		logf("drained, exiting")
		return // exit 0: a drained shutdown is a clean shutdown
	}
}

// loadConfig reads a Budgets JSON document.
func loadConfig(path string) (daemon.Budgets, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return daemon.Budgets{}, err
	}
	var b daemon.Budgets
	if err := json.Unmarshal(data, &b); err != nil {
		return daemon.Budgets{}, fmt.Errorf("%s: %v", path, err)
	}
	return b, nil
}

// merge overlays nonzero fields of over onto base (config file wins over
// flag defaults at startup).
func merge(base, over daemon.Budgets) daemon.Budgets {
	if over.MaxTenants != 0 {
		base.MaxTenants = over.MaxTenants
	}
	if over.TenantThreads != 0 {
		base.TenantThreads = over.TenantThreads
	}
	if over.TenantBytes != 0 {
		base.TenantBytes = over.TenantBytes
	}
	if over.TenantJobs != 0 {
		base.TenantJobs = over.TenantJobs
	}
	if over.MaxPostedPerComm != 0 {
		base.MaxPostedPerComm = over.MaxPostedPerComm
	}
	if over.DrainTimeout != 0 {
		base.DrainTimeout = over.DrainTimeout
	}
	if over.DrainTimeoutSec != 0 {
		base.DrainTimeoutSec = over.DrainTimeoutSec
		base.DrainTimeout = 0 // let fill derive it from the seconds field
	}
	return base
}

// parseBytes accepts plain byte counts and binary-suffixed sizes
// (K/KiB/KB = 1024, M/MiB/MB = 1024², G/GiB/GB = 1024³).
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	upper := strings.ToUpper(s)
	for _, suf := range []struct {
		name string
		mul  int64
	}{
		{"GIB", 1 << 30}, {"GB", 1 << 30}, {"G", 1 << 30},
		{"MIB", 1 << 20}, {"MB", 1 << 20}, {"M", 1 << 20},
		{"KIB", 1 << 10}, {"KB", 1 << 10}, {"K", 1 << 10},
	} {
		if strings.HasSuffix(upper, suf.name) {
			mult = suf.mul
			s = s[:len(s)-len(suf.name)]
			break
		}
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad size %q (want e.g. 512KiB, 2MiB, or bytes)", s)
	}
	return v * mult, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "matchd: %v\n", err)
	os.Exit(1)
}
