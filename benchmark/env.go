package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envRecord is written into every result file, so that two result sets are
// only compared knowing what produced them.
type envRecord struct {
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Time       string `json:"time"`
}

func readEnv(seed uint64) envRecord {
	return envRecord{
		Commit:     gitCommit(),
		Seed:       seed,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: benchProcs, // what every workload runs at
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit names the commit of the checkout, or "unknown" where there is
// no repository (the benchmark also runs from plain source trees).
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM) in MiB,
// or 0 where /proc does not offer it.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS returns freed memory to the system and then resets the
// process's resident-set high-water mark to what is resident now, so that
// the next reading of peakRSSMiB belongs to what ran in between. It reports
// whether the kernel allowed the reset (Linux: writing 5 to clear_refs).
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// calibSink keeps the calibration loop's result alive.
var calibSink uint64

// calibrate times a fixed single-threaded spin loop and returns the fastest
// of eleven passes in nanoseconds. It runs before and after a workload: the
// loop's work never changes, so a drift between the two readings means the
// machine's speed changed under the workload (a neighbour, frequency
// scaling), not the program.
func calibrate() float64 {
	best := 0.0
	for pass := 0; pass < 11; pass++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 4_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		if ns := float64(time.Since(start)); pass == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// settleGoroutines waits for goroutines that are already exiting to finish,
// and returns how many more run than want. Teardown signals its goroutines
// and waits for them, but the runtime retires a goroutine a moment after
// its function returns.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return max(n-want, 0)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
