package daemon

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// parseFlags registers the shared flags plus stand-ins for a command's own
// (-k travels in the spec, -dir and -modeled are local-only) and parses args.
func parseFlags(t *testing.T, args ...string) (*Flags, int) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	k := fs.Int("k", 100, "")
	fs.String("dir", "", "")
	fs.Bool("modeled", false, "")
	f := RegisterFlags(fs, 256, "offload", "test")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f, *k
}

// TestFlagsValidate has one row per branch of the validation msgrate and
// replay share — each a usage error whose message names the flag — plus
// the -daemon rejections of everything a matchd job cannot honour.
func TestFlagsValidate(t *testing.T) {
	net := []string{"-transport", "tcp", "-ranks", "2"}
	for _, tc := range []struct {
		args []string
		want string // substring of the error; "" = valid
	}{
		{nil, ""},
		{[]string{"-k", "5", "-bins", "64", "-inflight", "8", "-engine", "raw"}, ""},
		{append(net, "-rank", "1", "-coord", "127.0.0.1:9"), ""},
		{[]string{"-transport", "udp", "-ranks", "2", "-faults", "seed=1,drop=0.1"}, ""},
		{[]string{"-faults", "seed=1,drop=0.1", "-coalesce-bytes", "4096", "-trace-out", "t.json"}, ""},
		{[]string{"-transport", "hybrid", "-ranks", "4", "-sim-hosts", "2"}, ""},

		{[]string{"-transport", "carrier-pigeon"}, "-transport"},
		{[]string{"-transport", ""}, "-transport"},
		{[]string{"-engine", "gpu"}, "-engine"},
		{[]string{"-ranks", "-1"}, "-ranks"},
		{[]string{"-k", "-1"}, "-k -1"},
		{[]string{"-rank", "0"}, "-rank/-coord"},
		{[]string{"-coord", "127.0.0.1:9"}, "-rank/-coord"},
		{append(net, "-rank", "-2"), "-rank -2"},
		{append(net, "-rank", "2", "-coord", "x"), "-rank 2 outside [0,2)"},
		{append(net, "-rank", "1"), "-rank requires -coord"},
		{append(net, "-coord", "x"), "-coord requires -rank"},
		{append(net, "-faults", "seed=1,drop=0.1"), "-faults"},
		{[]string{"-transport", "shm", "-ranks", "2", "-faults", "seed=1"}, "-faults"},
		{[]string{"-sim-hosts", "2"}, "-sim-hosts"},
		{[]string{"-transport", "hybrid", "-sim-hosts", "-1"}, "-sim-hosts -1"},
		{[]string{"-inflight", "0"}, "-inflight 0"},
		{[]string{"-inflight", "9"}, "-inflight 9"},
		{[]string{"-bins", "0"}, "-bins 0"},
		{[]string{"-bins", "3"}, "-bins 3"},
		{[]string{"-bins", "-4"}, "-bins -4"},
		{[]string{"-coalesce-bytes", "-1"}, "-coalesce-bytes"},
		{[]string{"-coalesce-msgs", "-1"}, "-coalesce-msgs"},
		{[]string{"-faults", "drop"}, "-faults"},

		{[]string{"-daemon", "h:1", "-tenant", "t", "-engine", "host", "-transport", "shm", "-ranks", "4", "-bins", "64", "-inflight", "2", "-k", "9"}, ""},
		{[]string{"-daemon", "h:1", "-transport", "udp"}, "-transport udp"},
		{[]string{"-daemon", "h:1", "-coalesce-bytes", "4096"}, "-coalesce-bytes"},
		{[]string{"-daemon", "h:1", "-coalesce-msgs", "8"}, "-coalesce-msgs"},
		{[]string{"-daemon", "h:1", "-faults", "seed=1,drop=0.1"}, "-faults"},
		{[]string{"-daemon", "h:1", "-faults", "drop"}, "-faults"},
		{[]string{"-daemon", "h:1", "-transport", "hybrid", "-sim-hosts", "2"}, "-sim-hosts"},
		{[]string{"-daemon", "h:1", "-trace-out", "t.json"}, "-trace-out"},
		{[]string{"-daemon", "h:1", "-stats-json", "s.json"}, "-stats-json"},
		{[]string{"-daemon", "h:1", "-transport", "tcp", "-rank", "0", "-coord", "x"}, "-coord"},
		{[]string{"-daemon", "h:1", "-dir", "traces"}, "-dir"},
		{[]string{"-daemon", "h:1", "-modeled"}, "-modeled"},
		{[]string{"-daemon", "h:1", "-bins", "3"}, "-bins 3"},
	} {
		f, k := parseFlags(t, tc.args...)
		spec := f.Spec("ring")
		spec.K = k
		err := f.Validate(&spec, "k")
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: unexpected error %v", tc.args, err)
		case tc.want != "" && err == nil:
			t.Errorf("%v: accepted, want an error naming %s", tc.args, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%v: error %q does not name %s", tc.args, err, tc.want)
		}
	}
}

// TestSpecShapeSharedWithValidate pins that the wire validation runs the
// same shape checks, with an unset field meaning "default" there and the
// daemon-only caps on top.
func TestSpecShapeSharedWithValidate(t *testing.T) {
	for _, tc := range []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{Tenant: "a"}, ""},
		{JobSpec{Tenant: "a", Engine: "gpu"}, "engine"},
		{JobSpec{Tenant: "a", Transport: "pigeon"}, "transport"},
		{JobSpec{Tenant: "a", Transport: "udp"}, "lossy"},
		{JobSpec{Tenant: "a", Ranks: -1}, "ranks -1"},
		{JobSpec{Tenant: "a", Ranks: MaxRanks + 1}, "ranks"},
		{JobSpec{Tenant: "a", Reps: -1}, "reps -1"},
		{JobSpec{Tenant: "a", PayloadBytes: -8}, "payload -8"},
		{JobSpec{Tenant: "a", K: MaxK + 1}, "k"},
		{JobSpec{Tenant: "a", Bins: 3}, "bins 3"},
		{JobSpec{Tenant: "a", Bins: -2}, "bins -2"},
		{JobSpec{Tenant: "a", Bins: MaxBins * 2}, "bins"},
		{JobSpec{Tenant: "a", InFlight: 9}, "inflight 9"},
		{JobSpec{Tenant: "a", InFlight: -1}, "inflight -1"},
	} {
		err := tc.spec.Validate()
		if (tc.want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%+v: Validate = %v, want an error naming %q", tc.spec, err, tc.want)
		}
	}
	// The local form of the same checks: udp is a shape the CLIs may run,
	// an unset bins or inflight is not.
	local := JobSpec{Engine: "host", Transport: "udp", Bins: 64, InFlight: 1}
	if err := local.checkShape(); err != nil {
		t.Errorf("local udp spec: %v", err)
	}
	local.Bins = 0
	if err := local.checkShape(); err == nil || !strings.Contains(err.Error(), "bins 0") {
		t.Errorf("local spec with unset bins: %v", err)
	}
}
