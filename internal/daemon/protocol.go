// Package daemon hosts many matching jobs — each its own mpi world over
// the in-process, TCP, shared-memory, or hybrid fabric — inside one
// long-running multi-tenant process (cmd/matchd). Tenants are admitted
// against per-tenant DPA-thread and modeled-memory budgets (§IV-E), their
// posted-receive depth is bounded per communicator (backpressure throttles
// only the offending tenant), and the whole daemon drains gracefully on
// request: stop admitting, let running jobs flush, force-cancel past the
// deadline by closing their worlds (mpi.ErrClosed unblocks every waiter).
//
// Control runs over a JSON-lines protocol (one request, one reply per
// line); observability over HTTP: /metrics (OpenMetrics with per-tenant
// labels), /healthz, and /tenants (JSON). DESIGN.md §15 describes the
// architecture.
package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/dpa"
	"repro/internal/mpi"
)

// Wire limits. A control peer is untrusted enough to fuzz: every bound
// here turns a hostile request into a typed error instead of an
// allocation, a panic, or an unbounded world.
const (
	// MaxLineBytes bounds one request line (the scanner drops the
	// connection past it).
	MaxLineBytes = 1 << 20
	// MaxNameLen bounds tenant names and job IDs.
	MaxNameLen = 128
	// MaxRanks bounds one job's world size.
	MaxRanks = 64
	// MaxK and MaxReps bound the ring workload size.
	MaxK    = 1 << 16
	MaxReps = 1 << 20
	// MaxPayloadBytes bounds the ring payload.
	MaxPayloadBytes = 1 << 16
	// MaxBins and MaxReceivesCap bound the matcher tables a job may ask
	// for (hostile budgets are rejected before footprint math can
	// overflow).
	MaxBins        = 1 << 20
	MaxReceivesCap = 1 << 20
	// MaxScale bounds the replay generator scale percentage.
	MaxScale = 100
	// MaxWaitMillis bounds a wait request's timeout (one day).
	MaxWaitMillis = 24 * 60 * 60 * 1000
)

// Request ops.
const (
	OpSubmit = "submit"
	OpStatus = "status"
	OpCancel = "cancel"
	OpList   = "list"
	OpPing   = "ping"
	// OpWait replies with the job's status once it is terminal, or once
	// timeout_ms has passed (0: no timeout), whichever comes first.
	OpWait = "wait"
)

// Typed error codes carried in Response.Code.
const (
	CodeBadRequest = "bad-request"
	CodeOverBudget = "over-budget"
	CodeDraining   = "draining"
	CodeUnknownJob = "unknown-job"
	CodeDuplicate  = "duplicate-job"
	CodeInternal   = "internal"
)

// Request is one control-protocol message (one JSON object per line).
type Request struct {
	Op  string   `json:"op"`
	Job *JobSpec `json:"job,omitempty"` // submit
	ID  string   `json:"id,omitempty"`  // status, cancel, wait
	// TimeoutMS bounds a wait in milliseconds; 0 waits until the job is
	// terminal.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// JobSpec describes one job to host. Zero fields take defaults
// (Normalize); every bound is validated before admission.
type JobSpec struct {
	// ID names the job; empty asks the daemon to assign one. Tenant
	// scopes the job's budgets and metric labels.
	ID     string `json:"id,omitempty"`
	Tenant string `json:"tenant"`
	// Workload is "ring" (default) or "replay"; Engine host|offload|raw;
	// Transport inproc (default) | tcp | shm | hybrid.
	Workload  string `json:"workload,omitempty"`
	Engine    string `json:"engine,omitempty"`
	Transport string `json:"transport,omitempty"`
	// Ranks is the world size (default 2). Replay jobs take the trace's
	// own rank count; a nonzero mismatch is an error.
	Ranks int `json:"ranks,omitempty"`
	// Ring workload shape (defaults 16 / 10 / 8).
	K            int `json:"k,omitempty"`
	Reps         int `json:"reps,omitempty"`
	PayloadBytes int `json:"payload_bytes,omitempty"`
	// Threads is the per-rank DPA thread ask (offload engine only,
	// default dpa.DefaultThreads); the tenant is charged Ranks × Threads.
	Threads int `json:"threads,omitempty"`
	// Matcher table shape (defaults 256 bins / 1088 receives / K=1).
	Bins        int `json:"bins,omitempty"`
	MaxReceives int `json:"max_receives,omitempty"`
	InFlight    int `json:"inflight,omitempty"`
	// Replay workload: synthetic application name and generation scale.
	App   string `json:"app,omitempty"`
	Scale int    `json:"scale,omitempty"`
}

// Response is one control-protocol reply.
type Response struct {
	OK    bool        `json:"ok"`
	Code  string      `json:"code,omitempty"`
	Error string      `json:"error,omitempty"`
	Job   *JobStatus  `json:"job,omitempty"`
	Jobs  []JobStatus `json:"jobs,omitempty"`
}

// JobStatus is one job's externally visible state.
type JobStatus struct {
	ID        string `json:"id"`
	Tenant    string `json:"tenant"`
	State     string `json:"state"` // pending | running | done | failed | canceled
	Workload  string `json:"workload"`
	Engine    string `json:"engine"`
	Transport string `json:"transport"`
	Ranks     int    `json:"ranks"`
	// FootprintBytes and Threads are what admission charged the tenant.
	FootprintBytes int `json:"footprint_bytes"`
	Threads        int `json:"threads"`
	// Result fields, populated in terminal states (and Messages while
	// running).
	Messages   int     `json:"messages,omitempty"`
	MsgPerSec  float64 `json:"msg_per_sec,omitempty"`
	Matched    uint64  `json:"matched,omitempty"`
	Unexpected uint64  `json:"unexpected,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// Terminal reports whether the state is final.
func (s *JobStatus) Terminal() bool {
	return s.State == "done" || s.State == "failed" || s.State == "canceled"
}

// engineKinds is the one engine-name table: the names a spec or an -engine
// flag may carry, and the engine each selects.
var engineKinds = map[string]mpi.EngineKind{
	"host": mpi.EngineHost, "offload": mpi.EngineOffload, "raw": mpi.EngineRaw,
}

var (
	validTransports = map[string]bool{"inproc": true, "tcp": true, "udp": true, "shm": true, "hybrid": true}
	validOps        = map[string]bool{OpSubmit: true, OpStatus: true, OpCancel: true, OpList: true, OpPing: true, OpWait: true}
)

// lossy reports whether the transport drops datagrams by nature; the
// daemon hosts none such, they run only from the CLIs.
func lossy(transport string) bool { return transport == "udp" }

// DecodeRequest parses and validates one request line. Every failure —
// truncated JSON, trailing garbage, unknown ops, hostile budgets, oversize
// names — is an error the server answers with CodeBadRequest (a spec no
// DPA could hold: an AdmissionError, CodeOverBudget); no input may panic or
// allocate beyond the line itself.
func DecodeRequest(line []byte) (*Request, error) {
	if len(line) > MaxLineBytes {
		return nil, fmt.Errorf("request of %d bytes exceeds the %d-byte line limit", len(line), MaxLineBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("malformed request: %v", err)
	}
	// One value per line: trailing non-space bytes are a framing error.
	var extra json.RawMessage
	if err := dec.Decode(&extra); err == nil || len(bytes.TrimSpace(line[dec.InputOffset():])) > 0 {
		return nil, fmt.Errorf("trailing data after request object")
	}
	if !validOps[req.Op] {
		return nil, fmt.Errorf("unknown op %q", truncName(req.Op))
	}
	switch req.Op {
	case OpSubmit:
		if req.Job == nil {
			return nil, fmt.Errorf("submit without a job spec")
		}
		if err := req.Job.Validate(); err != nil {
			return nil, err
		}
	case OpStatus, OpCancel, OpWait:
		if err := checkName("job id", req.ID, true); err != nil {
			return nil, err
		}
		if req.Op == OpWait && (req.TimeoutMS < 0 || req.TimeoutMS > MaxWaitMillis) {
			return nil, fmt.Errorf("timeout_ms %d outside [0,%d]", req.TimeoutMS, MaxWaitMillis)
		}
	}
	return &req, nil
}

// Validate bounds every field of a submitted spec and refuses the shapes
// no world can be built from.
func (s *JobSpec) Validate() error {
	if err := checkName("tenant", s.Tenant, true); err != nil {
		return err
	}
	if err := checkName("job id", s.ID, false); err != nil {
		return err
	}
	if err := checkName("app", s.App, false); err != nil {
		return err
	}
	if s.Workload != "" && s.Workload != "ring" && s.Workload != "replay" {
		return fmt.Errorf("unknown workload %q, want ring or replay", truncName(s.Workload))
	}
	// Shape is checked on a normalized copy: on the wire an unset field
	// means "take the default", and the defaults have the right shape.
	shaped := *s
	shaped.Normalize()
	if err := shaped.checkShape(); err != nil {
		return err
	}
	switch {
	case lossy(s.Transport):
		return fmt.Errorf("transport %s is lossy; the daemon hosts inproc, tcp, shm, and hybrid", s.Transport)
	case s.Ranks > MaxRanks:
		return fmt.Errorf("ranks %d outside [0,%d]", s.Ranks, MaxRanks)
	case s.K > MaxK:
		return fmt.Errorf("k %d outside [0,%d]", s.K, MaxK)
	case s.Reps > MaxReps:
		return fmt.Errorf("reps %d outside [0,%d]", s.Reps, MaxReps)
	case s.PayloadBytes > MaxPayloadBytes:
		return fmt.Errorf("payload_bytes %d outside [0,%d]", s.PayloadBytes, MaxPayloadBytes)
	case s.Threads > dpa.MaxThreads:
		return fmt.Errorf("threads %d outside [0,%d]", s.Threads, dpa.MaxThreads)
	case s.Bins > MaxBins:
		return fmt.Errorf("bins %d outside [0,%d]", s.Bins, MaxBins)
	case s.MaxReceives > MaxReceivesCap:
		return fmt.Errorf("max_receives %d outside [0,%d]", s.MaxReceives, MaxReceivesCap)
	case s.Scale > MaxScale:
		return fmt.Errorf("scale %d outside [0,%d]", s.Scale, MaxScale)
	}
	// Within every cap, an offload spec can still be one no world can be
	// built from (mpi refuses both at engine construction): refuse it here,
	// before it is admitted, charged and given an id.
	if shaped.Engine == "offload" {
		if shaped.Threads < offloadBlockSize {
			return fmt.Errorf("threads %d below the offload matcher's block of %d", shaped.Threads, offloadBlockSize)
		}
		if per := specFootprint(&shaped) / shaped.Ranks; per > dpa.L3CacheBytes {
			return overBudget("matching tables of %d bytes per rank exceed the %d bytes of DPA memory", per, dpa.L3CacheBytes)
		}
	}
	return nil
}

// checkShape holds the checks that do not depend on who runs the job — the
// daemon (Validate, which adds its caps) or a CLI (Flags.Validate): known
// engine and transport names, non-negative sizes, power-of-two bins, the
// in-flight range. Engine, Transport, Bins and InFlight must carry a value
// (a CLI's flags always do; Validate normalizes first). Every message
// starts with the name of the flag that sets the field.
func (s *JobSpec) checkShape() error {
	_, engineOK := engineKinds[s.Engine]
	switch {
	case !engineOK:
		return fmt.Errorf("engine %q, want host, offload, or raw", truncName(s.Engine))
	case !validTransports[s.Transport]:
		return fmt.Errorf("transport %q, want inproc, tcp, udp, shm, or hybrid", truncName(s.Transport))
	}
	for _, size := range []struct {
		flag string
		v    int
	}{
		{"ranks", s.Ranks}, {"k", s.K}, {"reps", s.Reps}, {"payload", s.PayloadBytes},
		{"threads", s.Threads}, {"max_receives", s.MaxReceives}, {"scale", s.Scale},
	} {
		if size.v < 0 {
			return fmt.Errorf("%s %d must be >= 0", size.flag, size.v)
		}
	}
	switch {
	case s.Bins < 1 || bits.OnesCount(uint(s.Bins)) != 1:
		return fmt.Errorf("bins %d must be a power of two >= 1", s.Bins)
	case s.InFlight < 1 || s.InFlight > core.MaxInFlightBlocks:
		return fmt.Errorf("inflight %d outside [1,%d]", s.InFlight, core.MaxInFlightBlocks)
	}
	return nil
}

// Normalize fills defaulted fields in place (after Validate).
func (s *JobSpec) Normalize() {
	if s.Workload == "" {
		s.Workload = "ring"
	}
	if s.Engine == "" {
		s.Engine = "host"
	}
	if s.Transport == "" {
		s.Transport = "inproc"
	}
	if s.Ranks == 0 {
		s.Ranks = 2
	}
	if s.K == 0 {
		s.K = 16
	}
	if s.Reps == 0 {
		s.Reps = 10
	}
	if s.PayloadBytes == 0 {
		s.PayloadBytes = 8
	}
	if s.Threads == 0 {
		s.Threads = dpa.DefaultThreads
	}
	if s.Bins == 0 {
		s.Bins = 256
	}
	if s.MaxReceives == 0 {
		s.MaxReceives = 1024 + 64
	}
	if s.InFlight == 0 {
		s.InFlight = 1
	}
	if s.Workload == "replay" {
		if s.App == "" {
			s.App = "AMG"
		}
		if s.Scale == 0 {
			s.Scale = 5
		}
	}
}

// checkName bounds one identifier: length-capped, no control characters.
func checkName(what, v string, required bool) error {
	if v == "" {
		if required {
			return fmt.Errorf("missing %s", what)
		}
		return nil
	}
	if len(v) > MaxNameLen {
		return fmt.Errorf("%s of %d bytes exceeds the %d-byte limit", what, len(v), MaxNameLen)
	}
	for _, r := range v {
		if r < 0x20 || r == 0x7f {
			return fmt.Errorf("%s contains control characters", what)
		}
	}
	return nil
}

// truncName bounds an attacker-chosen string echoed into an error.
func truncName(v string) string {
	if len(v) > 64 {
		return v[:64] + "..."
	}
	return v
}
