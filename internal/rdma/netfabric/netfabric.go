// Package netfabric carries a mini-MPI world over real sockets and shared
// memory, so rank processes run out-of-process with true multi-core
// parallelism. It is one rdma.Transport (transport.go) over two wires and
// an in-memory loopback, with a per-peer routing table in between. Every
// wire delivers in order and exactly once, as the reliable connection the
// matcher is built for does.
//
// The transport owns everything the medium does not change: the receive
// pump (every inbound frame is parsed and landed by transport.arrive —
// data into a posted bounce buffer and onto the CQ, oversize as
// ErrBufferSize), the registered-region and pending-read tables, the one
// endpoint type, and READ: a local copy, else a direct read if a wire
// offers one, else frReadReq/frReadResp round trips over TCP, chunked
// just under the frame cap, eight in flight, each sent once.
//
// A wire (start, send, close) only moves frames:
//
//   - tcp.go: one connection per unordered rank pair; a per-peer writer
//     drains a send queue into batched writev flushes and the reader runs
//     the pump straight off the connection's buffer, so the steady-state
//     send and arrival paths allocate nothing and arrival costs one copy.
//     The one wire that carries READ RPCs.
//
//   - shm.go: mmap-backed per-peer-pair SPSC rings with an adaptive
//     spin-then-park wait, for co-located ranks. It alone adds the two
//     extras the transport looks for: a registration announces its
//     buffer's address in the owner's segment, and a same-host READ is one
//     bounds-checked process_vm_readv out of the owner's memory.
//
// The in-memory loopback carries self-sends. Config.Network picks the
// routes: "tcp" and "shm" send every peer over their one wire;
// "hybrid" (hybrid.go) consults the coordinator's host map and sends
// same-host peers over shm and the rest over tcp, reads a same-host owner's
// memory directly and falls back to the tcp READ RPC.
//
// Rank/address rendezvous at startup is a tiny JSON-lines coordinator
// (coord.go); Launch (launch.go) re-executes the current binary once per
// rank for the msgrate/replay multi-process mode.
package netfabric

import (
	"fmt"
	"os"
	"syscall"

	"repro/internal/obs"
	"repro/internal/rdma"
)

// Config parameterizes one rank's transport.
type Config struct {
	// Network selects the transport: "tcp", "shm", or "hybrid".
	Network string
	// Rank and Ranks identify this process within the job.
	Rank, Ranks int
	// Coord is the coordinator address for rank/address exchange; New
	// blocks until every rank has registered (the startup barrier).
	Coord string
	// Listen is the local bind address (default "127.0.0.1:0").
	Listen string
	// Obs configures the transport's observability sink (the "fabric"
	// domain of the world's export).
	Obs obs.Options
	// Host names the machine this rank runs on, for hybrid locality
	// routing (default os.Hostname()). Tests and -sim-hosts override it
	// to simulate a multi-host topology on one machine.
	Host string
	// ShmDir is where shm segment files are created (default the system
	// temp dir). Peers on the same host must see the same filesystem.
	ShmDir string
}

func (c *Config) fill() error {
	switch c.Network {
	case "tcp", "shm", "hybrid":
	default:
		return fmt.Errorf("netfabric: network %q, want tcp, shm, or hybrid", c.Network)
	}
	if c.Ranks < 1 || c.Rank < 0 || c.Rank >= c.Ranks {
		return fmt.Errorf("netfabric: rank %d of %d out of range", c.Rank, c.Ranks)
	}
	if c.Coord == "" {
		return fmt.Errorf("netfabric: missing coordinator address")
	}
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.ShmDir == "" {
		c.ShmDir = os.TempDir()
	}
	return nil
}

// New builds the transport for one rank: it binds a local socket,
// registers with the coordinator, and blocks until every rank of the job
// has done the same — the startup barrier. Peer links are established by
// Start (mpi.NewNetWorld calls it once the receive datapath exists).
func New(cfg Config) (rdma.Transport, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	t := newTransport(cfg)
	var (
		far   *tcpWire
		near  *shmWire // shared memory
		local []bool   // hybrid: which peers near carries
		err   error
	)
	switch cfg.Network {
	case "tcp":
		far, err = newTCP(t, cfg)
	case "shm":
		near, err = newShm(t, cfg)
	case "hybrid":
		far, near, local, err = newHybrid(t, cfg)
	}
	if err != nil {
		return nil, err
	}
	t.route(far, near, local)
	return t, nil
}

// DirectReadError reports that the kernel will not let this process read a
// peer rank's memory (process_vm_readv), which is how the shm wire serves
// rendezvous. Pure shm cannot run without it, so New fails with this error;
// hybrid serves that peer's READs over TCP instead.
type DirectReadError struct {
	Segment     string        // the peer's segment file
	Pid         int           // the pid its header names
	Errno       syscall.Errno // what process_vm_readv said
	PtraceScope string        // kernel.yama.ptrace_scope here, or "absent"
}

func (e *DirectReadError) Error() string {
	return fmt.Sprintf("netfabric: shm needs process_vm_readv between rank processes, and reading pid %d (%s) failed: %v (kernel.yama.ptrace_scope: %s)",
		e.Pid, e.Segment, e.Errno, e.PtraceScope)
}

func (e *DirectReadError) Unwrap() error { return e.Errno }
