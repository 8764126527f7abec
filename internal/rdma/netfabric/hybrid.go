package netfabric

import (
	"fmt"
	"net"
	"os"
)

// newHybrid makes the one coordinator registration a locality-routed
// transport needs — TCP address, host name, shm segment path — and builds
// both wires from the returned book. local[j] reports that rank j
// announced this rank's host name: those peers' data goes over the shm
// rings, everyone else's over TCP.
//
// The TCP wire meshes every peer, not just cross-host ones: it is also the
// READ RPC route to a same-host peer whose memory the kernel will not let
// this process read, and for the rare registration the shm region table had
// no slot for. Same-host data frames never touch it, so the idle
// connections cost only descriptors.
func newHybrid(t *transport, cfg Config) (far *tcpWire, near *shmWire, local []bool, err error) {
	host := cfg.Host
	if host == "" {
		if host, err = os.Hostname(); err != nil {
			return nil, nil, nil, fmt.Errorf("netfabric: hostname: %w", err)
		}
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("netfabric: listen: %w", err)
	}
	seg, err := createShmSegment(cfg.ShmDir, cfg.Rank, cfg.Ranks)
	if err != nil {
		ln.Close()
		return nil, nil, nil, err
	}
	book, err := registerHello(cfg.Coord, coordHello{
		Rank: cfg.Rank, Ranks: cfg.Ranks, Addr: ln.Addr().String(), Host: host, Shm: seg.path,
	})
	if err == nil && len(book.Hosts) != cfg.Ranks {
		err = fmt.Errorf("netfabric: hybrid book has %d hosts, want %d", len(book.Hosts), cfg.Ranks)
	}
	if err != nil {
		seg.close()
		ln.Close()
		return nil, nil, nil, err
	}
	local = make([]bool, cfg.Ranks)
	for j, h := range book.Hosts {
		local[j] = h == host
	}
	if near, err = newShmWire(t, seg, book.Shms, local); err != nil {
		ln.Close()
		return nil, nil, nil, err
	}
	return newTCPWire(t, ln, book.Addrs), near, local, nil
}
