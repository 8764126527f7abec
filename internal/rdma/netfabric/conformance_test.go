package netfabric_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/rdma"
	"repro/internal/rdma/netfabric"
)

// The conformance suite holds every dataplane to the rdma.Transport /
// rdma.Endpoint contract with no MPI world on top: three ranks hosted in
// this process, each with its own receive queue and completion queue. The
// networks come from netfabric.New and "inproc" from rdma.Fabric.Ranks; the
// same rows run against all of them.

const confRanks = 3

// confRank is one rank's transport plus the receive datapath the test
// drives by hand.
type confRank struct {
	tr rdma.Transport
	rq *rdma.RecvQueue
	cq *rdma.CQ
	at uint64 // next completion index to consume
}

// next waits for the rank's next receive completion.
func (r *confRank) next(t *testing.T) rdma.Completion {
	t.Helper()
	got := make(chan rdma.Completion, 1)
	go func() {
		c, _ := r.cq.WaitIndex(r.at)
		got <- c
	}()
	select {
	case c := <-got:
		r.at++
		return c
	case <-time.After(10 * time.Second):
		t.Fatalf("rank %d: completion %d never arrived", r.tr.Rank(), r.at)
		return rdma.Completion{}
	}
}

// startConformance builds and starts the three transports: the in-process
// fabric's, or a network's behind a loopback coordinator. Hybrid puts ranks
// 0 and 1 on one simulated host and rank 2 on another, so rank 0 has a
// same-host peer and a cross-host peer.
func startConformance(t *testing.T, network string) []*confRank {
	t.Helper()
	if network == "inproc" {
		ranks := make([]*confRank, confRanks)
		for k, tr := range rdma.NewFabric().Ranks(confRanks) {
			ranks[k] = &confRank{tr: tr, rq: rdma.NewRecvQueue(1024), cq: rdma.NewCQ()}
			if err := tr.Start(ranks[k].rq, ranks[k].cq); err != nil {
				t.Fatal(err)
			}
		}
		t.Cleanup(func() { closeConformance(ranks) })
		return ranks
	}
	ranks, errs := startTransports(t, network, confRanks, func(k int, cfg *netfabric.Config) {
		if k == 2 {
			cfg.Host = "hostB"
		}
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return ranks
}

// startTransports builds and starts n transports of one network behind a
// loopback coordinator, all on simulated host "hostA" and sharing one shm
// directory unless mod, which may be nil, changes rank k's config. It closes
// them when the test ends. errs[k] is what rank k's New or Start said.
func startTransports(t *testing.T, network string, n int, mod func(k int, cfg *netfabric.Config)) (ranks []*confRank, errs []error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("coordinator listen: %v", err)
	}
	coordDone := make(chan error, 1)
	go func() { coordDone <- netfabric.ServeCoordinator(ln, n) }()
	shmDir := t.TempDir()
	ranks = make([]*confRank, n)
	errs = make([]error, n)
	var wg sync.WaitGroup
	for k := range ranks {
		ranks[k] = &confRank{rq: rdma.NewRecvQueue(1024), cq: rdma.NewCQ()}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cfg := netfabric.Config{Network: network, Rank: k, Ranks: n,
				Coord: ln.Addr().String(), ShmDir: shmDir, Host: "hostA"}
			if mod != nil {
				mod(k, &cfg)
			}
			tr, err := netfabric.New(cfg)
			if err == nil {
				ranks[k].tr = tr
				err = tr.Start(ranks[k].rq, ranks[k].cq)
			}
			errs[k] = err
		}(k)
	}
	wg.Wait()
	ln.Close()
	if err := <-coordDone; err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	t.Cleanup(func() {
		closeConformance(ranks)
		if left, _ := filepath.Glob(filepath.Join(shmDir, "repro-shm-r*-*.seg")); len(left) > 0 {
			t.Errorf("segment files left behind: %v", left)
		}
	})
	return ranks, errs
}

func closeConformance(ranks []*confRank) {
	var wg sync.WaitGroup
	for _, r := range ranks {
		if r.tr == nil {
			continue
		}
		wg.Add(1)
		go func(r *confRank) {
			defer wg.Done()
			r.tr.Close()
		}(r)
	}
	wg.Wait()
}

func TestConformance(t *testing.T) {
	for _, network := range []string{"inproc", "tcp", "udp", "shm", "hybrid"} {
		t.Run(network, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ranks := startConformance(t, network)
			t.Run("oversize", func(t *testing.T) { confOversize(t, ranks) })
			t.Run("ordered", func(t *testing.T) { confOrdered(t, ranks) })
			t.Run("read", func(t *testing.T) { confRead(t, ranks) })
			t.Run("close", func(t *testing.T) { confClose(t, ranks) })
			// Every goroutine the transports started must be gone once
			// Close has returned (a late one is given a moment to unwind).
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if now := runtime.NumGoroutine(); now > before {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before, %d after Close\n%s", before, now, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// confOversize: a message larger than the posted buffer consumes that
// buffer and completes with ErrBufferSize, Bytes = the message length and
// the unfilled buffer attached — over a peer link and over the loopback.
func confOversize(t *testing.T, ranks []*confRank) {
	msg := make([]byte, 100)
	for _, from := range []int{1, 0} {
		small := make([]byte, 8)
		ranks[0].rq.Post(small, 77)
		if err := ranks[from].tr.Endpoint(0).Send(msg, 0, 0); err != nil {
			t.Fatalf("send %d->0: %v", from, err)
		}
		c := ranks[0].next(t)
		if !errors.Is(c.Err, rdma.ErrBufferSize) || c.Op != rdma.OpRecv || c.WRID != 77 || c.Bytes != len(msg) {
			t.Fatalf("oversize %d->0 completed %+v, want OpRecv wrid 77 bytes %d ErrBufferSize", from, c, len(msg))
		}
		if len(c.Data) != 0 || cap(c.Data) != len(small) || &c.Data[:1][0] != &small[0] {
			t.Fatalf("oversize %d->0: completion does not carry the unfilled posted buffer (len %d cap %d)",
				from, len(c.Data), cap(c.Data))
		}
	}
}

// confOrdered: every rank sends a numbered stream to every rank, itself
// included; each receiver sees each sender's stream complete and in order.
func confOrdered(t *testing.T, ranks []*confRank) {
	const perPeer = 50
	for _, r := range ranks {
		for i := 0; i < confRanks*perPeer; i++ {
			r.rq.Post(make([]byte, 64), uint64(i))
		}
	}
	var wg sync.WaitGroup
	sendErrs := make(chan error, confRanks)
	for src, r := range ranks {
		wg.Add(1)
		go func(src int, r *confRank) {
			defer wg.Done()
			msg := make([]byte, 16)
			for seq := 0; seq < perPeer; seq++ {
				for dst := 0; dst < confRanks; dst++ {
					binary.LittleEndian.PutUint64(msg, uint64(src))
					binary.LittleEndian.PutUint64(msg[8:], uint64(seq))
					if err := r.tr.Endpoint(dst).Send(msg, 0, 0); err != nil {
						sendErrs <- fmt.Errorf("send %d->%d #%d: %w", src, dst, seq, err)
						return
					}
				}
			}
		}(src, r)
	}
	wg.Wait()
	close(sendErrs)
	for err := range sendErrs {
		t.Fatal(err)
	}
	for dst, r := range ranks {
		var nextSeq [confRanks]uint64
		for i := 0; i < confRanks*perPeer; i++ {
			c := r.next(t)
			if c.Err != nil || c.Bytes != 16 || len(c.Data) != 16 {
				t.Fatalf("rank %d completion %d: %+v", dst, i, c)
			}
			src, seq := binary.LittleEndian.Uint64(c.Data), binary.LittleEndian.Uint64(c.Data[8:])
			if src >= confRanks || seq != nextSeq[src] {
				t.Fatalf("rank %d: message #%d from rank %d, want #%d", dst, seq, src, nextSeq[src])
			}
			nextSeq[src]++
		}
	}
}

// confRead: rank 0 reads its own region and each peer's region (larger
// than any one frame), then walks the error table.
func confRead(t *testing.T, ranks []*confRank) {
	const size = 5<<19 + 17 // 2.5 MiB and odd: several frames on tcp, dozens on udp
	reader := ranks[0].tr
	for owner, r := range ranks {
		src := make([]byte, size)
		for i := range src {
			src[i] = byte(i*7 + owner)
		}
		mr := r.tr.RegisterMemory(src)
		dst := make([]byte, size)
		if err := reader.Read(owner, dst, mr.RKey, 0, size); err != nil {
			t.Fatalf("read whole region of rank %d: %v", owner, err)
		}
		if !bytes.Equal(dst, src) {
			t.Fatalf("read whole region of rank %d: wrong bytes", owner)
		}
		part := make([]byte, 1000)
		if err := reader.Read(owner, part, mr.RKey, size-1000, 1000); err != nil || !bytes.Equal(part, src[size-1000:]) {
			t.Fatalf("read tail of rank %d's region: err %v", owner, err)
		}
		for _, tc := range []struct {
			name           string
			dst            []byte
			rkey           uint64
			offset, length int
			want           error
		}{
			{"dst shorter than length", make([]byte, 10), mr.RKey, 0, 20, rdma.ErrBounds},
			{"past the end", make([]byte, 20), mr.RKey, size - 10, 20, rdma.ErrBounds},
			{"chunked past the end", make([]byte, size), mr.RKey, 10, size, rdma.ErrBounds},
			{"unknown rkey", make([]byte, 10), mr.RKey + 1000, 0, 10, rdma.ErrBadKey},
		} {
			if err := reader.Read(owner, tc.dst, tc.rkey, tc.offset, tc.length); !errors.Is(err, tc.want) {
				t.Fatalf("read from rank %d, %s: %v, want %v", owner, tc.name, err, tc.want)
			}
		}
		r.tr.Deregister(mr)
		if err := reader.Read(owner, part, mr.RKey, 0, 1000); !errors.Is(err, rdma.ErrBadKey) {
			t.Fatalf("read of rank %d's deregistered region: %v, want ErrBadKey", owner, err)
		}
	}
	if err := reader.Read(confRanks, make([]byte, 1), 1, 0, 1); !errors.Is(err, rdma.ErrBadKey) {
		t.Fatalf("read from a rank outside the job: %v, want ErrBadKey", err)
	}
	for k, r := range ranks {
		if got := netfabric.PendingReadCount(r.tr); got != 0 {
			t.Fatalf("rank %d: %d pending reads left behind", k, got)
		}
	}
}

// confClose: after Close every endpoint fails data and control sends alike
// with ErrClosed, and a second Close is a nil no-op.
func confClose(t *testing.T, ranks []*confRank) {
	closeConformance(ranks)
	for k, r := range ranks {
		for peer := 0; peer < confRanks; peer++ {
			ep := r.tr.Endpoint(peer)
			// Repeated: a send that merely races a closed channel against a
			// free queue slot passes some of the time.
			for i := 0; i < 20; i++ {
				if err := ep.Send([]byte("late"), 0, 0); !errors.Is(err, rdma.ErrClosed) {
					t.Errorf("rank %d -> %d: Send after Close: %v, want ErrClosed", k, peer, err)
					break
				}
				if err := ep.SendControl([]byte("late"), 0, 0); !errors.Is(err, rdma.ErrClosed) {
					t.Errorf("rank %d -> %d: SendControl after Close: %v, want ErrClosed", k, peer, err)
					break
				}
			}
		}
		if err := r.tr.Close(); err != nil {
			t.Errorf("rank %d: second Close: %v", k, err)
		}
	}
}
