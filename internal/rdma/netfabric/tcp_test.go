package netfabric

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/rdma"
)

// TestTCPPeerLostReported: rank 1's reader is stuck on a message no buffer
// takes, so rank 0's READ of rank 1 waits behind it unanswered. When rank
// 1's end of the link is reset, rank 0 reports exactly one error
// completion, ErrPeerLost with rank 1 in Imm and no buffer, the waiting
// READ returns ErrPeerLost, a later READ of rank 1 fails at once, and once
// both transports close no goroutine of theirs is left.
func TestTCPPeerLostReported(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ServeCoordinator(ln, 2)
	var trs [2]*transport
	var errs [2]error
	var wg sync.WaitGroup
	for k := range trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := New(Config{Network: "tcp", Rank: k, Ranks: 2, Coord: ln.Addr().String()})
			if err == nil {
				trs[k] = tr.(*transport)
			}
			errs[k] = err
		}()
	}
	wg.Wait()
	ln.Close()
	for k := range trs {
		if errs[k] != nil {
			t.Fatalf("rank %d: %v", k, errs[k])
		}
	}
	var cqs [2]*rdma.CQ
	for k, tr := range trs {
		cqs[k] = rdma.NewCQ()
		if err := tr.Start(rdma.NewRecvQueue(4), cqs[k]); err != nil { // nothing posted
			t.Fatal(err)
		}
	}

	if err := trs[0].Endpoint(1).Send([]byte("stuck"), 0, 0); err != nil {
		t.Fatal(err)
	}
	read := make(chan error, 1)
	go func() { read <- trs[0].Read(1, make([]byte, 8), 7, 0, 8) }()
	for deadline := time.Now().Add(10 * time.Second); PendingReadCount(trs[0]) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the READ never became pending")
		}
	}

	conn := trs[1].rpc.peers[0].conn.(*net.TCPConn)
	conn.SetLinger(0) // close with a reset, as a dying process's kernel may
	conn.Close()
	select {
	case err := <-read:
		if !errors.Is(err, rdma.ErrPeerLost) {
			t.Fatalf("the waiting READ returned %v, want ErrPeerLost", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the waiting READ never returned")
	}
	if err := trs[0].Read(1, make([]byte, 8), 7, 0, 8); !errors.Is(err, rdma.ErrPeerLost) {
		t.Fatalf("a READ of the lost peer returned %v, want ErrPeerLost", err)
	}
	time.Sleep(50 * time.Millisecond)
	if n := cqs[0].Ready(); n != 1 {
		t.Fatalf("%d completions for one lost peer, want 1", n)
	}
	var c [1]rdma.Completion
	cqs[0].WaitBatch(0, c[:])
	if !errors.Is(c[0].Err, rdma.ErrPeerLost) || c[0].Imm != 1 || c[0].Data != nil {
		t.Fatalf("loss completion %+v, want ErrPeerLost, Imm 1 and no buffer", c[0])
	}
	if n := PendingReadCount(trs[0]); n != 0 {
		t.Fatalf("%d pending-read entries left", n)
	}

	for _, tr := range trs {
		tr.Close()
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after both transports closed", goroutines, runtime.NumGoroutine())
		}
	}
}
