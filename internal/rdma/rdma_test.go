package rdma

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitAt returns completion k of q, blocking until it exists, through
// WaitBatch as every consumer drains a CQ. ok=false means q closed first or
// k was already trimmed.
func waitAt(q *CQ, k uint64) (Completion, bool) {
	var dst [1]Completion
	n, ok := q.WaitBatch(k, dst[:])
	return dst[0], ok && n == 1
}

// pollAt returns completion k of q if it has arrived, without blocking.
func pollAt(q *CQ, k uint64) (Completion, bool) {
	if q.Ready() <= k {
		return Completion{}, false
	}
	return waitAt(q, k)
}

func pair(t *testing.T) (*QP, *QP, *CQ, *CQ) {
	t.Helper()
	f := NewFabric()
	cqA, cqB := NewCQ(), NewCQ()
	a, b := f.ConnectPair(
		QPConfig{RecvCQ: cqA},
		QPConfig{RecvCQ: cqB},
	)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b, cqA, cqB
}

func TestSendRecvRoundTrip(t *testing.T) {
	a, b, _, cqB := pair(t)
	_ = b
	buf := make([]byte, 16)
	b.rq.Post(buf, 7)
	if err := a.Send([]byte("hello"), 42, 1); err != nil {
		t.Fatal(err)
	}
	c, ok := waitAt(cqB, 0)
	if !ok {
		t.Fatal("no completion")
	}
	if c.Op != OpRecv || c.WRID != 7 || c.Imm != 42 || c.Bytes != 5 {
		t.Fatalf("completion = %+v", c)
	}
	if string(c.Data) != "hello" {
		t.Fatalf("data = %q", c.Data)
	}
}

func TestPerQPOrdering(t *testing.T) {
	a, b, _, cqB := pair(t)
	for i := 0; i < 32; i++ {
		b.rq.Post(make([]byte, 8), uint64(i))
	}
	for i := 0; i < 32; i++ {
		if err := a.Send([]byte{byte(i)}, uint32(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 32; i++ {
		c, ok := waitAt(cqB, i)
		if !ok {
			t.Fatal("missing completion")
		}
		if c.Imm != uint32(i) {
			t.Fatalf("completion %d has imm %d: ordering violated", i, c.Imm)
		}
	}
}

// blockedSend starts a.Send on its own goroutine and returns the channel its
// error arrives on, after checking the send really is held back.
func blockedSend(t *testing.T, a *QP, wrID uint64) <-chan error {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- a.Send([]byte("x"), 5, wrID) }()
	select {
	case err := <-errc:
		t.Fatalf("send completed with no receive posted (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	return errc
}

func TestSendBlocksUntilReceivePosted(t *testing.T) {
	a, b, _, cqB := pair(t)
	errc := blockedSend(t, a, 1)
	if cqB.Ready() != 0 {
		t.Fatal("completion before receive was posted")
	}
	b.rq.Post(make([]byte, 4), 9)
	if err := <-errc; err != nil {
		t.Fatalf("send after post: %v", err)
	}
	// Delivery is inline: by the time Send returned, the completion exists.
	c, ok := pollAt(cqB, 0)
	if !ok || c.WRID != 9 || c.Imm != 5 || string(c.Data) != "x" {
		t.Fatalf("receive completion = %+v ok=%v, want the posted WRID 9", c, ok)
	}
}

func TestBlockedSendFailsWhenPeerCloses(t *testing.T) {
	a, b, _, cqB := pair(t)
	errc := blockedSend(t, a, 1)
	b.Close()
	if err := <-errc; err != ErrClosed {
		t.Fatalf("blocked send after peer close: err = %v, want ErrClosed", err)
	}
	// A buffer that turns up after the close is not consumed either: the
	// send fails and leaves it in the queue.
	b.rq.Post(make([]byte, 4), 9)
	if err := a.Send([]byte("x"), 0, 2); err != ErrClosed {
		t.Fatalf("send toward closed peer: err = %v, want ErrClosed", err)
	}
	if n := len(b.rq.ch); n != 1 {
		t.Fatalf("receive queue holds %d buffers, want the 1 posted", n)
	}
	if cqB.Ready() != 0 {
		t.Fatal("closed peer received a completion")
	}
}

func TestSendTowardSendOnlyEnd(t *testing.T) {
	// mpi.NewWorld's shape: the sending end has no RecvCQ, so it gets no
	// receive queue and nothing can be sent toward it.
	f := NewFabric()
	snd, rcv := f.ConnectPair(QPConfig{}, QPConfig{RecvCQ: NewCQ()})
	defer snd.Close()
	defer rcv.Close()
	if snd.rq != nil {
		t.Fatal("send-only end allocated a receive queue")
	}
	if err := rcv.Send([]byte("x"), 0, 0); err != ErrNoReceive {
		t.Fatalf("Send toward send-only end: err = %v, want ErrNoReceive", err)
	}
	if err := rcv.SendControl([]byte("x"), 0, 0); err != ErrNoReceive {
		t.Fatalf("SendControl toward send-only end: err = %v, want ErrNoReceive", err)
	}
}

func TestConnectPairStartsNoGoroutines(t *testing.T) {
	f := NewFabric()
	before := runtime.NumGoroutine()
	for i := 0; i < 16; i++ {
		a, b := f.ConnectPair(QPConfig{}, QPConfig{RecvCQ: NewCQ()})
		b.rq.Post(make([]byte, 4), 0)
		if err := a.Send([]byte("x"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after connecting 16 pairs", before, after)
	}
}

func TestRDMARead(t *testing.T) {
	f := NewFabric()
	src := []byte("rendezvous payload")
	mr := f.RegisterMemory(src)
	dst := make([]byte, len(src))
	cq := NewCQ()
	if err := f.Read(dst, mr.RKey, 0, len(src), cq, 5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("read %q, want %q", dst, src)
	}
	if c, ok := waitAt(cq, 0); !ok || c.Op != OpRead || c.WRID != 5 {
		t.Fatalf("completion = %+v ok=%v", c, ok)
	}
}

func TestRDMAReadOffset(t *testing.T) {
	f := NewFabric()
	mr := f.RegisterMemory([]byte("0123456789"))
	dst := make([]byte, 4)
	if err := f.Read(dst, mr.RKey, 3, 4, nil, 0); err != nil {
		t.Fatal(err)
	}
	if string(dst) != "3456" {
		t.Fatalf("read %q, want 3456", dst)
	}
}

func TestRDMAReadErrors(t *testing.T) {
	f := NewFabric()
	mr := f.RegisterMemory(make([]byte, 8))
	dst := make([]byte, 16)
	if err := f.Read(dst, 999, 0, 4, nil, 0); err != ErrBadKey {
		t.Fatalf("bad key: %v", err)
	}
	if err := f.Read(dst, mr.RKey, 4, 8, nil, 0); err != ErrBounds {
		t.Fatalf("bounds: %v", err)
	}
	if err := f.Read(dst[:2], mr.RKey, 0, 8, nil, 0); err != ErrBufferSize {
		t.Fatalf("buffer size: %v", err)
	}
	f.Deregister(mr)
	if err := f.Read(dst, mr.RKey, 0, 4, nil, 0); err != ErrBadKey {
		t.Fatalf("deregistered: %v", err)
	}
}

func TestSharedRecvQueueManySenders(t *testing.T) {
	// The MPI pattern: one receiver pools bounce buffers in a shared
	// receive queue fed by several sender QPs; per-sender order must hold.
	f := NewFabric()
	recvCQ := NewCQ()
	srq := NewRecvQueue(256)
	const senders, msgs = 4, 32
	qps := make([]*QP, senders)
	for s := 0; s < senders; s++ {
		a, _ := f.ConnectPair(
			QPConfig{RecvCQ: NewCQ()},
			QPConfig{RecvCQ: recvCQ, RQ: srq},
		)
		qps[s] = a
		defer a.Close()
	}
	for i := 0; i < senders*msgs; i++ {
		srq.Post(make([]byte, 8), uint64(i))
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				qps[s].Send([]byte{byte(s)}, uint32(s<<16|i), 0)
			}
		}(s)
	}
	wg.Wait()
	lastPerSender := make([]int, senders)
	for i := range lastPerSender {
		lastPerSender[i] = -1
	}
	for k := uint64(0); k < senders*msgs; k++ {
		c, ok := waitAt(recvCQ, k)
		if !ok {
			t.Fatal("missing completion")
		}
		s := int(c.Imm >> 16)
		i := int(c.Imm & 0xffff)
		if i != lastPerSender[s]+1 {
			t.Fatalf("sender %d: message %d after %d (per-QP order violated)", s, i, lastPerSender[s])
		}
		lastPerSender[s] = i
	}
}

func TestSharedRecvQueueBackpressureKeepsOrder(t *testing.T) {
	// Same pattern with far fewer buffers than messages: senders spend most
	// of the run blocked on the shared queue, racing each other for every
	// buffer the receiver reposts, and per-QP FIFO order must still hold.
	f := NewFabric()
	recvCQ := NewCQ()
	srq := NewRecvQueue(4)
	const senders, msgs = 4, 64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		a, b := f.ConnectPair(QPConfig{}, QPConfig{RecvCQ: recvCQ, RQ: srq})
		defer a.Close()
		defer b.Close()
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				if err := a.Send([]byte{byte(s)}, uint32(s<<16|i), 0); err != nil {
					t.Errorf("sender %d message %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	for i := 0; i < 2; i++ {
		srq.Post(make([]byte, 8), 0)
	}
	next := make([]int, senders)
	for k := uint64(0); k < senders*msgs; k++ {
		c, ok := waitAt(recvCQ, k)
		if !ok {
			t.Fatal("missing completion")
		}
		s, i := int(c.Imm>>16), int(c.Imm&0xffff)
		if i != next[s] || c.Data[0] != byte(s) {
			t.Fatalf("sender %d: message %d (payload %d) where %d was due", s, i, c.Data[0], next[s])
		}
		next[s]++
		srq.Post(c.Data[:cap(c.Data)], 0)
	}
	wg.Wait()
}

func TestOversizedControlMessageErrorCompletion(t *testing.T) {
	// The non-blocking path lands messages the same way: too large for the
	// posted buffer is an error completion carrying the unfilled buffer.
	a, b, _, cqB := pair(t)
	b.rq.Post(make([]byte, 4), 11)
	if err := a.SendControl([]byte("eight by"), 3, 0); err != nil {
		t.Fatal(err)
	}
	c, ok := pollAt(cqB, 0)
	if !ok || c.Err != ErrBufferSize || c.WRID != 11 || c.Bytes != 8 || len(c.Data) != 0 || cap(c.Data) != 4 {
		t.Fatalf("completion = %+v ok=%v, want ErrBufferSize with the unfilled buffer", c, ok)
	}
	if err := a.SendControl([]byte("x"), 0, 0); err != ErrNoReceive {
		t.Fatalf("control send with no posted receive: err = %v, want ErrNoReceive", err)
	}
}

func TestCQTrim(t *testing.T) {
	q := NewCQ()
	for i := 0; i < 10; i++ {
		q.Push(Completion{Imm: uint32(i)})
	}
	q.Trim(5)
	if _, ok := pollAt(q, 4); ok {
		t.Fatal("trimmed entry still visible")
	}
	if c, ok := pollAt(q, 7); !ok || c.Imm != 7 {
		t.Fatal("post-trim entry lost")
	}
	if _, ok := waitAt(q, 3); ok {
		t.Fatal("WaitBatch returned a trimmed entry")
	}
	q.Trim(3) // no-op: already beyond
	q.Trim(99)
	if q.Ready() != 10 {
		t.Fatalf("Ready = %d, want 10", q.Ready())
	}
	if _, ok := waitAt(q, 9); ok {
		t.Fatal("Trim past the produced range kept an entry")
	}
}

func TestCQCloseUnblocksWaiters(t *testing.T) {
	q := NewCQ()
	done := make(chan bool)
	go func() {
		_, ok := waitAt(q, 0)
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	if ok := <-done; ok {
		t.Fatal("closed wait reported ok")
	}
	if _, ok := waitAt(q, 0); ok {
		t.Fatal("wait after Close reported ok")
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	a, b, _, _ := pair(t)
	b.Close()
	// Fill the wire, then the next send must observe the closed peer.
	var err error
	for i := 0; i < 100; i++ {
		if err = a.Send([]byte("x"), 0, 0); err != nil {
			break
		}
	}
	if err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestSendOnClosedQPFails(t *testing.T) {
	// The sender's own Close fails its sends too, posted receive or not.
	a, b, _, cqB := pair(t)
	b.rq.Post(make([]byte, 4), 0)
	a.Close()
	if err := a.Send([]byte("x"), 0, 0); err != ErrClosed {
		t.Fatalf("send on closed QP: err = %v, want ErrClosed", err)
	}
	if cqB.Ready() != 0 || len(b.rq.ch) != 1 {
		t.Fatal("send on a closed QP consumed a receive")
	}
}

func TestOpTypeString(t *testing.T) {
	names := map[OpType]string{OpRecv: "recv", OpRead: "read", OpType(9): "OpType(9)"}
	for op, want := range names {
		if got := op.String(); got != want {
			t.Errorf("%d = %q, want %q", op, got, want)
		}
	}
}

// TestCQPollBatch drains ready windows the way a poller does: Ready says
// whether anything has arrived, and WaitBatch then copies without blocking.
func TestCQPollBatch(t *testing.T) {
	q := NewCQ()
	dst := make([]Completion, 4)
	if q.Ready() != 0 {
		t.Fatalf("empty queue has Ready = %d", q.Ready())
	}
	for i := 0; i < 6; i++ {
		q.Push(Completion{WRID: uint64(i)})
	}
	if q.Ready() != 6 {
		t.Fatalf("Ready = %d, want 6", q.Ready())
	}
	// A full window, bounded by len(dst).
	if n, ok := q.WaitBatch(0, dst); !ok || n != 4 {
		t.Fatalf("WaitBatch(0) = (%d,%v), want 4", n, ok)
	}
	for i, c := range dst {
		if c.WRID != uint64(i) {
			t.Fatalf("dst[%d].WRID = %d", i, c.WRID)
		}
	}
	// A partial window from an interior index.
	if n, ok := q.WaitBatch(4, dst); !ok || n != 2 || dst[0].WRID != 4 || dst[1].WRID != 5 {
		t.Fatalf("WaitBatch(4) = (%d,%v) %v", n, ok, dst[:2])
	}
	// Beyond the produced range nothing is ready, and an empty destination
	// takes nothing.
	if q.Ready() > 6 {
		t.Fatalf("Ready = %d claims entry 6 exists", q.Ready())
	}
	if n, ok := q.WaitBatch(0, nil); !ok || n != 0 {
		t.Fatalf("WaitBatch(nil dst) = (%d,%v)", n, ok)
	}
	// Trimmed indexes are gone.
	q.Trim(3)
	if _, ok := q.WaitBatch(0, dst); ok {
		t.Fatal("WaitBatch below the trimmed base reported ok")
	}
	if n, ok := q.WaitBatch(3, dst); !ok || n != 3 || dst[0].WRID != 3 {
		t.Fatalf("WaitBatch(3) after trim = (%d,%v) %v", n, ok, dst[:3])
	}
}

func TestCQWaitBatch(t *testing.T) {
	q := NewCQ()
	got := make(chan []uint64, 1)
	go func() {
		dst := make([]Completion, 8)
		n, ok := q.WaitBatch(0, dst)
		if !ok {
			got <- nil
			return
		}
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = dst[i].WRID
		}
		got <- ids
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block
	q.Push(Completion{WRID: 7})
	ids := <-got
	if len(ids) < 1 || ids[0] != 7 {
		t.Fatalf("WaitBatch woke with %v", ids)
	}

	// Close unblocks a pending WaitBatch with ok=false…
	fail := make(chan bool, 1)
	go func() {
		_, ok := q.WaitBatch(q.Ready(), make([]Completion, 1))
		fail <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	if ok := <-fail; ok {
		t.Fatal("WaitBatch returned ok after Close with nothing pending")
	}
	// …but still drains entries that were produced before the close.
	q2 := NewCQ()
	q2.Push(Completion{WRID: 1})
	q2.Push(Completion{WRID: 2})
	q2.Close()
	dst := make([]Completion, 4)
	if n, ok := q2.WaitBatch(0, dst); !ok || n != 2 {
		t.Fatalf("closed-but-nonempty WaitBatch = (%d,%v)", n, ok)
	}
}

func TestCQTrimCompacts(t *testing.T) {
	// Steady-state producer/consumer reuse: after a Trim the remaining
	// entries sit at the front of the same backing array, so the window
	// never grows beyond its high-water mark.
	q := NewCQ()
	dst := make([]Completion, 8)
	var cursor uint64
	for round := 0; round < 1000; round++ {
		for i := 0; i < 8; i++ {
			q.Push(Completion{WRID: cursor + uint64(i)})
		}
		n, ok := q.WaitBatch(cursor, dst)
		if !ok || n != 8 {
			t.Fatalf("round %d: drained %d", round, n)
		}
		for i := 0; i < n; i++ {
			if dst[i].WRID != cursor+uint64(i) {
				t.Fatalf("round %d: dst[%d].WRID = %d", round, i, dst[i].WRID)
			}
		}
		cursor += uint64(n)
		q.Trim(cursor)
	}
	if q.Ready() != cursor {
		t.Fatalf("ready = %d, want %d", q.Ready(), cursor)
	}
}
