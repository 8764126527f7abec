package netfabric

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"

	"repro/internal/obs"
	"repro/internal/rdma"
)

// tcpWire carries frames over one TCP connection per unordered rank pair.
// The stream gives ordered exactly-once delivery, as every wire here does,
// and it is the one wire that carries READ RPCs. Each peer gets a
// writer goroutine draining a send queue into batched writev flushes
// (net.Buffers), and each connection a reader goroutine running the
// transport's pump over the connection's frameReader.
type tcpWire struct {
	t     *transport
	ln    net.Listener
	addrs []string
	peers []*tcpPeer // nil at [rank]
	// Writers drain and exit before the connections the readers block on
	// are closed (see close).
	wgWriters sync.WaitGroup
	wgReaders sync.WaitGroup
}

// tcpPeer is one remote rank's link: the connection, its buffered reader,
// and the outbound frame queue its writer goroutine drains.
type tcpPeer struct {
	conn  net.Conn
	br    *frameReader
	sendq chan []byte
}

// newTCP binds the listener and exchanges addresses through the
// coordinator.
func newTCP(t *transport, cfg Config) (*tcpWire, error) {
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("netfabric: listen: %w", err)
	}
	book, err := registerHello(cfg.Coord, coordHello{Rank: cfg.Rank, Ranks: cfg.Ranks, Addr: ln.Addr().String()})
	if err != nil {
		ln.Close()
		return nil, err
	}
	return newTCPWire(t, ln, book.Addrs), nil
}

// newTCPWire assembles the wire around an already-bound listener and an
// already-exchanged address book (hybrid registers once for both wires).
// Peer structs and their send queues exist from construction, so frames
// staged before start meshes the connections simply wait for the writer.
func newTCPWire(t *transport, ln net.Listener, addrs []string) *tcpWire {
	w := &tcpWire{t: t, ln: ln, addrs: addrs, peers: make([]*tcpPeer, t.n)}
	for j := range w.peers {
		if j != t.rank {
			w.peers[j] = &tcpPeer{sendq: make(chan []byte, sendQueueFrames)}
		}
	}
	return w
}

// READ RPCs ride the TCP wire alone. A sub-read's frReadResp (region bytes
// plus reqID/status framing) must stay under the frame cap; the stream
// neither loses nor reorders, so each request is sent once and awaited
// without a deadline. Eight sub-reads in flight keep the owner's writer
// streaming; a deeper window buys nothing once the pipe is full.
const (
	readChunkBytes = maxFramePayload - 64 // most region bytes one frReadResp carries
	readWindow     = 8                    // sub-reads in flight at once
)

// start meshes the job — rank i dials every j > i and accepts exactly i
// inbound links, each opened by a frHello identifying the dialer — then
// launches the per-connection readers and per-peer writers.
func (w *tcpWire) start() error {
	t := w.t
	acceptErr := make(chan error, 1)
	go func() { acceptErr <- w.acceptPeers() }()
	for j := t.rank + 1; j < t.n; j++ {
		conn, err := net.Dial("tcp", w.addrs[j])
		if err != nil {
			return fmt.Errorf("netfabric: dial rank %d: %w", j, err)
		}
		hello := appendFrame(nil, frHello, t.rank, nil)
		if _, err := conn.Write(hello); err != nil {
			return fmt.Errorf("netfabric: hello to rank %d: %w", j, err)
		}
		w.attach(j, conn, newFrameReader(conn))
	}
	if err := <-acceptErr; err != nil {
		return err
	}
	for j, p := range w.peers {
		if p == nil {
			continue
		}
		w.wgWriters.Add(1)
		w.wgReaders.Add(1)
		go w.writer(p)
		go w.reader(j, p)
	}
	return nil
}

// acceptPeers collects the inbound half of the mesh: one connection from
// every lower rank, identified by its hello frame.
func (w *tcpWire) acceptPeers() error {
	t := w.t
	for got := 0; got < t.rank; got++ {
		conn, err := w.ln.Accept()
		if err != nil {
			return fmt.Errorf("netfabric: accept: %w", err)
		}
		// The hello's reader must become the link's reader: data frames
		// may already sit buffered behind the hello bytes.
		br := newFrameReader(conn)
		f, err := br.readFrameHeader()
		if err != nil || f.kind != frHello {
			conn.Close()
			return fmt.Errorf("netfabric: bad hello on inbound link: %v", err)
		}
		if f.src >= t.n || f.src == t.rank || w.peers[f.src].conn != nil {
			conn.Close()
			return fmt.Errorf("netfabric: hello from unexpected rank %d", f.src)
		}
		if err := br.Discard(f.payloadLen); err != nil {
			conn.Close()
			return fmt.Errorf("netfabric: hello from rank %d: %v", f.src, err)
		}
		w.attach(f.src, conn, br)
	}
	return nil
}

// attach binds an established connection (and its buffered reader) to the
// pre-allocated peer struct.
func (w *tcpWire) attach(rank int, conn net.Conn, br *frameReader) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	p := w.peers[rank]
	p.conn, p.br = conn, br
}

// reader runs the pump over the connection to rank until the stream fails.
// A stream the peer ended (EOF) or reset while this transport is open is a
// lost peer (transport.peerLost); one this side's Close ended is not.
func (w *tcpWire) reader(rank int, p *tcpPeer) {
	defer w.wgReaders.Done()
	c := &w.t.sink.Counters
	for {
		h, err := w.t.arrive(w, p.br)
		if err != nil {
			if w.t.open() && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, syscall.ECONNRESET)) {
				w.t.peerLost(rank)
			}
			return
		}
		c.Inc(obs.CtrNetRxFrames)
		c.Add(obs.CtrNetRxBytes, uint64(h.payloadLen))
	}
}

// writer drains the send queue into the connection. Frames already queued
// behind the first are flushed in one writev (net.Buffers), so a burst of
// eager sends costs one syscall, not one per message.
func (w *tcpWire) writer(p *tcpPeer) {
	defer w.wgWriters.Done()
	t := w.t
	maxBatch := 64
	owned := make([][]byte, 0, maxBatch)
	var bufs net.Buffers
	dead := false
	for {
		var first []byte
		select {
		case first = <-p.sendq:
		case <-t.done:
			// Shutdown: frames already in the queue were sent before Close
			// (a quiescing world's final control tokens) and must still
			// reach the peer; exit once the queue is empty.
			select {
			case first = <-p.sendq:
			default:
				return
			}
		}
		owned = append(owned[:0], first)
	drain:
		for len(owned) < maxBatch {
			select {
			case f := <-p.sendq:
				owned = append(owned, f)
			default:
				break drain
			}
		}
		if !dead {
			total := 0
			bufs = bufs[:0]
			for _, f := range owned {
				total += len(f)
				bufs = append(bufs, f)
			}
			if _, err := (&bufs).WriteTo(p.conn); err != nil {
				// Peer gone (normal during teardown): keep draining the
				// queue so senders never block on a dead link.
				dead = true
			} else {
				t.sink.Counters.Add(obs.CtrNetTxFrames, uint64(len(owned)))
				t.sink.Counters.Add(obs.CtrNetTxBytes, uint64(total))
				t.sink.Counters.Inc(obs.CtrNetFlushes)
			}
		}
		for i, f := range owned {
			t.frameRecycle(f)
			owned[i] = nil
		}
	}
}

// send stages one frame on the peer's queue. A full queue stalls a data
// send (tallied as CtrNetStalls) until the writer drains — TCP
// backpressure surfaces as latency, never loss — drops a control frame
// with ErrNoReceive, and hands an RPC frame to a goroutine that waits in
// the caller's place.
func (w *tcpWire) send(peer int, kind byte, payload []byte, mode sendMode) error {
	t, p := w.t, w.peers[peer]
	if p == nil {
		return rdma.ErrNoReceive
	}
	buf := t.encode(kind, payload)
	select {
	case p.sendq <- buf:
		return nil
	default:
	}
	switch mode {
	case sendControl:
		t.frameRecycle(buf)
		return rdma.ErrNoReceive
	case sendRPC:
		go func() {
			select {
			case p.sendq <- buf:
			case <-t.done:
				t.frameRecycle(buf)
			}
		}()
		return nil
	}
	t.sink.Counters.Inc(obs.CtrNetStalls)
	if t.sink.Enabled() {
		t.sink.Event(obs.EvNetStall, peer, uint64(peer), uint64(len(payload)), 0)
	}
	select {
	case p.sendq <- buf:
		return nil
	case <-t.done:
		t.frameRecycle(buf)
		return rdma.ErrClosed
	}
}

// close tears the mesh down in two phases: writers drain and exit first
// (so every frame staged before Close reaches the wire), then the
// connections close under the readers.
func (w *tcpWire) close() {
	w.wgWriters.Wait()
	w.ln.Close()
	for _, p := range w.peers {
		if p != nil && p.conn != nil {
			p.conn.Close()
		}
	}
	w.wgReaders.Wait()
}
