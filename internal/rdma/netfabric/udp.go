package netfabric

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rdma"
)

// udpWire carries every frame as one datagram on a single socket.
// Datagrams drop, duplicate, and reorder — the wire reports !reliable()
// and the MPI reliability sublayer (sequencing, dedup, reorder repair,
// sack/retransmit) becomes the delivery filter. A deterministic
// rdma.FaultPlan on the send path forces those repairs at any configured
// rate, each link drawing from the same rdma.FaultStream the in-process QP
// uses.
type udpWire struct {
	t           *transport
	conn        *net.UDPConn
	peers       []*udpPeer // nil at [rank]
	readTimeout time.Duration
	wg          sync.WaitGroup
}

func newUDP(t *transport, cfg Config) (*udpWire, error) {
	laddr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("netfabric: resolve %q: %w", cfg.Listen, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("netfabric: listen udp: %w", err)
	}
	book, err := registerHello(cfg.Coord, coordHello{Rank: cfg.Rank, Ranks: cfg.Ranks, Addr: conn.LocalAddr().String()})
	if err != nil {
		conn.Close()
		return nil, err
	}
	w := &udpWire{t: t, conn: conn, peers: make([]*udpPeer, cfg.Ranks), readTimeout: cfg.ReadTimeout}
	for j, a := range book.Addrs {
		if j == cfg.Rank {
			continue
		}
		ua, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("netfabric: peer %d addr %q: %w", j, a, err)
		}
		w.peers[j] = &udpPeer{w: w, addr: ua, faults: cfg.Faults.Stream(cfg.Rank*cfg.Ranks+j, t.sink)}
	}
	return w, nil
}

func (w *udpWire) reliable() bool { return false }

// readPlan: a sub-read's 60 000 region bytes keep its frReadResp inside one
// datagram, so the cap sizes datagrams without capping rendezvous
// payloads; four in flight pipeline the retry latency without
// burst-dropping on a lossy link; and since request and response are both
// droppable and the request idempotent, it is sent up to eight times on a
// doubling timeout.
func (w *udpWire) readPlan() readPlan {
	return readPlan{chunk: 60000, window: 4, attempts: 8, timeout: w.readTimeout}
}

func (w *udpWire) start() error {
	w.wg.Add(1)
	go w.reader()
	return nil
}

// reader drains the socket into the pump, one datagram per frame.
// Anything malformed is dropped — over UDP, garbage is indistinguishable
// from line noise and the reliability layer repairs the loss.
func (w *udpWire) reader() {
	defer w.wg.Done()
	c := &w.t.sink.Counters
	scratch := make([]byte, 64<<10)
	var fr frameReader
	for {
		n, _, err := w.conn.ReadFromUDP(scratch)
		if err != nil {
			return // socket closed
		}
		fr.load(scratch[:n])
		h, err := w.t.arrive(w, &fr)
		if errors.Is(err, rdma.ErrClosed) {
			return
		}
		if err == nil {
			c.Inc(obs.CtrNetRxFrames)
			c.Add(obs.CtrNetRxBytes, uint64(h.payloadLen))
		}
	}
}

func (w *udpWire) close() {
	w.conn.Close()
	w.wg.Wait()
}

// send transmits one datagram and never blocks: WriteToUDP either queues
// in the kernel or drops, the fire-and-forget semantics the reliability
// layer is built for. Data frames and READ requests pass through the
// link's fault stream (a "dropped" request is exactly the loss the read
// retry exists to absorb); sacks and READ responses go out un-faulted,
// the exemption the in-process QP gives SendControl.
func (w *udpWire) send(peer int, kind byte, payload []byte, mode sendMode) error {
	p := w.peers[peer]
	if p == nil {
		return rdma.ErrNoReceive
	}
	buf := w.t.encode(kind, payload)
	if p.faults != nil && (mode == sendData || kind == frReadReq) {
		p.inject(buf)
		return nil
	}
	p.transmit(buf)
	w.t.frameRecycle(buf)
	return nil
}

// udpPeer is one destination: its address, the fault stream of the link
// toward it (nil without a plan) and the datagram that stream is holding
// back, guarded by the stream's lock.
type udpPeer struct {
	w    *udpWire
	addr *net.UDPAddr

	faults   *rdma.FaultStream
	held     []byte // a delayed datagram awaiting re-injection
	heldSpan int
}

// inject applies one send's fault verdict to buf, which it owns: the
// datagram is dropped, held back until DelaySpan later sends have overtaken
// it, or transmitted (twice for a duplicate). The RNR and stall verdicts
// have no meaning on a datagram socket and are ignored. Transmitting under
// the stream's lock keeps the wire order of concurrent senders the order of
// their draws.
func (p *udpPeer) inject(buf []byte) {
	t, s := p.w.t, p.faults
	s.Lock()
	defer s.Unlock()
	v := s.Decide()
	switch {
	case v.Drop:
		s.Note(obs.CtrFaultDropped)
		t.frameRecycle(buf)
	case v.Delay && p.held == nil:
		s.Note(obs.CtrFaultDelayed)
		p.held, p.heldSpan = buf, s.Rates.DelaySpan
		return // nothing overtook it yet
	default:
		p.transmit(buf)
		if v.Dup {
			s.Note(obs.CtrFaultDuplicated)
			p.transmit(buf)
		}
		t.frameRecycle(buf)
	}
	if p.held != nil {
		if p.heldSpan--; p.heldSpan <= 0 {
			p.transmit(p.held)
			t.frameRecycle(p.held)
			p.held = nil
		}
	}
}

func (p *udpPeer) transmit(buf []byte) {
	t := p.w.t
	if _, err := p.w.conn.WriteToUDP(buf, p.addr); err != nil {
		return
	}
	t.sink.Counters.Inc(obs.CtrNetTxFrames)
	t.sink.Counters.Add(obs.CtrNetTxBytes, uint64(len(buf)))
	t.sink.Counters.Inc(obs.CtrNetFlushes)
}
