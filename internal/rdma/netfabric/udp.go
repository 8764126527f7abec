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
// rate, with per-peer splitmix64 streams exactly like the in-process fault
// injector.
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
		w.peers[j] = newUDPPeer(w, j, ua, cfg.Faults)
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
// peer's fault stream (a "dropped" request is exactly the loss the read
// retry exists to absorb); sacks and READ responses go out un-faulted,
// the exemption the in-process injector gives SendControl.
func (w *udpWire) send(peer int, kind byte, payload []byte, mode sendMode) error {
	p := w.peers[peer]
	if p == nil {
		return rdma.ErrNoReceive
	}
	buf := w.t.encode(kind, payload)
	if p.active && (mode == sendData || kind == frReadReq) {
		if buf = p.inject(buf); buf == nil {
			return nil
		}
	}
	p.transmit(buf)
	w.t.frameRecycle(buf)
	return nil
}

// udpPeer is one destination: its address and its deterministic fault
// stream, mirroring the in-process injector — each faultable send draws a
// fixed number of PRNG values under the lock, so decisions are a pure
// function of (seed, peer pair, send ordinal).
type udpPeer struct {
	w    *udpWire
	addr *net.UDPAddr

	mu       sync.Mutex
	rng      uint64
	rates    rdma.FaultRates
	active   bool
	held     []byte // a delayed datagram awaiting re-injection
	heldSpan int
}

func newUDPPeer(w *udpWire, rank int, addr *net.UDPAddr, plan rdma.FaultPlan) *udpPeer {
	p := &udpPeer{w: w, addr: addr, rates: plan.FaultRates, active: plan.Active()}
	if p.rates.DelaySpan <= 0 {
		p.rates.DelaySpan = 1
	}
	// Stream seed mixes the ordered pair (me -> peer) so the two
	// directions of a link fault independently, as two QPs would.
	p.rng = splitmix(plan.Seed ^ (uint64(w.t.rank*w.t.n+rank)+1)*0x9E3779B97F4A7C15)
	return p
}

// splitmix is the SplitMix64 step (same generator as the in-process
// injector, repro/internal/rdma/fault.go).
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (p *udpPeer) next() float64 {
	p.rng = splitmix(p.rng)
	return float64(p.rng>>11) / (1 << 53)
}

// inject applies one send's fault verdict. It may consume buf (drop,
// delay) and may return a previously delayed datagram for transmission
// alongside; the caller transmits whatever comes back.
func (p *udpPeer) inject(buf []byte) []byte {
	t := p.w.t
	p.mu.Lock()
	// Fixed draw order keeps the stream aligned regardless of verdicts.
	drop := p.next() < p.rates.Drop
	dup := p.next() < p.rates.Duplicate
	delay := p.next() < p.rates.Delay

	// A held datagram re-enters the wire once enough sends overtake it.
	var release []byte
	if p.held != nil {
		p.heldSpan--
		if p.heldSpan <= 0 {
			release = p.held
			p.held = nil
		}
	}
	switch {
	case drop:
		t.sink.Counters.Inc(obs.CtrFaultDropped)
		t.frameRecycle(buf)
		buf = nil
	case dup:
		t.sink.Counters.Inc(obs.CtrFaultDuplicated)
		p.mu.Unlock()
		p.transmit(buf) // first copy; caller sends the second
		p.mu.Lock()
	case delay && p.held == nil:
		t.sink.Counters.Inc(obs.CtrFaultDelayed)
		p.held = buf
		p.heldSpan = p.rates.DelaySpan
		buf = nil
	}
	p.mu.Unlock()
	if release != nil {
		p.transmit(release)
		t.frameRecycle(release)
	}
	return buf
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
