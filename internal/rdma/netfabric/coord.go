package netfabric

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"
)

// The coordinator is the job's rendezvous point: every rank connects,
// announces its rank and data-plane address, and blocks until all N
// ranks have done the same, at which point each receives the full
// address book. Registration therefore doubles as the startup barrier —
// no rank's transport exists before every rank's socket is bound.
//
// The protocol is two JSON lines over TCP:
//
//	rank -> coord:  {"rank":K,"ranks":N,"addr":"127.0.0.1:4242"}\n
//	coord -> rank:  {"addrs":["127.0.0.1:4242",...]}\n        (or {"error":...})
//
// Hybrid ranks additionally announce the host they run on and the path of
// their shared-memory segment; the book then carries the full host map,
// which is what locality-aware routing consults to pick shm vs TCP per
// peer.

type coordHello struct {
	Rank  int    `json:"rank"`
	Ranks int    `json:"ranks"`
	Addr  string `json:"addr"`
	Host  string `json:"host,omitempty"`
	Shm   string `json:"shm,omitempty"`
}

type coordBook struct {
	Addrs []string `json:"addrs,omitempty"`
	Hosts []string `json:"hosts,omitempty"`
	Shms  []string `json:"shms,omitempty"`
	Error string   `json:"error,omitempty"`
}

// ServeCoordinator runs one rendezvous round on ln: it collects a hello
// from each of ranks distinct ranks, sends everyone the address book,
// and returns. A malformed or conflicting hello fails the whole round —
// a half-meshed job can only hang.
func ServeCoordinator(ln net.Listener, ranks int) error {
	conns := make([]net.Conn, ranks)
	addrs := make([]string, ranks)
	hosts := make([]string, ranks)
	shms := make([]string, ranks)
	anyHost, anyShm := false, false
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for got := 0; got < ranks; {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("netfabric: coordinator accept: %w", err)
		}
		conn.SetDeadline(time.Now().Add(30 * time.Second))
		var h coordHello
		if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&h); err != nil {
			conn.Close()
			return fmt.Errorf("netfabric: coordinator: bad hello: %w", err)
		}
		switch {
		case h.Ranks != ranks:
			err = fmt.Errorf("netfabric: rank %d expects %d ranks, coordinator has %d", h.Rank, h.Ranks, ranks)
		case h.Rank < 0 || h.Rank >= ranks:
			err = fmt.Errorf("netfabric: hello from out-of-range rank %d", h.Rank)
		case conns[h.Rank] != nil:
			err = fmt.Errorf("netfabric: duplicate hello from rank %d", h.Rank)
		case h.Addr == "":
			err = fmt.Errorf("netfabric: rank %d sent no address", h.Rank)
		}
		if err != nil {
			reply(conn, coordBook{Error: err.Error()})
			conn.Close()
			return err
		}
		conns[h.Rank], addrs[h.Rank] = conn, h.Addr
		hosts[h.Rank], shms[h.Rank] = h.Host, h.Shm
		anyHost = anyHost || h.Host != ""
		anyShm = anyShm || h.Shm != ""
		got++
	}
	book := coordBook{Addrs: addrs}
	if anyHost {
		book.Hosts = hosts
	}
	if anyShm {
		book.Shms = shms
	}
	for _, c := range conns {
		if err := reply(c, book); err != nil {
			return fmt.Errorf("netfabric: coordinator: send book: %w", err)
		}
	}
	return nil
}

func reply(conn net.Conn, book coordBook) error {
	b, err := json.Marshal(book)
	if err != nil {
		return err
	}
	_, err = conn.Write(append(b, '\n'))
	return err
}

// registerHello announces this rank — its data-plane address, plus host
// and shm segment where the network has them — and blocks until the
// coordinator releases the full book: the startup barrier every wire
// constructor passes through.
func registerHello(coord string, hello coordHello) (coordBook, error) {
	var book coordBook
	conn, err := net.DialTimeout("tcp", coord, 30*time.Second)
	if err != nil {
		return book, fmt.Errorf("netfabric: dial coordinator %s: %w", coord, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	b, err := json.Marshal(hello)
	if err != nil {
		return book, err
	}
	if _, err := conn.Write(append(b, '\n')); err != nil {
		return book, fmt.Errorf("netfabric: register with coordinator: %w", err)
	}
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&book); err != nil {
		return book, fmt.Errorf("netfabric: await address book: %w", err)
	}
	if book.Error != "" {
		return book, fmt.Errorf("netfabric: coordinator rejected rank %d: %s", hello.Rank, book.Error)
	}
	if len(book.Addrs) != hello.Ranks {
		return book, fmt.Errorf("netfabric: address book has %d entries, want %d", len(book.Addrs), hello.Ranks)
	}
	return book, nil
}
