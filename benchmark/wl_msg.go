package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dpa"
	"repro/internal/match"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/rdma/netfabric"
)

// Token tags, clear of the data tags [0, K).
const (
	goTag    = 5000 // receiver → sender: the sequence's receives are posted
	ackTag   = 5001 // receiver → sender: the sequence is received and checked
	fenceTag = 5002 // sender → receiver: the whole sequence has been fired
	pingTag  = 5003 // latency ping-pong
)

// fullCompareEvery is how often a rendezvous payload is compared byte for
// byte; the others are checked by their head and tail stamps.
const fullCompareEvery = 64

// link is one sender/receiver pair: rank 0 and rank 1 of one job, hosted
// in this process either by one in-process world or by one networked world
// per rank.
type link struct {
	label    string
	worlds   []*mpi.World
	snd, rcv mpi.Comm
	rcvProc  *mpi.Proc
	cleanup  func() // removes what the worlds left on disk
}

// msgSpec says how a message workload builds its links.
type msgSpec struct {
	transport  string // "inproc", "tcp" or "shm"
	engine     mpi.EngineKind
	matchers   []core.Config // one link per entry (offload engine); nil = one link
	labels     []string
	coalesce   int  // mpi.Options.CoalesceBytes
	storeFirst bool // fire the sequence before its receives are posted
}

var msgSpecs = map[string]msgSpec{
	"nc_burst":   {transport: "inproc", engine: mpi.EngineOffload, matchers: []core.Config{bench.PaperMatcherConfig()}},
	"unexp_wild": {transport: "inproc", engine: mpi.EngineOffload, matchers: []core.Config{bench.PaperMatcherConfig()}, storeFirst: true},
	"wc_burst":   {transport: "inproc", engine: mpi.EngineOffload, matchers: wcMatchers(), labels: []string{"fp", "sp"}},
	"tcp_eager":  {transport: "tcp", engine: mpi.EngineHost, coalesce: 4096},
	"shm_rndv":   {transport: "shm", engine: mpi.EngineHost},
}

// wcMatchers returns the matcher configurations of Figure 8's with-conflict
// fast-path and slow-path scenarios.
func wcMatchers() []core.Config {
	sc := bench.Figure8Scenarios()
	return []core.Config{sc[1].Matcher, sc[2].Matcher}
}

// msgInstance is a built message workload.
type msgInstance struct {
	name     string
	spec     msgSpec
	sz       size
	plans    []seqPlan
	links    []*link
	seq      uint32 // sequences run so far; numbers every sequence of the run
	pattern  []byte // body of a rendezvous payload between its stamps
	snd, rcv *side  // the two driver goroutines' buffers

	// Wall time of the two halves of wc_burst's last repetition.
	halfNs [2]int64
	// Spans around world construction and teardown.
	newNs, closeNs []int64
}

func setupMsg(name string, in inputs, sz size, workDir string, ob obs.Options) (instance, error) {
	spec := msgSpecs[name]
	mi := &msgInstance{name: name, spec: spec, sz: sz, plans: in.Plans}
	if mi.rendezvous() {
		mi.pattern = make([]byte, sz.payload)
		for i := range mi.pattern {
			mi.pattern[i] = byte(i*7 + i>>8)
		}
	}
	opts := mpi.Options{
		Engine:        spec.engine,
		DPA:           dpa.Config{Threads: dpa.DefaultThreads},
		RecvDepth:     2 * sz.k,
		EagerLimit:    eagerLimit,
		CoalesceBytes: spec.coalesce,
		Obs:           ob,
	}
	mi.snd, mi.rcv = mi.newSide(true), mi.newSide(false)
	n := max(len(spec.matchers), 1)
	for i := 0; i < n; i++ {
		if spec.matchers != nil {
			opts.Matcher = spec.matchers[i]
		}
		label := name
		if spec.labels != nil {
			label = spec.labels[i]
		}
		start := time.Now()
		l, err := mi.newLink(label, opts, workDir, ob)
		if err != nil {
			mi.close()
			return nil, err
		}
		mi.newNs = append(mi.newNs, int64(time.Since(start)))
		mi.links = append(mi.links, l)
	}
	return mi, nil
}

func (mi *msgInstance) newLink(label string, opts mpi.Options, workDir string, ob obs.Options) (*link, error) {
	if mi.spec.transport == "inproc" {
		w, err := mpi.NewWorld(2, opts)
		if err != nil {
			return nil, err
		}
		return &link{label: label, worlds: []*mpi.World{w}, snd: w.Proc(0).World(),
			rcv: w.Proc(1).World(), rcvProc: w.Proc(1), cleanup: func() {}}, nil
	}

	// One networked world per rank, both hosted here behind a loopback
	// coordinator. netfabric.New blocks until every rank has registered, so
	// the two ranks are built concurrently.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	go netfabric.ServeCoordinator(ln, 2)
	cleanup := func() {}
	shmDir := ""
	if mi.spec.transport == "shm" {
		if shmDir, err = os.MkdirTemp(workDir, "shm-"); err != nil {
			return nil, err
		}
		cleanup = func() { os.RemoveAll(shmDir) }
	}
	worlds := make([]*mpi.World, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for k := range worlds {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			tr, err := netfabric.New(netfabric.Config{Network: mi.spec.transport, Rank: k, Ranks: 2,
				Coord: ln.Addr().String(), ShmDir: shmDir, Obs: ob})
			if err != nil {
				errs[k] = err
				return
			}
			worlds[k], errs[k] = mpi.NewNetWorld(tr, opts)
		}(k)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		closeWorlds(worlds)
		cleanup()
		return nil, err
	}
	return &link{label: label, worlds: worlds, snd: worlds[0].Proc(0).World(),
		rcv: worlds[1].Proc(1).World(), rcvProc: worlds[1].Proc(1), cleanup: cleanup}, nil
}

func closeWorlds(worlds []*mpi.World) {
	var wg sync.WaitGroup
	for _, w := range worlds {
		if w == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Close()
		}()
	}
	wg.Wait()
}

// eagerLimit is the largest payload the worlds send eagerly.
const eagerLimit = 1024

func (mi *msgInstance) rendezvous() bool { return mi.sz.payload > eagerLimit }

// stamp writes (sequence, position) at the head of buf, and at its tail
// too when buf is longer than one stamp.
func stamp(buf []byte, seq uint32, pos int) {
	binary.LittleEndian.PutUint32(buf[0:], seq)
	binary.LittleEndian.PutUint32(buf[4:], uint32(pos))
	if len(buf) >= 16 {
		copy(buf[len(buf)-8:], buf[:8])
	}
}

// payloadOK checks a received buffer against the stamp it must carry, and
// on every fullCompareEvery-th message against the whole body.
func (mi *msgInstance) payloadOK(buf []byte, seq uint32, pos int, nth int) bool {
	var want [8]byte
	stamp(want[:], seq, pos)
	if !bytes.Equal(buf[:8], want[:]) {
		return false
	}
	if len(buf) < 16 {
		return true
	}
	if !bytes.Equal(buf[len(buf)-8:], want[:]) {
		return false
	}
	if nth%fullCompareEvery == 0 {
		return bytes.Equal(buf[8:len(buf)-8], mi.pattern[8:len(buf)-8])
	}
	return true
}

// side is one driver goroutine's private state on a link.
type side struct {
	bufs [][]byte
	reqs []*mpi.Request
	sts  []mpi.Status
	tok  [1]byte
}

func (mi *msgInstance) newSide(sender bool) *side {
	s := &side{reqs: make([]*mpi.Request, mi.sz.k), sts: make([]mpi.Status, mi.sz.k)}
	n := mi.sz.k
	if sender && !mi.rendezvous() {
		n = 1 // an eager send copies the payload before it returns
	}
	for i := 0; i < n; i++ {
		b := make([]byte, mi.sz.payload)
		if sender && mi.pattern != nil {
			copy(b, mi.pattern)
		}
		s.bufs = append(s.bufs, b)
	}
	return s
}

// sendSeqs is the sender's half of nseq sequences on l, numbered from base.
func (mi *msgInstance) sendSeqs(l *link, s *side, base uint32, nseq int, ln *lane) error {
	for i := 0; i < nseq; i++ {
		seq := base + uint32(i)
		plan := &mi.plans[int(seq)%len(mi.plans)]
		tSeq := ln.begin(spSeq, seq)
		if !mi.spec.storeFirst {
			t := ln.begin(spSync, seq)
			_, err := l.snd.Recv(1, goTag, s.tok[:])
			ln.end(t)
			if err != nil {
				return err
			}
		}
		for pos, tag := range plan.SendTags {
			buf := s.bufs[pos%len(s.bufs)]
			stamp(buf, seq, pos)
			t := ln.begin(spIsend, seq)
			req, err := l.snd.Isend(1, int(tag), buf)
			ln.end(t)
			if err != nil {
				return err
			}
			s.reqs[pos] = req
		}
		if mi.spec.storeFirst {
			t := ln.begin(spSync, seq)
			err := l.snd.Send(1, fenceTag, nil)
			ln.end(t)
			if err != nil {
				return err
			}
		}
		if mi.rendezvous() { // the buffers are in use until the receiver acknowledges
			t := ln.begin(spWaitall, seq)
			err := mpi.Waitall(s.reqs...)
			ln.end(t)
			if err != nil {
				return err
			}
		}
		t := ln.begin(spSync, seq)
		_, err := l.snd.Recv(1, ackTag, s.tok[:])
		ln.end(t)
		ln.end(tSeq)
		if err != nil {
			return err
		}
	}
	return nil
}

// recvSeqs is the receiver's half. With oneByOne each receive is waited for
// as soon as it is posted and timed on its own (the late-receive latency
// unit); otherwise the sequence is posted whole and waited for whole. It
// returns how many messages failed verification.
func (mi *msgInstance) recvSeqs(l *link, s *side, base uint32, nseq int, ln *lane, oneByOne bool, samples []float64) (int, []float64, error) {
	failed := 0
	for i := 0; i < nseq; i++ {
		seq := base + uint32(i)
		plan := &mi.plans[int(seq)%len(mi.plans)]
		tSeq := ln.begin(spSeq, seq)
		if mi.spec.storeFirst {
			t := ln.begin(spSync, seq)
			_, err := l.rcv.Recv(0, fenceTag, s.tok[:])
			ln.end(t)
			if err != nil {
				return failed, samples, err
			}
		}
		for j := range plan.RecvTag {
			var start time.Time
			if oneByOne {
				start = time.Now()
			}
			t := ln.begin(spIrecv, seq)
			req, err := l.rcv.Irecv(int(plan.RecvSrc[j]), int(plan.RecvTag[j]), s.bufs[j])
			ln.end(t)
			if err != nil {
				return failed, samples, err
			}
			s.reqs[j] = req
			if oneByOne {
				if s.sts[j], err = req.Wait(); err != nil {
					return failed, samples, err
				}
				samples = append(samples, float64(time.Since(start)))
			}
		}
		if !mi.spec.storeFirst {
			t := ln.begin(spSync, seq)
			err := l.rcv.Send(0, goTag, nil)
			ln.end(t)
			if err != nil {
				return failed, samples, err
			}
		}
		if !oneByOne {
			t := ln.begin(spWaitall, seq)
			for j, req := range s.reqs {
				var err error
				if s.sts[j], err = req.Wait(); err != nil {
					ln.end(t)
					return failed, samples, err
				}
			}
			ln.end(t)
		}
		t := ln.begin(spVerify, seq)
		for j, pos := range plan.WantPos {
			want := mpi.Status{Source: 0, Tag: int(plan.SendTags[pos]), Count: mi.sz.payload}
			if s.sts[j] != want || !mi.payloadOK(s.bufs[j], seq, int(pos), int(seq)*mi.sz.k+j) {
				failed++
			}
		}
		ln.end(t)
		t = ln.begin(spSync, seq)
		err := l.rcv.Send(0, ackTag, nil)
		ln.end(t)
		ln.end(tSeq)
		if err != nil {
			return failed, samples, err
		}
	}
	return failed, samples, nil
}

// abort closes every world, which releases a driver goroutine blocked on a
// peer that has already given up.
func (mi *msgInstance) abort() {
	for _, l := range mi.links {
		closeWorlds(l.worlds)
	}
}

// both runs the sender's and the receiver's half on their own goroutines
// and waits for both: the two driver goroutines of a message workload.
func (mi *msgInstance) both(sender, receiver func() error) error {
	errs := make([]error, driverGoroutines)
	var wg sync.WaitGroup
	for i, f := range []func() error{sender, receiver} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = f(); errs[i] != nil {
				mi.abort()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// rep runs one repetition: sz.repSeqs sequences, split evenly over the
// links (one after the other, so each link's share is timed on its own).
func (mi *msgInstance) rep(tr *tracer) (opResult, error) {
	res := opResult{attempted: mi.sz.repSeqs * mi.sz.k}
	per := mi.sz.repSeqs / len(mi.links)
	sndLane, rcvLane := tr.lane("rank0.sender"), tr.lane("rank1.receiver")
	snd, rcv := mi.snd, mi.rcv
	tS, tR := sndLane.begin(spRep, mi.seq), rcvLane.begin(spRep, mi.seq)
	for i, l := range mi.links {
		start := time.Now()
		base := mi.seq
		mi.seq += uint32(per)
		err := mi.both(
			func() error { return mi.sendSeqs(l, snd, base, per, sndLane) },
			func() error {
				failed, _, err := mi.recvSeqs(l, rcv, base, per, rcvLane, false, nil)
				res.failed += failed
				return err
			})
		if err != nil {
			res.failed = res.attempted
			return res, fmt.Errorf("%s link %s: %w", mi.name, l.label, err)
		}
		mi.halfNs[i%2] = int64(time.Since(start))
	}
	sndLane.end(tS)
	rcvLane.end(tR)
	return res, nil
}

// latency times n units one by one. The unit depends on the workload: an
// 8-byte or 256 KiB ping-pong (half the round trip), one conflicted block
// (first send to acknowledgement), or one late receive.
func (mi *msgInstance) latency(n int, samples []float64) ([]float64, opResult, error) {
	switch {
	case mi.spec.storeFirst:
		return mi.lateRecvLatency(n, samples)
	case len(mi.links) > 1:
		return mi.blockLatency(n, samples)
	default:
		return mi.pingPong(n, samples)
	}
}

func (mi *msgInstance) pingPong(n int, samples []float64) ([]float64, opResult, error) {
	l := mi.links[0]
	res := opResult{attempted: n}
	base := mi.seq
	mi.seq += uint32(n)
	out := make([]byte, mi.sz.payload)
	back := make([]byte, mi.sz.payload)
	echo := make([]byte, mi.sz.payload)
	if mi.pattern != nil {
		copy(out, mi.pattern)
	}
	err := mi.both(
		func() error {
			for i := 0; i < n; i++ {
				stamp(out, base+uint32(i), 0)
				start := time.Now()
				if err := l.snd.Send(1, pingTag, out); err != nil {
					return err
				}
				st, err := l.snd.Recv(1, pingTag, back)
				if err != nil {
					return err
				}
				samples = append(samples, float64(time.Since(start))/2)
				if st != (mpi.Status{Source: 1, Tag: pingTag, Count: len(out)}) ||
					!mi.payloadOK(back, base+uint32(i), 0, i) {
					res.failed++
				}
			}
			return nil
		},
		func() error {
			for i := 0; i < n; i++ {
				if _, err := l.rcv.Recv(0, pingTag, echo); err != nil {
					return err
				}
				if err := l.rcv.Send(0, pingTag, echo); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		res.failed = res.attempted
	}
	return samples, res, err
}

// blockLatency times conflicted blocks: the receiver posts one block's
// worth of same-key receives, and the sample runs from the sender's first
// Isend to its receipt of the acknowledgement. Units alternate between the
// links (fast path, slow path).
func (mi *msgInstance) blockLatency(n int, samples []float64) ([]float64, opResult, error) {
	block := min(mi.spec.matchers[0].BlockSize, mi.sz.k)
	res := opResult{attempted: n}
	snd, rcv := mi.snd, mi.rcv
	base := mi.seq
	mi.seq += uint32(n)
	err := mi.both(
		func() error {
			for i := 0; i < n; i++ {
				l := mi.links[i%len(mi.links)]
				seq := base + uint32(i)
				if _, err := l.snd.Recv(1, goTag, snd.tok[:]); err != nil {
					return err
				}
				start := time.Now()
				for pos := 0; pos < block; pos++ {
					stamp(snd.bufs[0], seq, pos)
					if _, err := l.snd.Isend(1, wcTag, snd.bufs[0]); err != nil {
						return err
					}
				}
				if _, err := l.snd.Recv(1, ackTag, snd.tok[:]); err != nil {
					return err
				}
				samples = append(samples, float64(time.Since(start)))
			}
			return nil
		},
		func() error {
			for i := 0; i < n; i++ {
				l := mi.links[i%len(mi.links)]
				seq := base + uint32(i)
				for j := 0; j < block; j++ {
					req, err := l.rcv.Irecv(0, wcTag, rcv.bufs[j])
					if err != nil {
						return err
					}
					rcv.reqs[j] = req
				}
				if err := l.rcv.Send(0, goTag, nil); err != nil {
					return err
				}
				ok := true
				for j := 0; j < block; j++ {
					st, err := rcv.reqs[j].Wait()
					if err != nil {
						return err
					}
					// Same source, same tag: the j-th message sent must
					// land in the j-th receive posted.
					if st != (mpi.Status{Source: 0, Tag: wcTag, Count: mi.sz.payload}) ||
						!mi.payloadOK(rcv.bufs[j], seq, j, 1) {
						ok = false
					}
				}
				if !ok {
					res.failed++
				}
				if err := l.rcv.Send(0, ackTag, nil); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		res.failed = res.attempted
	}
	return samples, res, err
}

// lateRecvLatency times Irecv+Wait for messages that are already in the
// unexpected store, one sequence of K units at a time.
func (mi *msgInstance) lateRecvLatency(n int, samples []float64) ([]float64, opResult, error) {
	l := mi.links[0]
	nseq := (n + mi.sz.k - 1) / mi.sz.k
	res := opResult{attempted: nseq * mi.sz.k}
	base := mi.seq
	mi.seq += uint32(nseq)
	snd, rcv := mi.snd, mi.rcv
	err := mi.both(
		func() error { return mi.sendSeqs(l, snd, base, nseq, nil) },
		func() error {
			var err error
			res.failed, samples, err = mi.recvSeqs(l, rcv, base, nseq, nil, true, samples)
			return err
		})
	if err != nil {
		res.failed = res.attempted
	}
	return samples, res, err
}

// close tears the links down and removes what they left on disk.
func (mi *msgInstance) close() error {
	for _, l := range mi.links {
		start := time.Now()
		closeWorlds(l.worlds)
		mi.closeNs = append(mi.closeNs, int64(time.Since(start)))
		l.cleanup()
	}
	return nil
}

// checkGolden drives match.ListMatcher with every plan's order (all
// arrivals, then all posts) and checks that it pairs each receive with the
// message the plan expects. It is the independent statement of what
// unexp_wild's receives must get.
func checkGolden(plans []seqPlan) error {
	for pi, p := range plans {
		lm := match.NewListMatcher()
		for pos, tag := range p.SendTags {
			if _, ok := lm.Arrive(&match.Envelope{Source: 0, Tag: match.Tag(tag), Seq: uint64(pos) + 1}); ok {
				return fmt.Errorf("plan %d: message %d matched before any receive was posted", pi, pos)
			}
		}
		for j := range p.RecvTag {
			env, ok := lm.PostRecv(&match.Recv{Source: match.Rank(p.RecvSrc[j]), Tag: match.Tag(p.RecvTag[j])})
			if !ok || env.Seq != uint64(p.WantPos[j])+1 {
				return fmt.Errorf("plan %d: receive %d: list matcher pairs it differently from the plan", pi, j)
			}
		}
		if lm.UnexpectedDepth() != 0 {
			return fmt.Errorf("plan %d: %d messages left over", pi, lm.UnexpectedDepth())
		}
	}
	return nil
}

// layers reads what the links' layers counted: the receiver's matcher and
// arrival pipeline, both ranks' coalescers, and the fabric.
func (mi *msgInstance) layers(m metricSet) {
	var st core.EngineStats
	var depth match.Stats
	var blockNs, drain, width obs.HistSnapshot
	var flushes [4]uint64
	var retx uint64
	for _, l := range mi.links {
		if mt := l.rcvProc.Matcher(); mt != nil {
			s := mt.Stats()
			st = addEngineStats(st, s)
			depth = depth.Add(mt.DepthStats())
			// wc_burst: the fast-path link must never take the slow path,
			// and the other way round.
			switch l.label {
			case "fp":
				m["core.wc_fp_link_slow_path"] = float64(s.SlowPath)
			case "sp":
				m["core.wc_sp_link_fast_path"] = float64(s.FastPath)
			}
		} else {
			depth = depth.Add(l.rcvProc.HostStats())
		}
		blockNs = addHist(blockNs, l.rcvProc.Obs().Hist(obs.HistBlockNs))
		drain = addHist(drain, l.rcvProc.Obs().Hist(obs.HistDrainBatch))
		for _, w := range l.worlds {
			retx += w.ReliabilityStats().Retransmits
			for _, p := range w.LocalProcs() {
				c := &p.Obs().Counters
				width = addHist(width, p.Obs().Hist(obs.HistCoalesceWidth))
				flushes[0] += c.Load(obs.CtrCoalesceFlushSize)
				flushes[1] += c.Load(obs.CtrCoalesceFlushCount)
				flushes[2] += c.Load(obs.CtrCoalesceFlushSync)
				flushes[3] += c.Load(obs.CtrCoalesceFlushTimeout)
			}
		}
	}
	per := func(v, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(v) / float64(n)
	}
	if st.Messages > 0 {
		m["core.optimistic_ratio"] = per(st.Optimistic, st.Messages)
		m["core.conflicts_per_msg"] = per(st.Conflicts, st.Messages)
		m["core.fast_path_per_msg"] = per(st.FastPath, st.Messages)
		m["core.slow_path_per_msg"] = per(st.SlowPath, st.Messages)
		m["core.revalidated_per_msg"] = per(st.Revalidated, st.Messages)
		m["core.steals_per_msg"] = per(st.Steals, st.Messages)
		m["core.unexpected_per_msg"] = per(st.Unexpected, st.Messages)
		m["core.lazy_reaped_per_msg"] = per(st.LazyReaped, st.Messages)
		m["dpa.msgs_per_block"] = per(st.Messages, st.Blocks)
	}
	m["core.post_traversed_per_search"] = per(depth.PostTraversed, depth.PostSearches)
	m["core.arrive_traversed_per_search"] = per(depth.ArriveTraversed, depth.ArriveSearches)
	m["dpa.block_ns_mean"] = per(blockNs.Sum, blockNs.Count)
	m["dpa.cq_drain_batch_mean"] = per(drain.Sum, drain.Count)
	m["mpi.coalesce_width_mean"] = per(width.Sum, width.Count)
	total := flushes[0] + flushes[1] + flushes[2] + flushes[3]
	for i, name := range []string{"size", "count", "sync", "timeout"} {
		m["mpi.coalesce_flush_"+name+"_share"] = per(flushes[i], total)
	}
	m["mpi.rel_retransmits"] = float64(retx)
	m["mpi.world_new_ms"] = meanNs(mi.newNs) / 1e6
	m["mpi.world_close_ms"] = meanNs(mi.closeNs) / 1e6
	if len(mi.links) == 2 && mi.halfNs[0] > 0 && mi.halfNs[1] > 0 {
		half := float64(mi.sz.repSeqs / 2 * mi.sz.k)
		m["mpi.wc_fp_msg_rate"] = half / (float64(mi.halfNs[0]) / 1e9)
		m["mpi.wc_sp_msg_rate"] = half / (float64(mi.halfNs[1]) / 1e9)
	}
}

func addEngineStats(a, b core.EngineStats) core.EngineStats {
	a.Blocks += b.Blocks
	a.Messages += b.Messages
	a.Optimistic += b.Optimistic
	a.Conflicts += b.Conflicts
	a.FastPath += b.FastPath
	a.SlowPath += b.SlowPath
	a.Unexpected += b.Unexpected
	a.LazyReaped += b.LazyReaped
	a.Revalidated += b.Revalidated
	a.Steals += b.Steals
	return a
}

func addHist(a, b obs.HistSnapshot) obs.HistSnapshot {
	a.Count += b.Count
	a.Sum += b.Sum
	return a
}

func meanNs(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum int64
	for _, x := range v {
		sum += x
	}
	return float64(sum) / float64(len(v))
}
