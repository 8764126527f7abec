package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/dpa"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/rdma"
	"repro/internal/rdma/netfabric"
)

// The layer probes time one layer at a time from outside, through its
// public functions, with nothing else running: no world, no driver
// goroutines. Each does a fixed amount of work. They run in the traced run
// after the workload itself, on the inputs the workload generated.

// probeInput is what the probes take from the workload.
type probeInput struct {
	plans      []seqPlan
	storeFirst bool // arrivals before posts
	workDir    string
	div        int // divides every probe's fixed work: 1, or more for the smoke pass
}

// probe is one isolated layer measurement. only limits it to the workloads
// whose layers it describes and whose run can afford it; nil runs it on all.
type probe struct {
	name string
	only []string
	run  func(in probeInput, m metricSet) error
}

var probes = []probe{
	{name: "rdma", run: probeRDMA},
	{name: "dpa", run: probeDPA},
	{name: "core", run: probeCore},
	{name: "match", run: probeList},
	{name: "netfabric.tcp", run: func(in probeInput, m metricSet) error { return probeNet("tcp", in, m) }},
	{name: "netfabric.shm", run: func(in probeInput, m metricSet) error { return probeNet("shm", in, m) }},
	{name: "daemon.client", only: []string{"daemon_churn"}, run: probeDaemonClient},
}

const (
	probeBurst  = 128   // messages per burst: below every queue depth used here
	probeBursts = 300   // bursts per send-cost measurement
	probeSingle = 10000 // one-at-a-time messages per one-way measurement
	probeReads  = 200   // 256 KiB reads per READ measurement
	probeRounds = 200   // sequences replayed through a bare matcher
	bigPayload  = 256 << 10
)

// drain takes n completions off cq from cursor on, reposting every buffer,
// and returns the new cursor and the time spent inside WaitBatch.
func drain(cq *rdma.CQ, rq *rdma.RecvQueue, cursor uint64, n int, scratch []rdma.Completion) (uint64, time.Duration, error) {
	var waited time.Duration
	for got := 0; got < n; {
		start := time.Now()
		k, ok := cq.WaitBatch(cursor, scratch)
		waited += time.Since(start)
		if !ok {
			return cursor, waited, errors.New("completion queue closed under the probe")
		}
		for _, c := range scratch[:k] {
			if c.Err != nil {
				return cursor, waited, c.Err
			}
			rq.Post(c.Data[:cap(c.Data)], 0)
		}
		cursor += uint64(k)
		cq.Trim(cursor)
		got += k
	}
	return cursor, waited, nil
}

// sendCosts measures an endpoint from outside: the time inside Send over
// bursts, the time inside WaitBatch per completion while draining them, and
// the one-way time of single messages (Send until the completion is
// visible at the receiver).
func sendCosts(ep rdma.Endpoint, cq *rdma.CQ, rq *rdma.RecvQueue, div int) (sendNs, waitNsPerCQE, onewayNs float64, err error) {
	msg := make([]byte, 64)
	scratch := make([]rdma.Completion, probeBurst)
	var cursor uint64
	var inSend, inWait time.Duration
	bursts, singles := probeBursts/div, probeSingle/div
	for b := 0; b < bursts; b++ {
		start := time.Now()
		for i := 0; i < probeBurst; i++ {
			if err = ep.Send(msg, 0, 0); err != nil {
				return
			}
		}
		inSend += time.Since(start)
		var w time.Duration
		if cursor, w, err = drain(cq, rq, cursor, probeBurst, scratch); err != nil {
			return
		}
		inWait += w
	}
	start := time.Now()
	for i := 0; i < singles; i++ {
		if err = ep.Send(msg, 0, 0); err != nil {
			return
		}
		if cursor, _, err = drain(cq, rq, cursor, 1, scratch); err != nil {
			return
		}
	}
	oneway := time.Since(start)
	total := float64(bursts * probeBurst)
	return float64(inSend) / total, float64(inWait) / total, float64(oneway) / float64(singles), nil
}

func postBuffers(rq *rdma.RecvQueue, n, size int) {
	for i := 0; i < n; i++ {
		rq.Post(make([]byte, size), 0)
	}
}

// probeRDMA measures the in-process fabric: a connected QP pair with
// pre-posted receives.
func probeRDMA(in probeInput, m metricSet) error {
	f := rdma.NewFabric()
	cq, rq := rdma.NewCQ(), rdma.NewRecvQueue(2*probeBurst)
	postBuffers(rq, 2*probeBurst, 128)
	snd, rcv := f.ConnectPair(rdma.QPConfig{Depth: 2 * probeBurst},
		rdma.QPConfig{RecvCQ: cq, RQ: rq, Depth: 2 * probeBurst})
	defer snd.Close()
	defer rcv.Close()
	var err error
	m["rdma.qp_send_ns"], m["rdma.cq_wait_ns_per_cqe"], m["rdma.qp_oneway_ns"], err = sendCosts(snd, cq, rq, in.div)
	return err
}

// probeDPA measures the simulated accelerator: the dispatch and barrier of
// an empty block, and the arrival pipeline over a real matcher with a
// trivial decoder and handler, at one and at four blocks in flight.
func probeDPA(in probeInput, m metricSet) error {
	acc := dpa.MustNew(dpa.Config{Threads: dpa.DefaultThreads})
	blocks := 20000 / in.div
	start := time.Now()
	for i := 0; i < blocks; i++ {
		acc.RunBlock(dpa.DefaultThreads, func(int) {})
	}
	m["dpa.run_block_ns"] = float64(time.Since(start)) / float64(blocks)
	acc.Close()

	for _, depth := range []int{1, 4} {
		cfg := bench.PaperMatcherConfig()
		cfg.InFlightBlocks = depth
		acc := dpa.MustNew(dpa.Config{Threads: depth * cfg.BlockSize})
		nsPerMsg, activations, err := pipelineCost(acc, cfg, in.plans, probeRounds/in.div)
		acc.Close()
		if err != nil {
			return err
		}
		if depth == 1 {
			m["dpa.pipeline_ns_per_msg"] = nsPerMsg
			m["dpa.activations_per_msg"] = activations
		} else {
			m["dpa.pipeline_k4_ns_per_msg"] = nsPerMsg
		}
	}
	return nil
}

// pipelineCost pushes the plans' sequences as completions into a Pipeline
// and times each from its first Push to its last Handle. The receives are
// posted before the clock starts.
func pipelineCost(acc *dpa.Accelerator, cfg core.Config, plans []seqPlan, rounds int) (nsPerMsg, activationsPerMsg float64, err error) {
	matcher, err := core.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	cq := rdma.NewCQ()
	p := dpa.NewPipeline(acc, matcher, cq)
	var handled atomic.Int64
	var unexpected atomic.Int64
	done := make(chan struct{}, 1)
	var target atomic.Int64
	p.Decode = func(c rdma.Completion, env *match.Envelope) *match.Envelope {
		env.Source, env.Tag, env.Comm = 0, match.Tag(c.WRID), match.WorldComm
		return env
	}
	p.Handle = func(_ int, res core.Result, _ rdma.Completion) {
		if res.Unexpected {
			unexpected.Add(1)
		}
		if handled.Add(1) == target.Load() {
			done <- struct{}{}
		}
	}
	p.Start()
	defer p.Stop()

	before := acc.Activations()
	var total time.Duration
	msgs := 0
	for round := 0; round < rounds; round++ {
		plan := &plans[round%len(plans)]
		recvs := make([]match.Recv, len(plan.SendTags))
		for i, tag := range plan.SendTags { // fully specified: the pipeline's common case
			recvs[i] = match.Recv{Source: 0, Tag: match.Tag(tag), Comm: match.WorldComm}
			if _, _, err := matcher.PostRecv(&recvs[i]); err != nil {
				return 0, 0, err
			}
		}
		target.Store(handled.Load() + int64(len(plan.SendTags)))
		start := time.Now()
		for _, tag := range plan.SendTags {
			cq.Push(rdma.Completion{Op: rdma.OpRecv, WRID: uint64(tag)})
		}
		<-done
		total += time.Since(start)
		msgs += len(plan.SendTags)
	}
	if n := unexpected.Load(); n > 0 {
		return 0, 0, fmt.Errorf("pipeline probe: %d messages found no receive", n)
	}
	return float64(total) / float64(msgs), float64(acc.Activations()-before) / float64(msgs), nil
}

// replay drives one matcher with the plans' posts and envelopes in the
// workload's order (posts first, or arrivals first) and returns the time
// inside the post calls and inside the arrive calls, and the message count.
func replay(in probeInput, post func(*match.Recv) error, arrive func([]*match.Envelope)) (postNs, arriveNs time.Duration, msgs int, err error) {
	for round := 0; round < probeRounds/in.div; round++ {
		plan := &in.plans[round%len(in.plans)]
		recvs := make([]match.Recv, len(plan.RecvTag))
		envs := make([]*match.Envelope, len(plan.SendTags))
		for i, tag := range plan.SendTags {
			envs[i] = &match.Envelope{Source: 0, Tag: match.Tag(tag), Comm: match.WorldComm}
		}
		doPosts := func() error {
			start := time.Now()
			for j := range recvs {
				recvs[j] = match.Recv{Source: match.Rank(plan.RecvSrc[j]), Tag: match.Tag(plan.RecvTag[j]), Comm: match.WorldComm}
				if err := post(&recvs[j]); err != nil {
					return err
				}
			}
			postNs += time.Since(start)
			return nil
		}
		doArrivals := func() {
			start := time.Now()
			arrive(envs)
			arriveNs += time.Since(start)
		}
		if in.storeFirst {
			doArrivals()
			err = doPosts()
		} else {
			if err = doPosts(); err == nil {
				doArrivals()
			}
		}
		if err != nil {
			return
		}
		msgs += len(envs)
	}
	return
}

// probeCore drives a bare OptimisticMatcher, no fabric and no accelerator.
func probeCore(in probeInput, m metricSet) error {
	matcher, err := core.New(bench.PaperMatcherConfig())
	if err != nil {
		return err
	}
	postNs, arriveNs, msgs, err := replay(in,
		func(r *match.Recv) error { _, _, err := matcher.PostRecv(r); return err },
		func(envs []*match.Envelope) { matcher.ArriveBlock(envs) })
	if err != nil {
		return err
	}
	if matcher.PostedDepth() != 0 || matcher.UnexpectedDepth() != 0 {
		return fmt.Errorf("core probe: %d receives and %d messages left unmatched",
			matcher.PostedDepth(), matcher.UnexpectedDepth())
	}
	m["core.post_recv_ns"] = float64(postNs) / float64(msgs)
	m["core.arrive_ns_per_msg"] = float64(arriveNs) / float64(msgs)
	return nil
}

// probeList drives the host engine's list matcher the same way.
func probeList(in probeInput, m metricSet) error {
	lm := match.NewListMatcher()
	postNs, arriveNs, msgs, err := replay(in,
		func(r *match.Recv) error { lm.PostRecv(r); return nil },
		func(envs []*match.Envelope) {
			for _, e := range envs {
				lm.Arrive(e)
			}
		})
	if err != nil {
		return err
	}
	st := lm.Stats()
	m["match.list_post_ns"] = float64(postNs) / float64(msgs)
	m["match.list_arrive_ns"] = float64(arriveNs) / float64(msgs)
	if n := st.PostSearches + st.ArriveSearches; n > 0 {
		m["match.list_traversed_per_search"] = float64(st.PostTraversed+st.ArriveTraversed) / float64(n)
	}
	return nil
}

// netPair is two transports of one job hosted in this process, started
// without an mpi world on top.
type netPair struct {
	tr      [2]rdma.Transport
	cq      [2]*rdma.CQ
	rq      [2]*rdma.RecvQueue
	setup   time.Duration
	cleanup func()
}

func newNetPair(network, workDir string) (*netPair, error) {
	start := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	go netfabric.ServeCoordinator(ln, 2)
	np := &netPair{cleanup: func() {}}
	shmDir := ""
	if network == "shm" {
		if shmDir, err = os.MkdirTemp(workDir, "probe-shm-"); err != nil {
			return nil, err
		}
		np.cleanup = func() { os.RemoveAll(shmDir) }
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		np.cq[k], np.rq[k] = rdma.NewCQ(), rdma.NewRecvQueue(2*probeBurst)
		postBuffers(np.rq[k], 2*probeBurst, 128)
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := netfabric.New(netfabric.Config{Network: network, Rank: k, Ranks: 2,
				Coord: ln.Addr().String(), ShmDir: shmDir})
			if err == nil {
				np.tr[k] = tr
				err = tr.Start(np.rq[k], np.cq[k])
			}
			errs[k] = err
		}()
	}
	wg.Wait()
	np.setup = time.Since(start)
	if err := errors.Join(errs...); err != nil {
		np.close()
		return nil, err
	}
	return np, nil
}

func (np *netPair) close() {
	for _, tr := range np.tr {
		if tr != nil {
			tr.Close()
		}
	}
	np.cleanup()
}

// probeNet measures one netfabric transport between two ranks hosted here:
// Endpoint.Send into the peer's receive queue, and RegisterMemory and Read
// of a 256 KiB region.
func probeNet(network string, in probeInput, m metricSet) error {
	np, err := newNetPair(network, in.workDir)
	if err != nil {
		return err
	}
	defer np.close()
	sendNs, _, onewayNs, err := sendCosts(np.tr[0].Endpoint(1), np.cq[1], np.rq[1], in.div)
	if err != nil {
		return err
	}

	src := make([]byte, bigPayload)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, bigPayload)
	var regNs, readNs time.Duration
	reads := probeReads / in.div
	for i := 0; i < reads; i++ {
		start := time.Now()
		mr := np.tr[1].RegisterMemory(src)
		registered := time.Now()
		err := np.tr[0].Read(1, dst, mr.RKey, 0, bigPayload)
		readNs += time.Since(registered)
		regNs += registered.Sub(start)
		np.tr[1].Deregister(mr)
		if err != nil {
			return err
		}
	}
	if dst[12345] != src[12345] || dst[bigPayload-1] != src[bigPayload-1] {
		return fmt.Errorf("%s probe: READ returned the wrong bytes", network)
	}

	c := &np.tr[0].Obs().Counters
	switch network {
	case "tcp":
		m["netfabric.setup_ms"] = float64(np.setup) / 1e6
		m["netfabric.tcp_send_ns"] = sendNs
		m["netfabric.tcp_oneway_us"] = onewayNs / 1e3
		if f := c.Load(obs.CtrNetFlushes); f > 0 {
			m["netfabric.tcp_frames_per_flush"] = float64(c.Load(obs.CtrNetTxFrames)) / float64(f)
		}
		m["netfabric.tcp_stalls"] = float64(c.Load(obs.CtrNetStalls))
		m["netfabric.tcp_read_us_256k"] = float64(readNs) / float64(reads) / 1e3
	case "shm":
		rx := &np.tr[1].Obs().Counters // the waits are the receiver's
		m["netfabric.shm_send_ns"] = sendNs
		m["netfabric.shm_register_us"] = float64(regNs) / float64(reads) / 1e3
		m["netfabric.shm_read_us_256k"] = float64(readNs) / float64(reads) / 1e3
		m["netfabric.shm_spin_wakes"] = float64(rx.Load(obs.CtrShmSpinWakes))
		m["netfabric.shm_parks"] = float64(rx.Load(obs.CtrShmParks))
		m["netfabric.shm_ring_full"] = float64(c.Load(obs.CtrShmRingFull))
	}
	return nil
}

// probeDaemonClient measures what daemon_churn leaves out. It runs a few
// jobs over loopback TCP (few, because each leaves sockets in TIME_WAIT),
// and it reaches a daemon the way matchd's clients do, over a control
// socket: Ping round trips, then Submit and Wait for a few jobs. Client.Wait
// polls, which is what the turnaround here makes visible next to the
// in-process WaitJob.
func probeDaemonClient(in probeInput, m metricSet) error {
	pings, jobs := 500/in.div, 30/in.div
	d := daemon.New(daemon.Config{})
	start := time.Now()
	for i := 0; i < jobs; i++ {
		st, err := d.Submit(daemon.JobSpec{Tenant: "probe", Engine: "host", Transport: "tcp"})
		if err == nil {
			st, err = d.WaitJob(st.ID)
		}
		if err != nil {
			return err
		}
		if st.State != "done" {
			return fmt.Errorf("tcp job %s ended %s: %s", st.ID, st.State, st.Error)
		}
	}
	m["daemon.turnaround_tcp_us"] = float64(time.Since(start)) / float64(jobs) / 1e3

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		d.ServeControl(ln) // returns when ln closes
	}()
	defer func() {
		ln.Close()
		<-served
		d.CloseConns()
		d.Drain()
	}()
	c, err := daemon.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()
	start = time.Now()
	for i := 0; i < pings; i++ {
		if err := c.Ping(); err != nil {
			return err
		}
	}
	m["daemon.control_rtt_us"] = float64(time.Since(start)) / float64(pings) / 1e3
	start = time.Now()
	for i := 0; i < jobs; i++ {
		st, err := c.Submit(daemon.JobSpec{Tenant: "probe", Engine: "host"})
		if err == nil {
			st, err = c.Wait(st.ID, 30*time.Second)
		}
		if err != nil {
			return err
		}
		if st.State != "done" {
			return fmt.Errorf("client probe: job %s ended %s", st.ID, st.State)
		}
	}
	m["daemon.client_turnaround_ms"] = float64(time.Since(start)) / float64(jobs) / 1e6
	return nil
}
