package dpa

import (
	"sync"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/rdma"
)

// Pipeline is the offloaded tag-matching datapath of §IV: it drains a
// receive completion queue in blocks of consecutive messages, runs one
// handler activation per message on the accelerator (each performing the
// optimistic match), and hands every result to a protocol callback that
// executes the eager copy, the rendezvous read, or unexpected-message
// storage — all without host involvement.
//
// The datapath is engineered for the steady state: completions are drained
// in batches (one CQ lock acquisition per block) and every block window
// keeps its envelopes from block to block — a saturated pipeline allocates
// nothing per message.
//
// With Config.InFlightBlocks > 1 the pipeline keeps a depth-K window of
// matching blocks in flight on K runner goroutines: block k+1's handlers
// run while block k's are still matching, with the matcher's retire
// frontier settling results in arrival order (DESIGN.md §9). At depth 1 one
// block runs at a time, on the goroutine that forms it.
type Pipeline struct {
	acc     *Accelerator
	matcher *core.OptimisticMatcher
	cq      *rdma.CQ

	// Decode converts a receive completion (header + bounce buffer) into a
	// matching envelope, filling env and returning it. env is the block
	// window's own envelope for that item, reset. Decode runs in the first
	// half of a handler activation, on whichever goroutine drains the
	// block: the block's executor (the formation loop at depth 1, a runner
	// goroutine at depth K > 1) or a DPA worker.
	Decode func(c rdma.Completion, env *match.Envelope) *match.Envelope
	// Handle executes protocol handling for one match result: eager copy
	// to the user buffer, rendezvous RDMA read, or unexpected-message
	// bookkeeping. For results that settle at Resolve time it runs in the
	// second half of the activation, and a worker is woken first when the
	// envelope carries a SenderKey (the READ may block; the other handlers
	// should not wait for it); for results deferred to block retirement
	// (cross-block conflicts, unexpected messages) it runs on the block's
	// executor as the block retires. res.Env must not be kept past Handle
	// when the result is matched: the window resets it for its next block.
	Handle func(tid int, res core.Result, c rdma.Completion)
	// Control, when set, handles error completions, which never enter a
	// matching block; they are discarded otherwise.
	Control func(c rdma.Completion)
	// Expand, when set, unbatches one match-bound completion into the
	// burst of completions it carries (a coalesced multi-message frame
	// becomes one completion per sub-message), appending them to out and
	// returning the extended slice. Returning out unchanged drops the
	// completion (Expand owns its buffer then). Bursts larger than the
	// block size are formed into consecutive blocks, so a wide frame
	// naturally fills whole matching blocks.
	Expand func(c rdma.Completion, out []rdma.Completion) []rdma.Completion

	// Envelopes refills a window's envelope slot whose last envelope
	// escaped into the matcher's store; whoever delivers that envelope
	// later is responsible for putting it back. A matched envelope never
	// leaves its window. NewPipeline installs a private pool; replace it
	// before Start to share one across components.
	Envelopes *match.EnvelopePool

	// windows is the formation buffer (see window): one at depth 1, K+1 at
	// depth K. Start allocates it.
	windows []window

	cursor   uint64
	stopOnce sync.Once
	done     chan struct{}
	wg       sync.WaitGroup
}

// NewPipeline wires a pipeline; call Start to begin draining.
func NewPipeline(acc *Accelerator, m *core.OptimisticMatcher, cq *rdma.CQ) *Pipeline {
	return &Pipeline{
		acc: acc, matcher: m, cq: cq,
		Envelopes: new(match.EnvelopePool),
		done:      make(chan struct{}),
	}
}

// Start launches the block-forming loop. Decode and Handle must be set.
func (p *Pipeline) Start() {
	if p.Decode == nil || p.Handle == nil {
		panic("dpa: Pipeline requires Decode and Handle")
	}
	cfg := p.matcher.Config()
	n := 1
	if cfg.InFlightBlocks > 1 {
		n = cfg.InFlightBlocks + 1
	}
	p.windows = make([]window, n)
	for i := range p.windows {
		p.windows[i].comps = make([]rdma.Completion, 0, cfg.BlockSize)
		p.windows[i].envs = make([]*match.Envelope, cfg.BlockSize)
	}
	p.wg.Add(1)
	go p.run()
}

// Stop terminates the loop once the CQ closes or immediately if idle, and
// waits for in-flight blocks to finish.
func (p *Pipeline) Stop() {
	p.stopOnce.Do(func() { close(p.done) })
	p.cq.Close()
	p.wg.Wait()
}

// window is one slot of the formation buffer: one block's worth of
// match-bound completions, the envelopes they are decoded into, and the
// arrival block begun for them. All windows are allocated by Start and
// recycled for the pipeline's lifetime.
//
// A window owns its envelopes: envs[i] is reused by item i of block after
// block, Reset in place once its message is handled. Only an envelope that
// escapes into the matcher's unexpected store leaves its slot; the slot is
// refilled from Envelopes at its next Book.
type window struct {
	comps []rdma.Completion
	envs  []*match.Envelope
	blk   *core.Block
}

// envelope returns item i's envelope, drawing a fresh one from pool when
// the slot's last occupant escaped into the unexpected store.
func (w *window) envelope(i int, pool *match.EnvelopePool) *match.Envelope {
	env := w.envs[i]
	if env == nil {
		env = pool.Get()
		w.envs[i] = env
	}
	return env
}

// settle recycles item i's envelope after Handle ran for res: a matched one
// is Reset for the slot's next block, an unexpected one now belongs to the
// store (whoever delivers it later puts it back into Envelopes) and empties
// the slot.
func (w *window) settle(i int, res core.Result) {
	if res.Unexpected {
		w.envs[i] = nil
		return
	}
	res.Env.Reset()
}

// blockRunner executes formed blocks, one at a time. Its step and deliver
// methods are bound once per runner (two closure allocations) so executing
// a block allocates nothing.
type blockRunner struct {
	p         *Pipeline
	w         *window // the block being executed
	t         ticket  // its dispatch record, for step to wake a helper
	stepFn    func(item int)
	deliverFn func(tid int, res core.Result)
}

func newBlockRunner(p *Pipeline) *blockRunner {
	r := &blockRunner{p: p}
	r.stepFn, r.deliverFn = r.step, r.deliver
	return r
}

// run executes the block begun in w to retirement: publish its 2n items,
// drain them beside whatever worker a rendezvous handler wakes, wait for
// that worker, retire the block (running its deferred handlers), and count
// it. This is the only body that executes a block: at depth 1 the
// formation loop calls it, at depth K > 1 each of K runner goroutines does.
func (r *blockRunner) run(w *window) {
	p := r.p
	n := len(w.comps)
	r.w = w
	w.blk.Deliver = r.deliverFn
	r.t = p.acc.publish(2*n, r.stepFn, false)
	p.acc.drain(r.t)
	p.acc.finish(r.t)
	p.acc.activations.Add(uint64(n))
	w.blk.Finish()
	w.blk = nil
	r.w = nil
}

// step is one of a block's 2n work items, claimed in ascending order
// (Accelerator.drain). Items 0…n-1 are the first half of a handler
// activation (§IV-B): decode into the window's envelope and book, which
// never waits. Items n…2n-1 are the second half: resolve and — when the
// result is final — run the protocol handler and recycle. Resolve(tid) waits
// only for Book calls and lower Resolve calls, all lower-numbered items, so
// however few goroutines drain the block none of them parks on a peer that
// is not running, and one alone meets no wait at all. Non-final results
// (cross-block conflicts, unexpected messages) are handled by deliver when
// the block retires.
func (r *blockRunner) step(item int) {
	w := r.w
	n := len(w.comps)
	if item < n {
		w.blk.Book(item, r.p.Decode(w.comps[item], w.envelope(item, r.p.Envelopes)))
		return
	}
	tid := item - n
	res, final := w.blk.Resolve(tid)
	if final {
		if res.Env.SenderKey != 0 && !res.Unexpected {
			// The handler's rendezvous READ may block this goroutine for a
			// network round trip: a worker takes over the rest of the block
			// meanwhile. Nothing else a handler does can block, so nothing
			// else is worth a wake-up.
			r.p.acc.wake(r.t)
		}
		r.deliver(tid, res)
	}
}

// deliver runs protocol handling for a settled result — from step when it
// settled at Resolve time, from the block's Deliver callback when it settled
// at retirement — and recycles its envelope.
func (r *blockRunner) deliver(tid int, res core.Result) {
	r.p.Handle(tid, res, r.w.comps[tid])
	r.w.settle(tid, res)
}

// runOne is the activation of a block of one at depth 1, on the formation
// loop: decode, match, handle, recycle — step and deliver with nothing
// between them, because Arrive returns the settled result. A lone message
// has no peers to run beside, so publishing it as two items would buy a
// block record and nothing else. It still counts as one activation.
func (p *Pipeline) runOne(w *window, c rdma.Completion) {
	res := p.matcher.Arrive(p.Decode(c, w.envelope(0, p.Envelopes)))
	p.Handle(0, res, c)
	w.settle(0, res)
	p.acc.activations.Add(1)
}

// runner executes the blocks the formation loop sends on jobs, returning
// each window to idle once its block has retired.
func (p *Pipeline) runner(jobs <-chan *window, idle chan<- *window, wg *sync.WaitGroup) {
	defer wg.Done()
	r := newBlockRunner(p)
	for w := range jobs {
		r.run(w)
		idle <- w
	}
}

// run forms blocks: it drains the next batch of completions — blocking for
// the first — classifies it, begins the arrival block (in arrival order;
// the matcher's ring applies backpressure when too many blocks are in
// flight), and executes it.
//
// At depth 1 the formation loop executes every block itself: BeginBlock
// could not admit the next block before this one retires anyway, so a
// runner goroutine would only add two goroutine switches per block. At
// depth K > 1 it hands each block to one of K runner goroutines, so K
// matching blocks execute concurrently while the formation loop is already
// gathering and classifying the next batch (the stream-of-blocks model of
// §III-A, pipelined in depth as well as in formation).
func (p *Pipeline) run() {
	defer p.wg.Done()
	o := p.matcher.Obs() // CQ drains land in the matcher's sink (one domain per rank)
	cfg := p.matcher.Config()
	blockSize := cfg.BlockSize
	depth := cfg.InFlightBlocks

	// scratch receives each raw CQ batch; formed is the classified (and,
	// with Expand, unbatched) match-bound stream it yields. Both are
	// reused across iterations — formed grows once to the widest burst and
	// then the formation loop allocates nothing.
	scratch := make([]rdma.Completion, blockSize)
	formed := make([]rdma.Completion, 0, blockSize)

	// At depth 1 the formation loop owns the only window between blocks;
	// at depth K the K+1 windows circulate through idle.
	var (
		own  *blockRunner
		jobs chan *window
		idle chan *window
	)
	if depth == 1 {
		own = newBlockRunner(p)
	} else {
		jobs = make(chan *window, depth)
		idle = make(chan *window, len(p.windows))
		for i := range p.windows {
			idle <- &p.windows[i]
		}
		var rwg sync.WaitGroup
		rwg.Add(depth)
		for i := 0; i < depth; i++ {
			go p.runner(jobs, idle, &rwg)
		}
		defer func() {
			close(jobs)
			rwg.Wait()
		}()
	}

	for {
		n, ok := p.cq.WaitBatch(p.cursor, scratch)
		if !ok {
			return
		}
		gathered := scratch[:n]

		// Error completions (transport faults such as rdma.ErrBufferSize)
		// never enter a matching block: they go to Control, here on the
		// formation loop, when one is installed and are discarded otherwise.
		formed = formed[:0]
		for _, c := range gathered {
			if c.Err != nil {
				if p.Control != nil {
					p.Control(c)
				}
				continue
			}
			if p.Expand != nil {
				formed = p.Expand(c, formed)
				continue
			}
			formed = append(formed, c)
		}

		p.cursor += uint64(n)
		p.cq.Trim(p.cursor)
		o.Counters.Inc(obs.CtrCQDrains)
		o.Counters.Add(obs.CtrCQCompletions, uint64(n))
		o.Observe(obs.HistDrainBatch, uint64(n))
		if o.Enabled() {
			o.Event(obs.EvCQDrain, 0, uint64(n), p.cursor, uint64(len(formed)))
		}

		// Form the match-bound stream into blocks of at most blockSize
		// messages: an unbatched frame wider than one block fills several
		// consecutive ones. Blocks begin here, on the formation loop, so
		// block sequence numbers follow arrival order regardless of which
		// runner executes each block; at depth K the idle-window wait
		// holds formation to K blocks in flight and one being formed.
		for off := 0; off < len(formed); off += blockSize {
			end := min(off+blockSize, len(formed))
			var w *window
			if own != nil {
				w = &p.windows[0]
				if end-off == 1 {
					p.runOne(w, formed[off])
					continue
				}
			} else {
				w = <-idle
			}
			w.comps = append(w.comps[:0], formed[off:end]...)
			w.blk = p.matcher.BeginBlock(len(w.comps))
			if own != nil {
				own.run(w)
			} else {
				jobs <- w
			}
		}

		select {
		case <-p.done:
			// Drain whatever is still immediately available, then exit.
			if p.cq.Ready() <= p.cursor {
				return
			}
		default:
		}
	}
}
