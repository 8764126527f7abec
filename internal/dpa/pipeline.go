package dpa

import (
	"sync"
	"sync/atomic"

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
// in batches (one CQ lock acquisition per block), block formation overlaps
// block execution, and envelopes come from a pool — a saturated pipeline
// allocates nothing per message.
//
// With Config.InFlightBlocks > 1 the pipeline keeps a depth-K window of
// matching blocks in flight: block k+1's handlers run while block k's are
// still matching, with the matcher's retire frontier settling results in
// arrival order (DESIGN.md §9). Depth 1 reproduces the original serial
// launcher exactly.
type Pipeline struct {
	acc     *Accelerator
	matcher *core.OptimisticMatcher
	cq      *rdma.CQ

	// Decode converts a receive completion (header + bounce buffer) into a
	// matching envelope, filling env (drawn from Envelopes) and returning
	// it. It runs in the first half of a handler activation, on whichever
	// goroutine drains the block: its runner or a DPA worker (for a block
	// of one at depth 1, the formation loop: runOne).
	Decode func(c rdma.Completion, env *match.Envelope) *match.Envelope
	// Handle executes protocol handling for one match result: eager copy
	// to the user buffer, rendezvous RDMA read, or unexpected-message
	// bookkeeping. For results that settle at Resolve time it runs in the
	// second half of the activation, and a worker is woken first when the
	// envelope carries a SenderKey (the READ may block; the other handlers
	// should not wait for it); for results deferred to block retirement
	// (cross-block conflicts, unexpected messages) it runs on the retiring
	// block's runner. A block of one at depth 1 is handled on the
	// formation loop (runOne).
	Handle func(tid int, res core.Result, c rdma.Completion)
	// Classify, when set, reports whether a completion carries a message
	// that needs matching. Completions classified false (protocol control
	// traffic such as rendezvous acknowledgements) are passed to Control
	// instead of entering a matching block.
	Classify func(c rdma.Completion) bool
	// Control handles non-matching completions; required when Classify is set.
	Control func(c rdma.Completion)
	// Expand, when set, unbatches one match-bound completion into the
	// burst of completions it carries (a coalesced multi-message frame
	// becomes one completion per sub-message), appending them to out and
	// returning the extended slice. Returning out unchanged drops the
	// completion (Expand owns its buffer then). Bursts larger than the
	// block size are formed into consecutive blocks, so a wide frame
	// naturally fills whole matching blocks.
	Expand func(c rdma.Completion, out []rdma.Completion) []rdma.Completion

	// Envelopes supplies the reusable envelopes passed to Decode. Matched
	// envelopes return to the pool right after Handle; unexpected ones
	// escape into the matcher's store, and whoever delivers them later is
	// responsible for putting them back. NewPipeline installs a private
	// pool; replace it before Start to share one across components.
	Envelopes *match.EnvelopePool

	cursor   uint64
	stopOnce sync.Once
	done     chan struct{}
	wg       sync.WaitGroup

	blocks   atomic.Uint64
	messages atomic.Uint64
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
	if p.Classify != nil && p.Control == nil {
		panic("dpa: Pipeline with Classify requires Control")
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

// Blocks returns the number of matching blocks processed.
func (p *Pipeline) Blocks() uint64 { return p.blocks.Load() }

// Messages returns the number of messages processed.
func (p *Pipeline) Messages() uint64 { return p.messages.Load() }

// window is one slot of the formation buffer: one block's worth of
// match-bound completions and the arrival block begun for them. All
// windows are allocated once and recycled for the pipeline's lifetime.
type window struct {
	comps []rdma.Completion
	blk   *core.Block
}

// blockRunner carries the per-block state of the handler activations. Its
// step and deliver methods are bound once per runner goroutine (two closure
// allocations per pipeline runner) so dispatching a block allocates
// nothing.
type blockRunner struct {
	p     *Pipeline
	comps []rdma.Completion
	blk   *core.Block
	t     ticket // the block's dispatch record, for step to wake a helper
}

// step is one of a block's 2n work items, claimed in ascending order
// (Accelerator.drain). Items 0…n-1 are the first half of a handler
// activation (§IV-B): decode into a pooled envelope and book, which never
// waits. Items n…2n-1 are the second half: resolve and — when the result is
// final — run the protocol handler and recycle. Resolve(tid) waits only for
// Book calls and lower Resolve calls, all lower-numbered items, so however
// few goroutines drain the block none of them parks on a peer that is not
// running, and one alone meets no wait at all. Non-final results
// (cross-block conflicts, unexpected messages) are handled by deliver when
// the block retires.
func (r *blockRunner) step(item int) {
	n := len(r.comps)
	if item < n {
		r.blk.Book(item, r.p.Decode(r.comps[item], r.p.Envelopes.Get()))
		return
	}
	tid := item - n
	res, final := r.blk.Resolve(tid)
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
// at retirement — and recycles its envelope. Unexpected envelopes escape to
// the matcher's store and are recycled by their eventual deliverer.
func (r *blockRunner) deliver(tid int, res core.Result) {
	r.p.Handle(tid, res, r.comps[tid])
	if !res.Unexpected {
		r.p.Envelopes.Put(res.Env)
	}
}

// runOne is the activation of a block of one, on the forming goroutine:
// decode, match, handle, recycle — step and deliver with nothing between
// them, because Arrive returns the settled result. A lone message has no
// peers to run beside, so handing it to a runner and a worker would buy two
// goroutine switches and nothing else. It still counts as one activation.
// At depth 1 nothing is lost by occupying the formation loop: a block
// formed meanwhile could not begin before this one retires anyway, so a
// Handle that blocks here delays CQ formation and nothing else.
func (p *Pipeline) runOne(c rdma.Completion) {
	env := p.Decode(c, p.Envelopes.Get())
	res := p.matcher.Arrive(env)
	p.Handle(0, res, c)
	if !res.Unexpected {
		p.Envelopes.Put(env)
	}
	p.acc.activations.Add(1)
	p.blocks.Add(1)
	p.messages.Add(1)
}

// run forms blocks: it drains the next batch of completions — blocking for
// the first — classifies it, begins the arrival block (in arrival order;
// the matcher's ring applies backpressure when too many blocks are in
// flight), and hands it to a runner goroutine. With K runners, K matching
// blocks execute concurrently while the formation loop is already gathering
// and classifying the next batch (the stream-of-blocks model of §III-A,
// pipelined in depth as well as in formation).
func (p *Pipeline) run() {
	defer p.wg.Done()
	o := p.matcher.Obs() // CQ drains land in the matcher's sink (one domain per rank)
	cfg := p.matcher.Config()
	blockSize := cfg.BlockSize
	depth := cfg.InFlightBlocks

	windows := make([]window, depth+1)
	idle := make(chan *window, len(windows))
	for i := range windows {
		windows[i].comps = make([]rdma.Completion, 0, blockSize)
		idle <- &windows[i]
	}
	// scratch receives each raw CQ batch; formed is the classified (and,
	// with Expand, unbatched) match-bound stream it yields. Both are
	// reused across iterations — formed grows once to the widest burst and
	// then the formation loop allocates nothing.
	scratch := make([]rdma.Completion, blockSize)
	formed := make([]rdma.Completion, 0, blockSize)

	jobs := make(chan *window, depth)
	var lwg sync.WaitGroup
	lwg.Add(depth)
	for i := 0; i < depth; i++ {
		go func() { // runner: executes one matching block at a time
			defer lwg.Done()
			run := blockRunner{p: p}
			step := run.step
			deliver := run.deliver
			for w := range jobs {
				n := len(w.comps)
				run.comps = w.comps
				run.blk = w.blk
				run.blk.Deliver = deliver
				run.t = p.acc.publish(2*n, step, false)
				p.acc.drain(run.t)
				p.acc.finish(run.t)
				p.acc.activations.Add(uint64(n))
				run.blk.Finish()
				// Count messages only after retirement: by then every
				// deferred Handle has run, so observers that see the count
				// see the handling too.
				p.blocks.Add(1)
				p.messages.Add(uint64(n))
				run.blk = nil
				w.blk = nil
				idle <- w
			}
		}()
	}
	defer func() {
		close(jobs)
		lwg.Wait()
	}()

	for {
		n, ok := p.cq.WaitBatch(p.cursor, scratch)
		if !ok {
			return
		}
		gathered := scratch[:n]

		// Control traffic (e.g. rendezvous ACKs) bypasses matching; it is
		// handled here on the formation loop, overlapping in-flight blocks'
		// handlers. Error completions (transport faults such as
		// rdma.ErrBufferSize) never enter a matching block: they go to
		// Control when one is installed and are discarded otherwise.
		formed = formed[:0]
		for _, c := range gathered {
			if c.Err != nil {
				if p.Control != nil {
					p.Control(c)
				}
				continue
			}
			if p.Classify != nil && !p.Classify(c) {
				p.Control(c)
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
		// runner executes each block; the idle-window wait applies the
		// same depth backpressure the per-window drain used to.
		for off := 0; off < len(formed); off += blockSize {
			end := off + blockSize
			if end > len(formed) {
				end = len(formed)
			}
			if depth == 1 && end-off == 1 {
				p.runOne(formed[off])
				continue
			}
			w := <-idle
			w.comps = append(w.comps[:0], formed[off:end]...)
			w.blk = p.matcher.BeginBlock(len(w.comps))
			jobs <- w
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
