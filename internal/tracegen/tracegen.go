// Package tracegen synthesizes MPI application traces reproducing the
// matching-relevant communication patterns of the sixteen DOE mini-apps of
// the paper's Table II.
//
// Substitution note (see DESIGN.md): the paper analyzes NERSC's
// "Characterization of DOE mini-apps" DUMPI traces, which are not
// redistributable here. Figures 6 and 7 depend only on each application's
// matching footprint — the mix of call types, the (source, tag) diversity
// of posted receives, posting order, and receive depth — so each generator
// reproduces the pattern the paper's §V names for its application (halo
// exchanges, FFT transposes, sweep pipelines, crystal-router staging,
// collectives-only solvers) at the Table II process counts. Absolute
// message counts are scaled down; the shapes are what matter.
package tracegen

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/trace"
)

// Config controls generation volume.
type Config struct {
	// Scale is the percentage of full iteration counts to generate
	// (default 100). Tests use small scales.
	Scale int
}

func (c Config) iters(base int) int {
	s := c.Scale
	if s <= 0 {
		s = 100
	}
	n := base * s / 100
	if n < 1 {
		n = 1
	}
	return n
}

// App is one Table II application.
type App struct {
	Name        string
	Description string
	Procs       int
	Generate    func(cfg Config) *trace.Trace
}

// Apps returns the sixteen Table II applications in the paper's order.
func Apps() []App {
	return []App{
		{"AMG", "Algebraic MultiGrid. Linear equation solver", 8, genAMG},
		{"AMR MiniApp", "Single step AMR for hydrodynamics", 64, genAMR},
		{"BigFFT", "Distributed Fast Fourier Transform", 1024, genBigFFT},
		{"BoxLib CNS", "Compressible Navier Stokes equations integrator", 64, genBoxLibCNS},
		{"BoxLib MultiGrid", "Single step BoxLib linear solver", 64, genBoxLibMG},
		{"CrystalRouter", "Proxy application for the Nek5000 scalable communication pattern", 100, genCrystalRouter},
		{"FillBoundary", "Proxy application for ghost cell exchange using MultiFabs", 1000, genFillBoundary},
		{"HILO", "Modeling of Neutron Transport Evaluation and Test Suite", 256, genHILO},
		{"HILO 2D", "Modeling of Neutron Transport Evaluation and Test Suite in 2D multinode", 256, genHILO2D},
		{"LULESH", "Proxy application for hydrodynamic codes", 64, genLULESH},
		{"MiniFe", "Proxy application for finite elements codes", 1152, genMiniFE},
		{"MOCFE", "Proxy application for Method of Characteristics (MOC) reactor simulator", 64, genMOCFE},
		{"MultiGrid", "MultiGrid solver based on BoxLib", 1000, genMultiGrid},
		{"Nekbone", "Proxy application for the Nek5000 poison equation solver", 64, genNekbone},
		{"PARTISN", "Discrete-ordinates neutral-particle transport equation solver", 168, genPARTISN},
		{"SNAP", "Proxy application for the PARTISN communication pattern", 168, genSNAP},
	}
}

// ByName returns the application with the given name.
func ByName(name string) (App, bool) {
	for _, a := range Apps() {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}

// ---------------------------------------------------------------------------
// Emission helpers.

// emitter builds a trace with one clock per rank; each phase of an
// iteration occupies a disjoint time window so receives posted in the post
// window land before the sends of the send window — the pre-posting
// behaviour real halo codes exhibit.
type emitter struct {
	t *trace.Trace
}

func newEmitter(app string, procs int) *emitter {
	t := &trace.Trace{App: app, Ranks: make([]trace.RankTrace, procs)}
	for r := range t.Ranks {
		t.Ranks[r].Rank = int32(r)
	}
	return &emitter{t: t}
}

// at computes a deterministic timestamp: iteration window + phase offset +
// a small per-rank, per-call jitter that makes global ordering total.
func at(iter int, phase float64, rank, k int) float64 {
	return float64(iter) + phase + float64(rank)*1e-6 + float64(k)*1e-8
}

// repeat runs body for iterations 0..n-1. After the first, every rank
// reserves room for the other n-1 at the first one's size, so its events
// grow by one allocation rather than a doubling series. An iteration that
// emits more than the first only appends past the reservation; the trace
// is the same either way.
func (e *emitter) repeat(n int, body func(it int)) {
	for it := 0; it < n; it++ {
		body(it)
		if it == 0 {
			for r := range e.t.Ranks {
				ev := &e.t.Ranks[r].Events
				*ev = slices.Grow(*ev, (n-1)*len(*ev))
			}
		}
	}
}

func (e *emitter) add(rank int, ev trace.Event) {
	rt := &e.t.Ranks[rank]
	rt.Events = append(rt.Events, ev)
}

func (e *emitter) irecv(rank, src, tag, comm, count int, wt float64) {
	e.add(rank, trace.Event{Kind: trace.OpRecv, Name: "MPI_Irecv",
		Peer: int32(src), Tag: int32(tag), Comm: int32(comm), Count: int32(count), Walltime: wt})
}

func (e *emitter) isend(rank, dst, tag, comm, count int, wt float64) {
	e.add(rank, trace.Event{Kind: trace.OpSend, Name: "MPI_Isend",
		Peer: int32(dst), Tag: int32(tag), Comm: int32(comm), Count: int32(count), Walltime: wt})
}

func (e *emitter) waitall(rank int, wt float64) {
	e.add(rank, trace.Event{Kind: trace.OpProgress, Name: "MPI_Waitall", Walltime: wt})
}

func (e *emitter) collective(rank int, name string, wt float64) {
	e.add(rank, trace.Event{Kind: trace.OpCollective, Name: name, Walltime: wt})
}

// ---------------------------------------------------------------------------
// Topology helpers.

// grid3 is a 3-D cartesian decomposition with periodic boundaries.
type grid3 struct{ nx, ny, nz int }

func (g grid3) coords(rank int) (x, y, z int) {
	x = rank % g.nx
	y = (rank / g.nx) % g.ny
	z = rank / (g.nx * g.ny)
	return
}

func (g grid3) rank(x, y, z int) int {
	x = (x%g.nx + g.nx) % g.nx
	y = (y%g.ny + g.ny) % g.ny
	z = (z%g.nz + g.nz) % g.nz
	return x + y*g.nx + z*g.nx*g.ny
}

// faceNeighbors returns the 6 face neighbors (deduplicated, self excluded).
func (g grid3) faceNeighbors(rank int) []int {
	x, y, z := g.coords(rank)
	cand := []int{
		g.rank(x-1, y, z), g.rank(x+1, y, z),
		g.rank(x, y-1, z), g.rank(x, y+1, z),
		g.rank(x, y, z-1), g.rank(x, y, z+1),
	}
	return dedupe(rank, cand)
}

// fullNeighbors returns up to 26 neighbors of the 27-point stencil.
func (g grid3) fullNeighbors(rank int) []int {
	x, y, z := g.coords(rank)
	var cand []int
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				cand = append(cand, g.rank(x+dx, y+dy, z+dz))
			}
		}
	}
	return dedupe(rank, cand)
}

// dedupe returns cand without self and without repeats, first occurrences
// in order. At most 26 candidates: a scan of the output beats a map.
func dedupe(self int, cand []int) []int {
	out := make([]int, 0, len(cand))
	for _, c := range cand {
		if c != self && indexOf(out, c) < 0 {
			out = append(out, c)
		}
	}
	return out
}

// haloPlan is the fixed part of an application's halo exchange: its
// neighbour lists, the direction each sender tags a message with, and each
// rank's send order. None of it depends on the iteration, so a generator
// builds one plan per (grid, stencil) and an iteration costs one append per
// event.
type haloPlan struct {
	nbs   [][]int // nbs[r]: r's neighbours, in posting order
	back  [][]int // back[r][i]: r's index in nbs[nbs[r][i]], the direction that sender uses
	order [][]int // order[r]: indexes into nbs[r] in r's send order
}

func newHaloPlan(procs int, neighbors func(int) []int) *haloPlan {
	p := &haloPlan{nbs: make([][]int, procs), back: make([][]int, procs), order: make([][]int, procs)}
	for r := range p.nbs {
		p.nbs[r] = neighbors(r)
	}
	for r, nbs := range p.nbs {
		p.back[r] = make([]int, len(nbs))
		for i, nb := range nbs {
			p.back[r][i] = indexOf(p.nbs[nb], r)
		}
		p.order[r] = jitterOrder(r, nbs)
	}
	return p
}

// halo emits one pre-posted halo exchange iteration: every rank posts
// receives from all neighbors, then sends to all neighbors, then waits.
// A message from A to B carries tag(i) where i is B's index in A's neighbor
// list; the receiver posts with the sender-side index so tags always pair,
// letting callers model per-direction tags (spread keys) or a constant tag
// (compatible sequences).
func halo(e *emitter, iter int, p *haloPlan, tag func(dirIdx int) int, comm, count int) {
	for r, nbs := range p.nbs {
		for i, nb := range nbs {
			e.irecv(r, nb, tag(p.back[r][i]), comm, count, at(iter, 0.1, r, i))
		}
	}
	for r, nbs := range p.nbs {
		for k, i := range p.order[r] {
			e.isend(r, nbs[i], tag(i), comm, count, at(iter, 0.5, r, k))
		}
	}
	// Waitalls land while the exchange is still in flight (real codes call
	// MPI_Waitall right after the last send), so progress-time sampling of
	// occupancy and posted depth sees live queues.
	for r := range p.nbs {
		e.waitall(r, at(iter, 0.51, r, 0))
	}
}

// jitterOrder returns neighbor indexes in the pseudo-random order a real
// fabric would complete concurrent sends, keeping each rank's event clock
// monotonic while decorrelating arrival order from posting order.
func jitterOrder(r int, nbs []int) []int {
	idx := make([]int, len(nbs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ja, jb := pairJitter(r, nbs[idx[a]]), pairJitter(r, nbs[idx[b]])
		if ja != jb {
			return ja < jb
		}
		return idx[a] < idx[b]
	})
	return idx
}

// indexOf returns the position of v in s (-1 if absent).
func indexOf(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

// pairJitter decorrelates arrival order from posting order: real fabrics
// deliver concurrent messages from different senders in effectively random
// order, which is what makes 1-bin queues deep. The jitter is a pure
// function of the (sender, receiver) pair, so messages between one pair
// keep their relative order (the trace-level analogue of per-QP FIFO).
func pairJitter(sender, receiver int) float64 {
	h := uint32(sender)*2654435761 ^ uint32(receiver)*40503
	h ^= h >> 13
	return float64(h%1024) / 1024 * 0.04
}

// allCollective emits one collective call on every rank.
func allCollective(e *emitter, iter int, procs int, name string, phase float64) {
	for r := 0; r < procs; r++ {
		e.collective(r, name, at(iter, phase, r, 0))
	}
}

// ---------------------------------------------------------------------------
// Application generators.

// genAMG: algebraic multigrid — face-neighbor halo per level plus reduction
// collectives; moderate p2p with a visible collective share.
func genAMG(cfg Config) *trace.Trace {
	const procs = 8
	g := grid3{2, 2, 2}
	e := newEmitter("AMG", procs)
	plan := newHaloPlan(procs, g.faceNeighbors)
	e.repeat(cfg.iters(24), func(it int) {
		level := it % 4
		halo(e, it, plan, func(i int) int { return 100 + level }, 0, 1024>>level)
		allCollective(e, it, procs, "MPI_Allreduce", 0.95)
	})
	return e.t
}

// genAMR: block-structured AMR — face halo plus a regrid phase where every
// rank reports to rank 0 (many-to-one with wildcard receives at the root).
func genAMR(cfg Config) *trace.Trace {
	const procs = 64
	g := grid3{4, 4, 4}
	e := newEmitter("AMR MiniApp", procs)
	plan := newHaloPlan(procs, g.faceNeighbors)
	e.repeat(cfg.iters(10), func(it int) {
		halo(e, it, plan, func(i int) int { return 7 }, 0, 512)
		if it%3 == 2 { // regrid: gather load info at root
			for r := 1; r < procs; r++ {
				e.irecv(0, int(trace.AnySource), 99, 0, 8, at(it, 0.92, r, 0))
			}
			for r := 1; r < procs; r++ {
				e.isend(r, 0, 99, 0, 8, at(it, 0.94, r, 0))
			}
			e.waitall(0, at(it, 0.96, 0, 0))
			allCollective(e, it, procs, "MPI_Bcast", 0.98)
		}
	})
	return e.t
}

// genBigFFT: 2-D decomposed FFT — row transpose then column transpose,
// pure point-to-point (one of the paper's p2p-only applications).
func genBigFFT(cfg Config) *trace.Trace {
	const procs, side = 1024, 32
	e := newEmitter("BigFFT", procs)
	e.repeat(cfg.iters(2), func(it int) {
		// Row transpose: exchange with every rank in the same row.
		for r := 0; r < procs; r++ {
			row := r / side
			for k := 0; k < side; k++ {
				peer := row*side + k
				if peer == r {
					continue
				}
				e.irecv(r, peer, 1000+it, 0, 4096, at(it, 0.05, r, k))
			}
		}
		for r := 0; r < procs; r++ {
			row := r / side
			for k := 0; k < side; k++ {
				peer := row*side + k
				if peer == r {
					continue
				}
				e.isend(r, peer, 1000+it, 0, 4096, at(it, 0.3, r, k))
			}
		}
		for r := 0; r < procs; r++ {
			e.waitall(r, at(it, 0.45, r, 0))
		}
		// Column transpose.
		for r := 0; r < procs; r++ {
			col := r % side
			for k := 0; k < side; k++ {
				peer := k*side + col
				if peer == r {
					continue
				}
				e.irecv(r, peer, 2000+it, 0, 4096, at(it, 0.55, r, k))
			}
		}
		for r := 0; r < procs; r++ {
			col := r % side
			for k := 0; k < side; k++ {
				peer := k*side + col
				if peer == r {
					continue
				}
				e.isend(r, peer, 2000+it, 0, 4096, at(it, 0.8, r, k))
			}
		}
		for r := 0; r < procs; r++ {
			e.waitall(r, at(it, 0.95, r, 0))
		}
	})
	return e.t
}

// genBoxLibCNS: compressible Navier-Stokes — deep 27-point-stencil ghost
// exchange; 26 receives pending per rank gives the deepest queues of the
// application set (the paper reports a maximum depth of 25 at one bin).
func genBoxLibCNS(cfg Config) *trace.Trace {
	const procs = 64
	g := grid3{4, 4, 4}
	e := newEmitter("BoxLib CNS", procs)
	plan := newHaloPlan(procs, g.fullNeighbors)
	e.repeat(cfg.iters(12), func(it int) {
		// Per-neighbor tags: keys spread across bins.
		halo(e, it, plan, func(i int) int { return 300 + i }, 0, 2048)
		if it%5 == 4 {
			allCollective(e, it, procs, "MPI_Allreduce", 0.97)
		}
	})
	return e.t
}

// genBoxLibMG: BoxLib linear solver — V-cycles of face halos across levels.
func genBoxLibMG(cfg Config) *trace.Trace {
	const procs = 64
	g := grid3{4, 4, 4}
	e := newEmitter("BoxLib MultiGrid", procs)
	plan := newHaloPlan(procs, g.faceNeighbors)
	it := 0
	e.repeat(cfg.iters(6), func(int) {
		for _, level := range []int{0, 1, 2, 3, 2, 1, 0} { // V-cycle
			halo(e, it, plan, func(i int) int { return 500 + level }, 0, 1024>>level)
			it++
		}
		allCollective(e, it-1, procs, "MPI_Allreduce", 0.99)
	})
	return e.t
}

// genCrystalRouter: the Nek5000 staged-routing pattern — hypercube stages
// where bursts of same-(source,tag) messages arrive before their receives
// are posted: unexpected-heavy with long compatible sequences. Pure p2p.
func genCrystalRouter(cfg Config) *trace.Trace {
	const procs = 100
	const burst = 6
	e := newEmitter("CrystalRouter", procs)
	e.repeat(cfg.iters(8), func(it int) {
		for stage := 0; stage < 7; stage++ { // ceil(log2(100)) stages
			partner := func(r int) int { return r ^ (1 << stage) }
			// Sends go out first: the receiver posts afterwards, so these
			// messages are unexpected (crystal-router forwards eagerly).
			for r := 0; r < procs; r++ {
				p := partner(r)
				if p >= procs {
					continue
				}
				for b := 0; b < burst; b++ {
					e.isend(r, p, 40+stage, 0, 256, at(it, 0.1+0.1*float64(stage), r, b))
				}
			}
			for r := 0; r < procs; r++ {
				p := partner(r)
				if p >= procs {
					continue
				}
				for b := 0; b < burst; b++ {
					e.irecv(r, p, 40+stage, 0, 256, at(it, 0.15+0.1*float64(stage), r, b))
				}
				e.waitall(r, at(it, 0.17+0.1*float64(stage), r, 0))
			}
		}
	})
	return e.t
}

// genFillBoundary: MultiFab ghost-cell exchange at 1000 ranks — full-
// stencil halo, pure p2p.
func genFillBoundary(cfg Config) *trace.Trace {
	const procs = 1000
	g := grid3{10, 10, 10}
	e := newEmitter("FillBoundary", procs)
	plan := newHaloPlan(procs, g.fullNeighbors)
	e.repeat(cfg.iters(3), func(it int) {
		halo(e, it, plan, func(i int) int { return 600 + i%8 }, 0, 1024)
	})
	return e.t
}

// genHILO: neutron-transport test suite — entirely collectives (one of the
// paper's two collectives-only applications).
func genHILO(cfg Config) *trace.Trace {
	const procs = 256
	e := newEmitter("HILO", procs)
	e.repeat(cfg.iters(40), func(it int) {
		allCollective(e, it, procs, "MPI_Allreduce", 0.2)
		allCollective(e, it, procs, "MPI_Bcast", 0.5)
		if it%10 == 9 {
			allCollective(e, it, procs, "MPI_Barrier", 0.9)
		}
	})
	return e.t
}

// genHILO2D: the 2-D multinode variant, also collectives-only.
func genHILO2D(cfg Config) *trace.Trace {
	const procs = 256
	e := newEmitter("HILO 2D", procs)
	e.repeat(cfg.iters(40), func(it int) {
		allCollective(e, it, procs, "MPI_Allreduce", 0.3)
		allCollective(e, it, procs, "MPI_Reduce", 0.6)
	})
	return e.t
}

// genLULESH: hydrodynamics proxy — 27-point stencil with three distinct
// communication phases per step, plus a time-constraint reduction.
func genLULESH(cfg Config) *trace.Trace {
	const procs = 64
	g := grid3{4, 4, 4}
	e := newEmitter("LULESH", procs)
	plan := newHaloPlan(procs, g.fullNeighbors)
	it := 0
	e.repeat(cfg.iters(6), func(int) {
		for phase := 0; phase < 3; phase++ {
			halo(e, it, plan, func(i int) int { return 700 + phase }, 0, 4096)
			it++
		}
		allCollective(e, it-1, procs, "MPI_Allreduce", 0.99)
	})
	return e.t
}

// genMiniFE: finite elements — shallow face-neighbor halos inside a CG
// solve with two dot-product reductions per iteration.
func genMiniFE(cfg Config) *trace.Trace {
	const procs = 1152
	g := grid3{8, 12, 12}
	e := newEmitter("MiniFe", procs)
	plan := newHaloPlan(procs, g.faceNeighbors)
	e.repeat(cfg.iters(5), func(it int) {
		halo(e, it, plan, func(i int) int { return 800 }, 0, 512)
		allCollective(e, it, procs, "MPI_Allreduce", 0.93)
		allCollective(e, it, procs, "MPI_Allreduce", 0.96)
	})
	return e.t
}

// genMOCFE: method-of-characteristics reactor sweep — angular pipelines
// with wildcard-source receives (trajectory order is data dependent).
func genMOCFE(cfg Config) *trace.Trace {
	const procs = 64
	g := grid3{4, 4, 4}
	e := newEmitter("MOCFE", procs)
	e.repeat(cfg.iters(10), func(it int) {
		for angle := 0; angle < 4; angle++ {
			// Each rank forwards along the sweep direction and receives from
			// whichever upstream trajectory finishes first.
			for r := 0; r < procs; r++ {
				e.irecv(r, int(trace.AnySource), 900+angle, 0, 128, at(it, 0.1+0.2*float64(angle), r, 0))
			}
			for r := 0; r < procs; r++ {
				x, y, z := g.coords(r)
				dst := g.rank(x+1, y+angle%2, z)
				e.isend(r, dst, 900+angle, 0, 128, at(it, 0.15+0.2*float64(angle), r, 0))
			}
			for r := 0; r < procs; r++ {
				e.waitall(r, at(it, 0.18+0.2*float64(angle), r, 0))
			}
		}
		allCollective(e, it, procs, "MPI_Allreduce", 0.95)
	})
	return e.t
}

// genMultiGrid: BoxLib multigrid at 1000 ranks — level-wise face halos.
func genMultiGrid(cfg Config) *trace.Trace {
	const procs = 1000
	g := grid3{10, 10, 10}
	e := newEmitter("MultiGrid", procs)
	plan := newHaloPlan(procs, g.faceNeighbors)
	it := 0
	e.repeat(cfg.iters(3), func(int) {
		for _, level := range []int{0, 1, 2, 1, 0} {
			halo(e, it, plan, func(i int) int { return 110 + level }, 0, 2048>>level)
			it++
		}
	})
	return e.t
}

// genNekbone: Nek5000 Poisson proxy — irregular gather-scatter neighbor
// exchange plus CG reductions; pure p2p apart from the reductions.
func genNekbone(cfg Config) *trace.Trace {
	const procs = 64
	g := grid3{4, 4, 4}
	e := newEmitter("Nekbone", procs)
	neighbors := func(r int) []int {
		full := g.fullNeighbors(r)
		// Gather-scatter touches an irregular subset of the stencil. The
		// keep predicate is symmetric in the pair, so the exchange stays
		// balanced: every posted receive has a matching send.
		out := make([]int, 0, 18)
		for _, nb := range full {
			lo, hi := r, nb
			if lo > hi {
				lo, hi = hi, lo
			}
			if (lo*31+hi)%3 == 0 {
				continue
			}
			out = append(out, nb)
		}
		return out
	}
	plan := newHaloPlan(procs, neighbors)
	e.repeat(cfg.iters(10), func(it int) {
		halo(e, it, plan, func(i int) int { return 210 }, 0, 256)
		allCollective(e, it, procs, "MPI_Allreduce", 0.94)
	})
	return e.t
}

// sweep is the PARTISN/SNAP KBA wavefront: long pipelines of messages with
// identical (source, tag) — the compatible-sequence case of §III-D3a.
func sweep(app string, procs, planes, tagBase int, cfg Config) *trace.Trace {
	const nx, ny = 12, 14
	e := newEmitter(app, procs)
	coords := func(r int) (int, int) { return r % nx, r / nx }
	rank := func(x, y int) int { return x + y*nx }
	e.repeat(cfg.iters(2), func(it int) {
		np := cfg.iters(planes)
		// Downstream receives: a long run of same-(source,tag) receives per
		// direction, posted up front — a textbook compatible sequence.
		for r := 0; r < procs; r++ {
			x, y := coords(r)
			for p := 0; p < np; p++ {
				if x > 0 {
					e.irecv(r, rank(x-1, y), tagBase, 0, 64, at(it, 0.05, r, 2*p))
				}
				if y > 0 {
					e.irecv(r, rank(x, y-1), tagBase+1, 0, 64, at(it, 0.05, r, 2*p+1))
				}
			}
		}
		for r := 0; r < procs; r++ {
			x, y := coords(r)
			for p := 0; p < np; p++ {
				if x < nx-1 {
					e.isend(r, rank(x+1, y), tagBase, 0, 64, at(it, 0.4, r, 2*p))
				}
				if y < ny-1 {
					e.isend(r, rank(x, y+1), tagBase+1, 0, 64, at(it, 0.4, r, 2*p+1))
				}
			}
		}
		for r := 0; r < procs; r++ {
			e.waitall(r, at(it, 0.9, r, 0))
		}
		allCollective(e, it, procs, "MPI_Allreduce", 0.95)
	})
	return e.t
}

// genPARTISN: discrete-ordinates transport sweep.
func genPARTISN(cfg Config) *trace.Trace {
	return sweep("PARTISN", 168, 24, 20, cfg)
}

// genSNAP: the PARTISN communication-pattern proxy.
func genSNAP(cfg Config) *trace.Trace {
	return sweep("SNAP", 168, 32, 30, cfg)
}

// TableII renders the application table (name, description, processes).
func TableII() string {
	out := fmt.Sprintf("%-18s %-72s %s\n", "Application", "Description", "Processes")
	for _, a := range Apps() {
		out += fmt.Sprintf("%-18s %-72s %d\n", a.Name, a.Description, a.Procs)
	}
	return out
}
