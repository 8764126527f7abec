package main

import (
	"fmt"

	"repro/internal/match"
	"repro/internal/mpi"
	"repro/internal/tracegen"
)

// rng is splitmix64. The benchmark owns its generator so that a seed names
// the same inputs on every Go release.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, c := range []byte(stream) {
		r.s = r.s*1099511628211 ^ uint64(c)
	}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle permutes v in place (Fisher–Yates).
func shuffle[T any](r *rng, v []T) {
	for i := len(v) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		v[i], v[j] = v[j], v[i]
	}
}

// seqPlan is the generated input of one message sequence: what the sender
// fires, what the receiver posts, and which message each receive must get.
// A message is identified by its position in SendTags, which the sender
// stamps into the payload.
type seqPlan struct {
	SendTags []int32 `json:"send_tags"` // tags in firing order
	RecvSrc  []int32 `json:"recv_src"`  // receives in posting order; -1 is a wildcard
	RecvTag  []int32 `json:"recv_tag"`
	WantPos  []int32 `json:"want_pos"` // WantPos[j]: position in SendTags of receive j's message
}

// jobClass is one kind of daemon job in the churn mix.
type jobClass uint8

const (
	jobOffload jobClass = iota
	jobHost
	numJobClasses
)

// inputs is everything a workload derives from the seed. The program under
// test sees only these values, never the seed.
type inputs struct {
	Plans    []seqPlan    `json:"plans,omitempty"`     // message workloads: cycled through, one per sequence
	AppOrder []int        `json:"app_order,omitempty"` // analyze_sweep: indexes into tracegen.Apps(), in sweep order
	Jobs     [][]jobClass `json:"jobs,omitempty"`      // daemon_churn: per tenant, the job classes of one repetition
}

// plansPerWorkload is how many distinct sequence plans a message workload
// cycles through.
const plansPerWorkload = 64

// wcTag is the one tag every receive of the with-conflict workload shares.
const wcTag = 7

func identityPlan(k int, tagOf func(i int) int32) seqPlan {
	p := seqPlan{SendTags: make([]int32, k), RecvSrc: make([]int32, k),
		RecvTag: make([]int32, k), WantPos: make([]int32, k)}
	for i := 0; i < k; i++ {
		p.SendTags[i] = tagOf(i)
		p.RecvTag[i] = tagOf(i)
		p.WantPos[i] = int32(i)
	}
	return p
}

// permutedPlan posts tags 0..k-1 in order and fires them in a seeded
// permutation: matching is conflict-free and every arrival hashes to a
// different bin.
func permutedPlan(r *rng, k int) seqPlan {
	p := identityPlan(k, func(i int) int32 { return int32(i) })
	shuffle(r, p.SendTags)
	for pos, tag := range p.SendTags {
		p.WantPos[tag] = int32(pos)
	}
	return p
}

// wildcardMix is the share of each wildcard class among the receives of
// the unexpected-message workload, in percent.
var wildcardMix = [match.NumClasses]int{
	match.ClassNone: 40, match.ClassSrcWild: 25, match.ClassTagWild: 25, match.ClassBothWild: 10,
}

// wildcardPlan fires k permuted tags and then posts k receives whose
// wildcard classes follow wildcardMix exactly, in a seeded order. Every
// message is already stored when the first receive is posted, so a receive
// with a wildcard tag takes the earliest message left and a receive with a
// tag takes that message: the plan picks the tags so that every receive
// finds exactly one message and none is left over.
func wildcardPlan(r *rng, k int) seqPlan {
	p := permutedPlan(r, k)
	classes := make([]match.WildcardClass, 0, k)
	for c, pct := range wildcardMix {
		for i := 0; i < k*pct/100; i++ {
			classes = append(classes, match.WildcardClass(c))
		}
	}
	for len(classes) < k { // k not a multiple of 20: fill with the plain class
		classes = append(classes, match.ClassNone)
	}
	shuffle(r, classes)

	left := make([]int32, k) // positions of messages not yet taken, in arrival order
	for i := range left {
		left[i] = int32(i)
	}
	for j, c := range classes {
		pick := 0 // a wildcard tag matches the earliest stored message
		if c == match.ClassNone || c == match.ClassSrcWild {
			pick = r.intn(len(left))
		}
		pos := left[pick]
		left = append(left[:pick], left[pick+1:]...)
		p.WantPos[j] = pos
		p.RecvSrc[j], p.RecvTag[j] = 0, p.SendTags[pos]
		if c == match.ClassSrcWild || c == match.ClassBothWild {
			p.RecvSrc[j] = int32(mpi.AnySource)
		}
		if c == match.ClassTagWild || c == match.ClassBothWild {
			p.RecvTag[j] = int32(mpi.AnyTag)
		}
	}
	return p
}

// jobMix is the daemon churn mix in percent. Every job runs on the
// in-process fabric: a TCP job leaves sockets in TIME_WAIT for a minute, and
// the kernel's search for a free port slows as they pile up, so a mix with
// TCP jobs measures how many runs came before it (see README.md).
var jobMix = [numJobClasses]int{jobOffload: 70, jobHost: 30}

// genInputs derives a workload's inputs from the seed. The same workload,
// seed and size always give the same bytes.
func genInputs(workload string, seed uint64, sz size) (inputs, error) {
	r := newRNG(seed, workload)
	var in inputs
	switch workload {
	case "nc_burst":
		for i := 0; i < plansPerWorkload; i++ {
			in.Plans = append(in.Plans, permutedPlan(r, sz.k))
		}
	case "unexp_wild":
		for i := 0; i < plansPerWorkload; i++ {
			in.Plans = append(in.Plans, wildcardPlan(r, sz.k))
		}
	case "wc_burst":
		in.Plans = []seqPlan{identityPlan(sz.k, func(int) int32 { return wcTag })}
	case "tcp_eager", "shm_rndv":
		in.Plans = []seqPlan{identityPlan(sz.k, func(i int) int32 { return int32(i) })}
	case "analyze_sweep":
		for i, app := range tracegen.Apps() {
			if app.Procs <= sz.maxProcs {
				in.AppOrder = append(in.AppOrder, i)
			}
		}
		shuffle(r, in.AppOrder)
	case "daemon_churn":
		// Exact class counts in a seeded order: every seed submits the same
		// work, so throughput does not depend on the draw.
		in.Jobs = make([][]jobClass, driverGoroutines)
		per := sz.repOps / driverGoroutines
		for t := range in.Jobs {
			jobs := make([]jobClass, 0, per)
			for c, pct := range jobMix {
				for i := 0; i < per*pct/100; i++ {
					jobs = append(jobs, jobClass(c))
				}
			}
			for len(jobs) < per {
				jobs = append(jobs, jobOffload)
			}
			shuffle(r, jobs)
			in.Jobs[t] = jobs
		}
	default:
		return in, fmt.Errorf("unknown workload %q", workload)
	}
	return in, nil
}
