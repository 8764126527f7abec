package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"
)

// spanName identifies the call a span was recorded around. Names carry the
// module of the callee, so a layer's time is the sum over its names.
type spanName uint8

const (
	spRep     spanName = iota // one timed repetition of a driver goroutine (root)
	spSeq                     // one sequence of K messages, or one daemon job
	spIsend                   // Comm.Isend
	spIrecv                   // Comm.Irecv
	spWaitall                 // Request.Wait over a sequence's requests (time waited)
	spSync                    // go / fence / ack token Send and Recv (time waited)
	spVerify                  // the benchmark's own payload and Status checks
	spSweep                   // analyzer.Sweep
	spSubmit                  // Daemon.Submit
	spWaitJob                 // Daemon.WaitJob
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"bench.rep", "bench.seq", "mpi.isend", "mpi.irecv", "mpi.waitall",
	"mpi.sync", "bench.verify", "analyzer.sweep", "daemon.submit", "daemon.wait",
}

// laneSpans is the capacity of one lane's span ring. A traced repetition
// that begins more spans than this keeps only count and sum for the rest.
const laneSpans = 1 << 20

// span is one recorded interval. Parent indexes the same lane's spans, -1
// for a root; spans of one sequence or job share ID.
type span struct {
	Name       spanName
	ID         uint32
	Parent     int32
	Start, End int64 // ns since the tracer's base
	// unrecorded is the time of this span's children that began after the
	// ring was full: they are not in the ring, but they still cover part of
	// this span.
	unrecorded int64
}

type overflow struct {
	Count int64 `json:"count"`
	SumNs int64 `json:"sum_ns"`
}

// lane records the spans of one driver goroutine. Spans of a lane nest by
// stack discipline: a span ends before its parent does, and siblings do not
// overlap. A nil lane records nothing, which is the untraced run: the
// drivers call begin and end unconditionally.
type lane struct {
	label string
	base  time.Time
	spans []span
	cur   int32 // innermost open recorded span, -1 when none
	over  [numSpanNames]overflow
	// overDepth counts the open spans that did not fit the ring.
	overDepth int
}

// spanTok is what begin hands to end. It is a value: tracing allocates
// nothing per span.
type spanTok struct {
	idx   int32
	name  spanName
	start int64
}

func newLane(label string, base time.Time, capacity int) *lane {
	return &lane{label: label, base: base, spans: make([]span, 0, capacity), cur: -1}
}

func (l *lane) begin(name spanName, id uint32) spanTok {
	if l == nil {
		return spanTok{}
	}
	now := int64(time.Since(l.base))
	if len(l.spans) == cap(l.spans) {
		l.overDepth++
		return spanTok{idx: -1, name: name, start: now}
	}
	idx := int32(len(l.spans))
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: l.cur, Start: now})
	l.cur = idx
	return spanTok{idx: idx, name: name, start: now}
}

func (l *lane) end(t spanTok) {
	if l == nil {
		return
	}
	now := int64(time.Since(l.base))
	if t.idx < 0 {
		o := &l.over[t.name]
		o.Count++
		o.SumNs += now - t.start
		if l.overDepth--; l.overDepth == 0 && l.cur >= 0 {
			l.spans[l.cur].unrecorded += now - t.start
		}
		return
	}
	s := &l.spans[t.idx]
	s.End = now
	l.cur = s.Parent
}

// nameTotals aggregates the spans of one name: how many, their summed
// duration, and their summed self time.
type nameTotals struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its children cover. Children are clipped to the parent's interval;
// by the lane's stack discipline siblings do not overlap, so the covered
// part is the sum of the clipped children, recorded or not.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start - s.unrecorded
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			self[s.Parent] -= hi - lo
		}
	}
	return self
}

// totals sums a lane's spans by name, overflowed spans included (their
// self time counts as their whole duration, since their children were not
// attributed to them).
func (l *lane) totals() [numSpanNames]nameTotals {
	var out [numSpanNames]nameTotals
	self := selfTimes(l.spans)
	for i, s := range l.spans {
		t := &out[s.Name]
		t.Count++
		t.TotalNs += s.End - s.Start
		t.SelfNs += self[i]
	}
	for n, o := range l.over {
		out[n].Count += o.Count
		out[n].TotalNs += o.SumNs
		out[n].SelfNs += o.SumNs
	}
	return out
}

// coverage is the share of root spans that their children cover:
// 1 − (root self time ÷ root duration). It is the part of a timed repetition
// the driver can attribute to a call into some layer.
func coverage(t *[numSpanNames]nameTotals) float64 {
	if t[spRep].TotalNs == 0 {
		return 0
	}
	return 1 - float64(t[spRep].SelfNs)/float64(t[spRep].TotalNs)
}

// tracer owns the lanes of one traced repetition.
type tracer struct {
	base  time.Time
	lanes []*lane
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// lane returns the lane of that label, emptied: a tracer holds the spans of
// the latest repetition only. Call it before the repetition starts, since a
// new lane's ring is allocated here.
func (t *tracer) lane(label string) *lane {
	if t == nil {
		return nil
	}
	for _, l := range t.lanes {
		if l.label == label {
			l.spans, l.cur, l.over, l.overDepth = l.spans[:0], -1, [numSpanNames]overflow{}, 0
			return l
		}
	}
	l := newLane(label, t.base, laneSpans)
	t.lanes = append(t.lanes, l)
	return l
}

// traceSummary is what a traced repetition's spans add up to.
type traceSummary struct {
	byName   [numSpanNames]nameTotals // every lane's spans summed by name
	perLane  []float64                // coverage of each lane
	coverage float64                  // the lowest of them
}

func (t *tracer) summary() traceSummary {
	sum := traceSummary{coverage: 1}
	for _, l := range t.lanes {
		lt := l.totals()
		for n, v := range lt {
			sum.byName[n].Count += v.Count
			sum.byName[n].TotalNs += v.TotalNs
			sum.byName[n].SelfNs += v.SelfNs
		}
		c := coverage(&lt)
		sum.perLane = append(sum.perLane, c)
		sum.coverage = min(sum.coverage, c)
	}
	return sum
}

// named lists the totals of the span names that occur.
func (s *traceSummary) named() map[string]nameTotals {
	out := map[string]nameTotals{}
	for n, v := range s.byName {
		if v.Count > 0 {
			out[spanNames[n]] = v
		}
	}
	return out
}

const traceSchema = "repro/benchmark-trace/v1"

// write stores the trace as JSON. Spans are rows of
// [name index, id, parent, start ns, end ns] to keep a million of them
// readable in a few tens of megabytes.
func (t *tracer) write(path, workload string, seed uint64, sum *traceSummary) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	names, _ := json.Marshal(spanNames[:])
	fmt.Fprintf(w, "{\"schema\":%q,\"workload\":%q,\"seed\":%d,\"names\":%s,\"span_columns\":[\"name\",\"id\",\"parent\",\"start_ns\",\"end_ns\"],\"lanes\":[",
		traceSchema, workload, seed, names)
	var row []byte
	for i, l := range t.lanes {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "{\"lane\":%q,\"spans\":[", l.label)
		for j, s := range l.spans {
			row = row[:0]
			if j > 0 {
				row = append(row, ',')
			}
			row = append(row, '[')
			row = strconv.AppendInt(row, int64(s.Name), 10)
			row = append(row, ',')
			row = strconv.AppendUint(row, uint64(s.ID), 10)
			row = append(row, ',')
			row = strconv.AppendInt(row, int64(s.Parent), 10)
			row = append(row, ',')
			row = strconv.AppendInt(row, s.Start, 10)
			row = append(row, ',')
			row = strconv.AppendInt(row, s.End, 10)
			row = append(row, ']')
			w.Write(row)
		}
		over := map[string]overflow{}
		for n, o := range l.over {
			if o.Count > 0 {
				over[spanNames[n]] = o
			}
		}
		ob, _ := json.Marshal(over)
		fmt.Fprintf(w, "],\"overflow\":%s,\"coverage\":%.6f}", ob, sum.perLane[i])
	}
	bn, _ := json.Marshal(sum.named())
	fmt.Fprintf(w, "],\"by_name\":%s}\n", bn)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
