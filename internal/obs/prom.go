package obs

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Prometheus/OpenMetrics text exporter. A long-running host (cmd/matchd)
// exposes every tenant's CounterSets and histograms on one /metrics
// endpoint; this file renders them in the text exposition format scrapers
// expect: one `# TYPE` header per metric family, counter samples suffixed
// `_total`, and log2 histograms expanded into cumulative `le` buckets.
//
// The exporter is deliberately snapshot-shaped: it folds each sink
// (Sink.Fold, two short lock sections per matcher) and then reads atomic
// counters, so a scrape never holds up the arrival hot path for longer than
// one of its own lock sections.

// Label is one name="value" pair attached to a sink group's samples.
// Order is preserved; callers list the most significant label first
// (e.g. tenant before job).
type Label struct {
	Name, Value string
}

// LabeledSinks is one group of sinks exported under a shared label set.
// The group's counters are summed across its sinks (e.g. all ranks of one
// tenant job) and its histograms are bucket-merged, so each group becomes
// exactly one sample per metric family.
type LabeledSinks struct {
	Labels []Label
	Sinks  []*Sink
}

// promEscape escapes a label value per the exposition format.
var promEscape = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// renderLabels renders {a="x",b="y"}, or "" for an empty set.
func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Name, promEscape.Replace(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// counterSums returns the group's per-counter totals.
func (g *LabeledSinks) counterSums() [NumCounters]uint64 {
	var sums [NumCounters]uint64
	for _, s := range g.Sinks {
		if s == nil {
			continue
		}
		s.Fold()
		for i := Counter(0); i < NumCounters; i++ {
			sums[i] += s.Counters.Load(i)
		}
	}
	return sums
}

// histSum merges one histogram family across the group's sinks.
func (g *LabeledSinks) histSum(h Hist) HistSnapshot {
	out := HistSnapshot{}
	var buckets [HistBuckets]uint64
	last := -1
	for _, s := range g.Sinks {
		if s == nil {
			continue
		}
		hs := s.Hist(h)
		out.Count += hs.Count
		out.Sum += hs.Sum
		for i, v := range hs.Buckets {
			buckets[i] += v
			if v != 0 && i > last {
				last = i
			}
		}
	}
	if last >= 0 {
		out.Buckets = append([]uint64(nil), buckets[:last+1]...)
	}
	return out
}

// WriteProm writes the groups' counters and histograms in the
// Prometheus/OpenMetrics text exposition format, every metric name
// prefixed `prefix_`. Families with no nonzero sample anywhere are
// omitted; family and group order is deterministic (enum order, caller
// order). The caller owns the surrounding document — gauges it computes
// itself and the terminating `# EOF` line.
func WriteProm(w io.Writer, prefix string, groups []LabeledSinks) error {
	bw := &promWriter{w: w}

	// Counters: one family per enum entry with any nonzero sample.
	sums := make([][NumCounters]uint64, len(groups))
	for gi := range groups {
		sums[gi] = groups[gi].counterSums()
	}
	for c := Counter(0); c < NumCounters; c++ {
		any := false
		for gi := range groups {
			if sums[gi][c] != 0 {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		name := prefix + "_" + c.String()
		bw.printf("# TYPE %s counter\n", name)
		for gi := range groups {
			if sums[gi][c] == 0 {
				continue
			}
			bw.printf("%s_total%s %d\n", name, renderLabels(groups[gi].Labels), sums[gi][c])
		}
	}

	// Histograms: log2 bucket i holds values v with bits.Len64(v) == i, so
	// its inclusive upper bound is 2^i - 1; cumulate and close with +Inf.
	for h := Hist(0); h < NumHists; h++ {
		merged := make([]HistSnapshot, len(groups))
		any := false
		for gi := range groups {
			merged[gi] = groups[gi].histSum(h)
			if merged[gi].Count != 0 {
				any = true
			}
		}
		if !any {
			continue
		}
		name := prefix + "_" + h.String()
		bw.printf("# TYPE %s histogram\n", name)
		for gi := range groups {
			hs := merged[gi]
			if hs.Count == 0 {
				continue
			}
			labels := groups[gi].Labels
			cum := uint64(0)
			for i, v := range hs.Buckets {
				cum += v
				le := fmt.Sprintf("%d", upperBound(i))
				bw.printf("%s_bucket%s %d\n", name, renderLabels(labels, Label{"le", le}), cum)
			}
			bw.printf("%s_bucket%s %d\n", name, renderLabels(labels, Label{"le", "+Inf"}), hs.Count)
			bw.printf("%s_sum%s %d\n", name, renderLabels(labels), hs.Sum)
			bw.printf("%s_count%s %d\n", name, renderLabels(labels), hs.Count)
		}
	}
	return bw.err
}

// upperBound is the inclusive upper value of log2 bucket i (2^i - 1,
// saturating at the last absorbing bucket).
func upperBound(i int) uint64 {
	if i >= HistBuckets-1 {
		return math.MaxUint64 >> 1 // representable, monotone past the last real bound
	}
	return (uint64(1) << uint(i)) - 1
}

// promWriter accumulates the first write error so families render with one
// error check at the end.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}
