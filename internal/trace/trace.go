// Package trace provides the MPI trace model of the paper's analyzer (C2):
// an in-memory representation of point-to-point, collective, one-sided and
// progress operations, a parser for DUMPI ASCII traces, a writer for the
// same format, and a binary cache that skips re-parsing (§V-A: "the parser
// verifies the existence of a binary cache for the given input trace, as
// parsing ... is the most time-consuming step").
package trace

import "fmt"

// OpKind classifies an MPI operation the way the analyzer processes it
// (§V-A: only p2p and progress operations drive the matching structures;
// collectives and one-sided ops are counted for the call-mix statistics but
// otherwise ignored).
type OpKind uint8

const (
	// OpSend covers MPI_Send/MPI_Isend and friends: a message injection.
	OpSend OpKind = iota
	// OpRecv covers MPI_Recv/MPI_Irecv: a posted receive.
	OpRecv
	// OpProgress covers MPI_Wait/Waitall/Test…: a statistics sample point.
	OpProgress
	// OpCollective covers MPI_Bcast/Allreduce/Alltoall/Barrier….
	OpCollective
	// OpOneSided covers MPI_Put/Get/Accumulate and window operations.
	OpOneSided
	// OpOther covers everything else (init, finalize, datatype ops, …).
	OpOther
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	case OpProgress:
		return "progress"
	case OpCollective:
		return "collective"
	case OpOneSided:
		return "one-sided"
	case OpOther:
		return "other"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Wildcard values as they appear in traces.
const (
	AnySource int32 = -1
	AnyTag    int32 = -1
)

// Event is one traced MPI call.
type Event struct {
	Kind OpKind
	// Name is the MPI function name (e.g. "MPI_Isend").
	Name string
	// Peer is the destination rank for sends and the source rank for
	// receives (AnySource for wildcard receives); unused otherwise.
	Peer int32
	// Tag is the message tag (AnyTag for wildcard receives).
	Tag int32
	// Comm is the communicator ID.
	Comm int32
	// Count is the element count of the transfer.
	Count int32
	// Walltime is the call's enter time in seconds.
	Walltime float64
}

// RankTrace is the event stream of one rank.
type RankTrace struct {
	Rank   int32
	Events []Event
}

// Trace is a full application trace.
type Trace struct {
	App   string
	Ranks []RankTrace
}

// NumRanks returns the number of rank streams.
func (t *Trace) NumRanks() int { return len(t.Ranks) }

// NumEvents returns the total event count.
func (t *Trace) NumEvents() int {
	n := 0
	for i := range t.Ranks {
		n += len(t.Ranks[i].Events)
	}
	return n
}

// CallMix is the Figure 6 statistic: the share of MPI calls by type.
type CallMix struct {
	P2P        int // sends + receives
	Progress   int
	Collective int
	OneSided   int
	Other      int
}

// CommTotal returns the calls counted for Figure 6 (p2p, collective,
// one-sided — the communication calls).
func (m CallMix) CommTotal() int { return m.P2P + m.Collective + m.OneSided }

// Add counts one call of kind k. It is the one classification of calls
// into the Figure 6 groups: Mix and the analyzer's schedule both count
// through it.
func (m *CallMix) Add(k OpKind) {
	switch k {
	case OpSend, OpRecv:
		m.P2P++
	case OpProgress:
		m.Progress++
	case OpCollective:
		m.Collective++
	case OpOneSided:
		m.OneSided++
	default:
		m.Other++
	}
}

// Mix computes the call-type distribution of the trace.
func (t *Trace) Mix() CallMix {
	var m CallMix
	for i := range t.Ranks {
		for _, e := range t.Ranks[i].Events {
			m.Add(e.Kind)
		}
	}
	return m
}

// Classify maps an MPI function name to its OpKind.
func Classify(name string) OpKind {
	if k, ok := nameKinds[name]; ok {
		return k
	}
	return OpOther
}

var nameKinds = map[string]OpKind{
	"MPI_Send":      OpSend,
	"MPI_Isend":     OpSend,
	"MPI_Ssend":     OpSend,
	"MPI_Issend":    OpSend,
	"MPI_Rsend":     OpSend,
	"MPI_Bsend":     OpSend,
	"MPI_Send_init": OpSend,

	"MPI_Recv":      OpRecv,
	"MPI_Irecv":     OpRecv,
	"MPI_Recv_init": OpRecv,

	"MPI_Wait":     OpProgress,
	"MPI_Waitall":  OpProgress,
	"MPI_Waitany":  OpProgress,
	"MPI_Waitsome": OpProgress,
	"MPI_Test":     OpProgress,
	"MPI_Testall":  OpProgress,
	"MPI_Testany":  OpProgress,
	"MPI_Testsome": OpProgress,

	"MPI_Barrier":              OpCollective,
	"MPI_Bcast":                OpCollective,
	"MPI_Reduce":               OpCollective,
	"MPI_Allreduce":            OpCollective,
	"MPI_Alltoall":             OpCollective,
	"MPI_Alltoallv":            OpCollective,
	"MPI_Allgather":            OpCollective,
	"MPI_Allgatherv":           OpCollective,
	"MPI_Gather":               OpCollective,
	"MPI_Gatherv":              OpCollective,
	"MPI_Scatter":              OpCollective,
	"MPI_Scatterv":             OpCollective,
	"MPI_Scan":                 OpCollective,
	"MPI_Exscan":               OpCollective,
	"MPI_Reduce_scatter":       OpCollective,
	"MPI_Reduce_scatter_block": OpCollective,

	"MPI_Put":        OpOneSided,
	"MPI_Get":        OpOneSided,
	"MPI_Accumulate": OpOneSided,
	"MPI_Win_create": OpOneSided,
	"MPI_Win_fence":  OpOneSided,
	"MPI_Win_lock":   OpOneSided,
	"MPI_Win_unlock": OpOneSided,
	"MPI_Win_free":   OpOneSided,
}
