package bench

import "repro/internal/core"

// Memory-footprint model for a full matching configuration. The §IV-E
// budget in core.ModelFootprint covers only the matcher's tables (bins and
// receive descriptors); a deployed configuration additionally pins memory
// per in-flight block slot (the staged envelopes of a block in formation)
// and per peer for the sender-side eager coalescer's frame buffers.
// Daemon admission charges a job against its tenant's budget with this
// model.
const (
	// EnvelopeModelBytes is the accounted size of one staged envelope in a
	// block slot: the wire header fields, inline hash, and payload pointer.
	EnvelopeModelBytes = 64
	// CoalesceHeaderBytes is the accounted per-frame overhead of one
	// coalescer buffer beyond its byte threshold.
	CoalesceHeaderBytes = 64
)

// FootprintConfig names the knobs that pin memory.
type FootprintConfig struct {
	// Bins per hash table (three tables, core.IndexTables).
	Bins int
	// MaxReceives is the descriptor-table capacity.
	MaxReceives int
	// BlockSize × InFlight block slots hold staged envelopes.
	BlockSize int
	InFlight  int
	// CoalesceBytes is the per-destination frame buffer size (0 = coalescing
	// off, no buffers); Peers is the number of destinations buffered.
	CoalesceBytes int
	Peers         int
}

// ModelFootprintBytes computes the modeled resident bytes of one
// configuration: bins × bin size across the three index tables, the
// descriptor table, K × N block-slot envelopes, and the per-peer coalescer
// buffers.
func ModelFootprintBytes(c FootprintConfig) int {
	inflight := c.InFlight
	if inflight < 1 {
		inflight = 1
	}
	total := core.IndexTables * c.Bins * core.BinModelBytes
	total += c.MaxReceives * core.DescriptorModelBytes
	total += inflight * c.BlockSize * EnvelopeModelBytes
	if c.CoalesceBytes > 0 && c.Peers > 0 {
		total += c.Peers * (c.CoalesceBytes + CoalesceHeaderBytes)
	}
	return total
}
