package bench

import "repro/internal/core"

// Memory-footprint model for a full matching configuration. The §IV-E
// budget in core.ModelFootprint covers only the matcher's tables (bins and
// receive descriptors); a deployed configuration additionally pins memory
// per in-flight block slot (the staged envelopes of a block in formation).
// Daemon admission charges a job against its tenant's budget with this
// model; daemon jobs never coalesce, so no coalescer buffers are charged.

// EnvelopeModelBytes is the accounted size of one staged envelope in a
// block slot: the wire header fields, inline hash, and payload pointer.
const EnvelopeModelBytes = 64

// FootprintConfig names the knobs that pin memory.
type FootprintConfig struct {
	// Bins per hash table (three tables, core.IndexTables).
	Bins int
	// MaxReceives is the descriptor-table capacity.
	MaxReceives int
	// BlockSize × InFlight block slots hold staged envelopes.
	BlockSize int
	InFlight  int
}

// ModelFootprintBytes computes the modeled resident bytes of one
// configuration: bins × bin size across the three index tables, the
// descriptor table, and K × N block-slot envelopes.
func ModelFootprintBytes(c FootprintConfig) int {
	return core.IndexTables*c.Bins*core.BinModelBytes +
		c.MaxReceives*core.DescriptorModelBytes +
		max(c.InFlight, 1)*c.BlockSize*EnvelopeModelBytes
}
