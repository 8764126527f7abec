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

// ModelFootprintBytes computes the modeled resident bytes of a matcher of
// shape c: Bins × bin size across the three index tables, the MaxReceives
// descriptor table, and InFlightBlocks × BlockSize block-slot envelopes.
func ModelFootprintBytes(c core.Config) int {
	return core.IndexTables*c.Bins*core.BinModelBytes +
		c.MaxReceives*core.DescriptorModelBytes +
		max(c.InFlightBlocks, 1)*c.BlockSize*EnvelopeModelBytes
}
