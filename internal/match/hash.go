package match

// Key hashing shared by the binned baseline and the optimistic engine.
// The functions are deliberately cheap — the paper's §IV-D "inline hash
// values" optimization assumes the sender can compute them in a handful of
// instructions — while mixing well enough that consecutive tags or ranks do
// not collide systematically (FNV-1a over the key words, finalized with a
// 64-bit avalanche).

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

func mix64(x uint64) uint64 {
	// SplitMix64 finalizer: full avalanche in three multiply-xor rounds.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fnvPrime64Pow4 is fnvPrime64^4 mod 2^64: four FNV-1a steps over zero
// bytes (h ^= 0; h *= prime, four times) are one multiply by it.
const fnvPrime64Pow4 = 0x9ffaac085635bc91

// fnvWord folds one key word into h, as FNV-1a over its eight
// little-endian bytes when widened to 64 bits: the four bytes of w, then
// the four always-zero upper bytes as a single multiply.
func fnvWord(h uint64, w uint32) uint64 {
	h = (h ^ uint64(w&0xff)) * fnvPrime64
	h = (h ^ uint64(w>>8&0xff)) * fnvPrime64
	h = (h ^ uint64(w>>16&0xff)) * fnvPrime64
	h = (h ^ uint64(w>>24)) * fnvPrime64
	return h * fnvPrime64Pow4
}

// fnv1a hashes three key words. The bin a key lands in is paper-visible
// (Figure 7's queue depth against bins), so the function is pinned:
// hash_test.go holds recorded values and the byte-at-a-time reference.
func fnv1a(a, b, c uint32) uint64 {
	return mix64(fnvWord(fnvWord(fnvWord(fnvOffset64, a), b), c))
}

// HashSrcTag hashes a fully specified (source, tag, communicator) key, used
// by the no-wildcard index.
func HashSrcTag(src Rank, tag Tag, comm CommID) uint64 {
	return fnv1a(uint32(src), uint32(tag), uint32(comm))
}

// HashTag hashes a (tag, communicator) key, used by the source-wildcard
// index (the source is unknown at posting time).
func HashTag(tag Tag, comm CommID) uint64 {
	return fnv1a(0xa5a5a5a5, uint32(tag), uint32(comm))
}

// HashSrc hashes a (source, communicator) key, used by the tag-wildcard
// index (the tag is unknown at posting time).
func HashSrc(src Rank, comm CommID) uint64 {
	return fnv1a(0x5a5a5a5a, uint32(src), uint32(comm))
}

// InlineHashes carries the three sender-computable hash values of a message
// (§IV-D "inline hash values"): they depend only on the message header, so a
// sender can place them in the wire header and spare the accelerator the
// hashing work.
type InlineHashes struct {
	SrcTag uint64 // HashSrcTag(src, tag, comm)
	Tag    uint64 // HashTag(tag, comm)
	Src    uint64 // HashSrc(src, comm)
}

// ComputeInlineHashes returns the three hash values for an envelope.
func ComputeInlineHashes(e *Envelope) InlineHashes {
	return InlineHashes{
		SrcTag: HashSrcTag(e.Source, e.Tag, e.Comm),
		Tag:    HashTag(e.Tag, e.Comm),
		Src:    HashSrc(e.Source, e.Comm),
	}
}
