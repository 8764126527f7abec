package match

import (
	"math/rand"
	"testing"
)

// refFNV1a is the byte-at-a-time definition the key hashes were introduced
// with: FNV-1a over each word widened to eight little-endian bytes, then the
// SplitMix64 finalizer. fnv1a must stay bit-identical to it — the bin a key
// lands in decides every Figure 7 queue depth.
func refFNV1a(words ...uint64) uint64 {
	h := uint64(fnvOffset64)
	for _, w := range words {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xff
			h *= fnvPrime64
		}
	}
	return mix64(h)
}

func refHashes(src Rank, tag Tag, comm CommID) (srcTag, tagOnly, srcOnly uint64) {
	s, t, c := uint64(uint32(src)), uint64(uint32(tag)), uint64(uint32(comm))
	return refFNV1a(s, t, c), refFNV1a(0xa5a5a5a5, t, c), refFNV1a(0x5a5a5a5a, s, c)
}

// TestHashPinned holds values recorded at the commit before the three-word
// fold replaced the byte loop.
func TestHashPinned(t *testing.T) {
	for _, k := range []struct {
		src              Rank
		tag              Tag
		comm             CommID
		srcTag, tagH, sH uint64
	}{
		{0, 0, 0, 0x6d688654e9834407, 0x182f571d3554cf74, 0x6cc125ef58ece10b},
		{AnySource, AnyTag, 0, 0x727b9bab5388fe1b, 0x21532915e989722d, 0x1c96741beea1bbd6},
		{3, 7, 0, 0x37372835eaf2e5ff, 0x5f8fecb3901d94ed, 0x49806094bb778260},
		{63, 1023, 1, 0xda289dd1f240cf69, 0x4af3e56f9d58a832, 0x404f0e126b0e285e},
		{1, 2147483647, 5, 0xce3b0f24df21b64a, 0x761d372b2fda8f16, 0xabd4403ce1c9e562},
		{1000, -2147483648, 7, 0x75c08bc045e5c971, 0xa31a6a70b85c8404, 0xaecdb0bbb9c8c60},
		{12, 65536, -1, 0xbf4c5a7651762dfd, 0x2d5c3d19eb659f52, 0x2bae3420af54bcdc},
	} {
		if got := HashSrcTag(k.src, k.tag, k.comm); got != k.srcTag {
			t.Errorf("HashSrcTag(%d,%d,%d) = %#x, recorded %#x", k.src, k.tag, k.comm, got, k.srcTag)
		}
		if got := HashTag(k.tag, k.comm); got != k.tagH {
			t.Errorf("HashTag(%d,%d) = %#x, recorded %#x", k.tag, k.comm, got, k.tagH)
		}
		if got := HashSrc(k.src, k.comm); got != k.sH {
			t.Errorf("HashSrc(%d,%d) = %#x, recorded %#x", k.src, k.comm, got, k.sH)
		}
	}
}

func TestHashEqualsByteReference(t *testing.T) {
	pow4 := uint64(1)
	for i := 0; i < 4; i++ {
		pow4 *= fnvPrime64
	}
	if pow4 != fnvPrime64Pow4 {
		t.Fatalf("fnvPrime64Pow4 = %#x, fnvPrime64^4 = %#x", uint64(fnvPrime64Pow4), pow4)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		src, tag, comm := Rank(rng.Uint32()), Tag(rng.Uint32()), CommID(rng.Uint32())
		if i%4 == 0 { // the small values real keys have
			src, tag, comm = Rank(rng.Intn(2048)-1), Tag(rng.Intn(1<<16)-1), CommID(rng.Intn(4))
		}
		st, tg, sr := refHashes(src, tag, comm)
		e := &Envelope{Source: src, Tag: tag, Comm: comm}
		if got := ComputeInlineHashes(e); got != (InlineHashes{SrcTag: st, Tag: tg, Src: sr}) {
			t.Fatalf("key (%d,%d,%d): got %+v, byte reference {%#x %#x %#x}", src, tag, comm, got, st, tg, sr)
		}
	}
}
