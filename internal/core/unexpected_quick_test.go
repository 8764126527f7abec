package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/match"
)

// modelStore is the obviously-correct reference for the unexpected store: a
// flat arrival-ordered slice searched linearly.
type modelStore struct {
	envs []*match.Envelope
}

func (m *modelStore) insert(e *match.Envelope) { m.envs = append(m.envs, e) }

func (m *modelStore) take(r *match.Recv) *match.Envelope {
	for i, e := range m.envs {
		if r.Matches(e) {
			m.envs = append(m.envs[:i], m.envs[i+1:]...)
			return e
		}
	}
	return nil
}

// TestUnexpectedStoreMatchesModel drives random insert/take interleavings
// through the quadruply-indexed store and the flat model, requiring
// identical envelopes on every take — across all wildcard classes and bin
// counts.
func TestUnexpectedStoreMatchesModel(t *testing.T) {
	type scenario struct {
		Bins uint8
		Seed int64
	}
	f := func(sc scenario) bool {
		bins := int(sc.Bins%64) + 1
		rng := rand.New(rand.NewSource(sc.Seed))
		store := newUnexpectedStore(bins)
		model := &modelStore{}
		var seq uint64

		for op := 0; op < 300; op++ {
			if rng.Intn(2) == 0 {
				seq++
				env := &match.Envelope{
					Source: match.Rank(rng.Intn(5)),
					Tag:    match.Tag(rng.Intn(5)),
					Comm:   match.CommID(rng.Intn(2)),
					Seq:    seq,
				}
				store.insert(env)
				model.insert(env)
				continue
			}
			r := &match.Recv{
				Source: match.Rank(rng.Intn(5)),
				Tag:    match.Tag(rng.Intn(5)),
				Comm:   match.CommID(rng.Intn(2)),
			}
			if rng.Intn(4) == 0 {
				r.Source = match.AnySource
			}
			if rng.Intn(4) == 0 {
				r.Tag = match.AnyTag
			}
			got, _ := store.takeMatch(r)
			want := model.take(r)
			if (got == nil) != (want == nil) {
				t.Logf("bins=%d op=%d recv=%v: store=%v model=%v", bins, op, r, got, want)
				return false
			}
			if got != nil && got.Seq != want.Seq {
				t.Logf("bins=%d op=%d recv=%v: store seq %d, model seq %d", bins, op, r, got.Seq, want.Seq)
				return false
			}
		}
		return store.len() == len(model.envs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSeqIDCompatibleRuns checks the §III-D3a sequence-ID bookkeeping: the
// host increments the sequence exactly when consecutive posts are
// incompatible, for arbitrary post streams.
func TestSeqIDCompatibleRuns(t *testing.T) {
	f := func(keys []uint8) bool {
		m := MustNew(Config{Bins: 16, MaxReceives: 4096, BlockSize: 1})
		var lastKey uint8
		var have bool
		var lastSeq uint64
		for i, k := range keys {
			if i >= 2000 {
				break
			}
			r := &match.Recv{Source: match.Rank(k % 4), Tag: match.Tag(k / 4)}
			if _, _, err := m.PostRecv(r); err != nil {
				return false
			}
			seq := m.nextSeqID
			if have {
				if k == lastKey && seq != lastSeq {
					t.Logf("compatible post bumped sequence: key %d", k)
					return false
				}
				if k != lastKey && seq == lastSeq {
					t.Logf("incompatible post kept sequence: %d after %d", k, lastKey)
					return false
				}
			}
			lastKey, have, lastSeq = k, true, seq
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
