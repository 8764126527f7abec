package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/match"
)

// Collectives built on point-to-point operations. The paper's discussion
// (§VII) motivates offloaded tag matching precisely so that collectives —
// "normally built on top of point-to-point operations, and hence need
// matching to be performed in order to be offloaded" — can run entirely on
// the SmartNIC: every tree edge below goes through the configured matching
// engine.
//
// Collective traffic uses negative tags, which the public Isend/Irecv API
// rejects, so it can never collide with application messages. Successive
// collectives on one communicator may share a tag: the non-overtaking
// constraint (C2) keeps per-pair messages in program order.

// Internal collective tags.
const (
	tagBcast  = -10
	tagReduce = -11
)

// ReduceOp combines src into acc; both slices have equal length. The
// operation must be associative (as MPI requires).
type ReduceOp func(acc, src []byte)

// OpSumFloat64 adds vectors of float64 (MPI_SUM over MPI_DOUBLE).
func OpSumFloat64(acc, src []byte) {
	for i := 0; i+8 <= len(acc); i += 8 {
		putF64(acc[i:], getF64(acc[i:])+getF64(src[i:]))
	}
}

// Bcast broadcasts root's buf to every rank over a binomial tree
// (MPI_Bcast). All ranks must pass equal-length buffers.
func (c Comm) Bcast(root int, buf []byte) error {
	if err := c.p.checkPeer(root); err != nil {
		return err
	}
	n := c.p.n
	if n == 1 {
		return nil
	}
	rel := (c.p.rank - root + n) % n

	// Receive from the parent (non-root ranks).
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent := (rel - mask + root + n) % n
			if _, err := c.recvColl(parent, tagBcast, buf); err != nil {
				return err
			}
			break
		}
		mask <<= 1
	}
	// Forward to children in decreasing mask order.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel&mask == 0 && rel+mask < n {
			child := (rel + mask + root) % n
			if err := c.sendColl(child, tagBcast, buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// Reduce combines every rank's data with op into out at root (MPI_Reduce).
// out is only written at root and must have len(data); data is not
// modified. All ranks must pass equal-length data.
func (c Comm) Reduce(root int, data []byte, op ReduceOp, out []byte) error {
	if err := c.p.checkPeer(root); err != nil {
		return err
	}
	if op == nil {
		return fmt.Errorf("mpi: Reduce requires an op")
	}
	n := c.p.n
	acc := append([]byte(nil), data...)
	if n > 1 {
		rel := (c.p.rank - root + n) % n
		tmp := make([]byte, len(data))
		for mask := 1; mask < n; mask <<= 1 {
			if rel&mask == 0 {
				peerRel := rel | mask
				if peerRel < n {
					peer := (peerRel + root) % n
					st, err := c.recvColl(peer, tagReduce, tmp)
					if err != nil {
						return err
					}
					if st.Count != len(acc) {
						return fmt.Errorf("mpi: Reduce length mismatch: %d vs %d", st.Count, len(acc))
					}
					op(acc, tmp)
				}
			} else {
				parent := (rel - mask + root + n) % n
				if err := c.sendColl(parent, tagReduce, acc); err != nil {
					return err
				}
				break
			}
		}
	}
	if c.p.rank == root {
		if len(out) < len(acc) {
			return ErrTruncated
		}
		copy(out, acc)
	}
	return nil
}

// Allreduce is Reduce to rank 0 followed by Bcast (MPI_Allreduce). out
// must have len(data) on every rank.
func (c Comm) Allreduce(data []byte, op ReduceOp, out []byte) error {
	if err := c.Reduce(0, data, op, out); err != nil {
		return err
	}
	if c.p.rank != 0 {
		if len(out) < len(data) {
			return ErrTruncated
		}
	}
	return c.Bcast(0, out[:len(data)])
}

// collContext derives the collective matching context of a communicator.
// Like real MPI implementations, collectives run in a context separate from
// point-to-point traffic, so an application's wildcard receives can never
// intercept tree messages. User communicators are non-negative, so the
// derived IDs never collide with them (or with internalComm).
func collContext(id match.CommID) match.CommID { return -1000 - id }

// sendColl / recvColl run on the collective context and bypass the public
// non-negative-tag validation for the reserved collective tags.
func (c Comm) sendColl(dst, tag int, data []byte) error {
	req, err := c.p.isend(dst, tag, collContext(c.id), data)
	if err != nil {
		return err
	}
	_, err = req.Wait()
	return err
}

func (c Comm) recvColl(src, tag int, buf []byte) (Status, error) {
	req, err := c.p.irecv(src, tag, collContext(c.id), buf)
	if err != nil {
		return Status{}, err
	}
	return req.Wait()
}

// float64 little-endian buffer helpers.
func getF64(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func putF64(b []byte, v float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
}

// Float64s view helpers for callers working in doubles.

// PackFloat64s encodes vs into a fresh byte buffer.
func PackFloat64s(vs []float64) []byte {
	b := make([]byte, 8*len(vs))
	for i, v := range vs {
		putF64(b[8*i:], v)
	}
	return b
}

// UnpackFloat64s decodes a buffer produced by PackFloat64s.
func UnpackFloat64s(b []byte) []float64 {
	vs := make([]float64, len(b)/8)
	for i := range vs {
		vs[i] = getF64(b[8*i:])
	}
	return vs
}
