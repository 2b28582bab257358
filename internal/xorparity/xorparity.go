// Package xorparity implements the exclusive-or block algebra that
// underlies every redundancy and recovery operation in the repository.
//
// The paper relies on three algebraic facts about XOR parity:
//
//  1. Small-write parity update (Section 3.1): for a write of D_new over
//     D_old in a group with parity P, the new parity is
//     P_new = P ⊕ D_old ⊕ D_new.
//  2. Transaction undo via twin parity (Figure 6):
//     D_old = (P ⊕ P′) ⊕ D_new, where P and P′ are the twin parity pages
//     and exactly one data page of the group differs between them.
//  3. Media reconstruction: a lost block equals the XOR of all surviving
//     blocks of its group (data blocks and the valid parity block).
//
// XOR parity is the m = 1 special case of the erasure code in
// internal/erasure: addition in GF(2^8) is XOR, so this package is a thin
// facade over erasure's P equation and its behavior is bit-identical to
// the pre-erasure implementation.  The second (Q) equation lives entirely
// in internal/erasure and only arrays configured with QParity use it.
//
// All functions operate on equal-length byte slices and either mutate a
// destination in place or allocate a fresh result, as documented.
package xorparity

import "repro/internal/erasure"

// XorInto computes dst ^= src in place.  It panics if the lengths differ,
// because mismatched block sizes indicate a programming error in the
// storage layer rather than a recoverable runtime condition.
func XorInto(dst, src []byte) {
	erasure.AddInto(dst, src)
}

// Xor returns a ^ b as a freshly allocated slice.
func Xor(a, b []byte) []byte {
	out := make([]byte, len(a))
	copy(out, a)
	erasure.AddInto(out, b)
	return out
}

// Compute returns the parity of an arbitrary set of equal-length blocks.
// With no blocks it returns a zeroed slice of length size.
func Compute(size int, blocks ...[]byte) []byte {
	return erasure.ComputeP(size, blocks...)
}

// SmallWrite folds a small (single page) write into parity in place:
// P_new = P_old ⊕ D_old ⊕ D_new.  This is the read-modify-write protocol
// described in Section 3.1 for RAID with rotated parity and used verbatim
// by parity striping; the caller owns the parity page it just read, so no
// third page is needed.
func SmallWrite(parity, dataOld, dataNew []byte) {
	XorInto(parity, dataOld)
	XorInto(parity, dataNew)
}

// UndoTwin recovers the before-image of the single data page that differs
// between the two twin parity pages:
//
//	D_old = (P ⊕ P′) ⊕ D_new
//
// (Figure 6).  It is the caller's responsibility to guarantee that exactly
// one data page of the group changed between the states captured by p and
// pPrime; the dirty-group bookkeeping in internal/dirtyset enforces this.
func UndoTwin(p, pPrime, dataNew []byte) []byte {
	out := Xor(p, pPrime)
	XorInto(out, dataNew)
	return out
}

// Reconstruct recovers a lost block as the XOR of the surviving blocks of
// its parity group (the surviving data blocks plus the valid parity
// block).
func Reconstruct(size int, survivors ...[]byte) []byte {
	return Compute(size, survivors...)
}
