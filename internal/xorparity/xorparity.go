// Package xorparity is the exclusive-or block kernel: dst ^= src.
//
// XOR parity is the m = 1 special case of the erasure code in
// internal/erasure — addition in GF(2^8) is XOR — and the parity algebra
// the engine runs (small write, Figure 6's twin undo, reconstruction) is
// the P equation of internal/diskarray, built on that package's kernels.
// XorInto remains as the benchmark's name for the kernel.
package xorparity

import "repro/internal/erasure"

// XorInto computes dst ^= src in place.  It panics if the lengths differ,
// because mismatched block sizes indicate a programming error in the
// storage layer rather than a recoverable runtime condition.
func XorInto(dst, src []byte) {
	erasure.AddInto(dst, src)
}
