// Package erasure is the erasure-coding algebra behind the array's
// redundancy: the XOR parity equation the paper builds on (P), plus an
// optional second Reed-Solomon equation over GF(2^8) (Q) in the style of
// RAID-6.
//
// A parity group with data pages D_0 … D_{k-1} maintains
//
//	P = D_0 ⊕ D_1 ⊕ … ⊕ D_{k-1}
//	Q = g⁰·D_0 ⊕ g¹·D_1 ⊕ … ⊕ g^{k-1}·D_{k-1}
//
// where g = 2 generates the multiplicative group of GF(2^8) with the
// primitive polynomial x⁸+x⁴+x³+x²+1 (0x11d) and · is field
// multiplication applied byte-wise.  P alone recovers any single missing
// block; P and Q together recover any two.  Because addition in GF(2^8)
// is XOR, the P equation here is bit-identical to package xorparity — the
// single-parity array is exactly the m = 1 special case of this code, and
// xorparity now delegates to this package.
//
// The algebra the engine uses:
//
//   - small write: P' = P ⊕ D_old ⊕ D_new and Q' = Q ⊕ g^i·(D_old ⊕ D_new)
//     — neither update needs any other member of the group;
//   - one data block i missing, P lost: D_i = g^{-i}·(Q ⊕ Σ_{k≠i} g^k·D_k);
//   - two data blocks i < j missing: with the partial sums
//     S_p = P ⊕ Σ_{k∉{i,j}} D_k and S_q = Q ⊕ Σ_{k∉{i,j}} g^k·D_k,
//     D_i = (g^j·S_p ⊕ S_q) / (g^i ⊕ g^j) and D_j = S_p ⊕ D_i.
//
// All functions operate on equal-length byte slices; length mismatches
// panic, as in xorparity, because they indicate a storage-layer bug.
package erasure

import (
	"crypto/subtle"
	"fmt"
)

// Generator polynomial x⁸+x⁴+x³+x²+1 and generator element of GF(2^8).
const (
	poly      = 0x11d
	generator = 2
)

// exp and log are the generator power tables: exp[i] = g^i (doubled so
// products of logs index without a mod), log[exp[i]] = i for i in
// [0, 255).  mulTable[c] is the product row of coefficient c
// (mulTable[c][s] = c·s), so the page kernels index once per byte and
// never branch on a zero operand.
var (
	expTable [510]byte
	logTable [256]int
	mulTable [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		expTable[i+255] = byte(x)
		logTable[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= poly
		}
	}
	for c := 1; c < 256; c++ {
		for v := 1; v < 256; v++ {
			mulTable[c][v] = expTable[logTable[c]+logTable[v]]
		}
	}
}

// Exp returns g^i for i ≥ 0 — the Q-equation coefficient of the data
// block at group index i.
func Exp(i int) byte {
	return expTable[i%255]
}

// Mul returns the GF(2^8) product a·b.
func Mul(a, b byte) byte { return mulTable[a][b] }

// Inv returns the multiplicative inverse of a.  It panics on 0, which has
// no inverse; callers divide only by sums of distinct coefficients, which
// are never zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("erasure: inverse of zero")
	}
	return expTable[255-logTable[a]]
}

// Div returns a / b in GF(2^8).  It panics when b is 0.
func Div(a, b byte) byte {
	return Mul(a, Inv(b))
}

// check panics on a block-length mismatch.
func check(a, b []byte) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("erasure: length mismatch %d != %d", len(a), len(b)))
	}
}

// AddInto computes dst ^= src in place — field addition, identical to
// xorparity.XorInto.
func AddInto(dst, src []byte) {
	check(dst, src)
	subtle.XORBytes(dst, dst, src)
}

// MulAddInto computes dst ^= c·src in place, the fused step every Q
// computation is built from.  c = 1 degenerates to AddInto; c = 0 is a
// no-op.
func MulAddInto(dst, src []byte, c byte) {
	check(dst, src)
	switch c {
	case 0:
	case 1:
		subtle.XORBytes(dst, dst, src)
	default:
		row := &mulTable[c]
		dst = dst[:len(src)]
		for i, v := range src {
			dst[i] ^= row[v]
		}
	}
}

// MulInto scales dst by c in place.
func MulInto(dst []byte, c byte) {
	if c == 1 {
		return
	}
	row := &mulTable[c]
	for i, d := range dst {
		dst[i] = row[d]
	}
}

// ComputeP returns the P parity (plain XOR) of the given blocks.  Nil
// blocks count as zero pages, so callers can pass a group with holes.
func ComputeP(size int, blocks ...[]byte) []byte {
	out := make([]byte, size)
	for _, b := range blocks {
		if b != nil {
			AddInto(out, b)
		}
	}
	return out
}

// ComputeQ returns the Q redundancy Σ g^i·D_i of the given blocks, where
// i is each block's position in the argument list (its index within the
// parity group).  Nil blocks count as zero pages.
func ComputeQ(size int, blocks ...[]byte) []byte {
	out := make([]byte, size)
	for i, b := range blocks {
		if b != nil {
			MulAddInto(out, b, Exp(i))
		}
	}
	return out
}

// QSmallWrite folds a small write of dataNew over dataOld at group index
// idx into q in place:
//
//	Q' = Q ⊕ g^idx·D_old ⊕ g^idx·D_new
//
// the Q-side counterpart of xorparity.SmallWrite, needing no other group
// member and no scratch page.
func QSmallWrite(q, dataOld, dataNew []byte, idx int) {
	MulAddInto(q, dataOld, Exp(idx))
	MulAddInto(q, dataNew, Exp(idx))
}

// ReconstructOneQ recovers the single missing data block at group index
// `missing` from Q and the surviving data blocks — the path taken when
// both a data block and the P parity are unavailable.  blocks holds the
// group's data pages in index order with nil at (at least) the missing
// slot; non-missing entries must all be present.
func ReconstructOneQ(q []byte, blocks [][]byte, missing int) []byte {
	acc := make([]byte, len(q))
	copy(acc, q)
	for i, b := range blocks {
		if i == missing {
			continue
		}
		if b == nil {
			panic("erasure: ReconstructOneQ needs every non-missing block")
		}
		MulAddInto(acc, b, Exp(i))
	}
	MulInto(acc, Inv(Exp(missing)))
	return acc
}

// ReconstructTwo recovers the two missing data blocks at group indexes i
// and j (i ≠ j) from P, Q and the surviving data blocks.  blocks holds
// the group's data pages in index order with nil at the missing slots.
// The returned slices are the recovered D_i and D_j.
func ReconstructTwo(p, q []byte, blocks [][]byte, i, j int) (di, dj []byte) {
	check(p, q)
	if i == j {
		panic("erasure: ReconstructTwo needs two distinct indexes")
	}
	sp := make([]byte, len(p))
	copy(sp, p)
	sq := make([]byte, len(q))
	copy(sq, q)
	for k, b := range blocks {
		if k == i || k == j {
			continue
		}
		if b == nil {
			panic("erasure: ReconstructTwo needs every non-missing block")
		}
		AddInto(sp, b)
		MulAddInto(sq, b, Exp(k))
	}
	// g^j·S_p ⊕ S_q = (g^i ⊕ g^j)·D_i.
	di = make([]byte, len(p))
	copy(di, sp)
	MulInto(di, Exp(j))
	AddInto(di, sq)
	MulInto(di, Inv(Exp(i)^Exp(j)))
	dj = make([]byte, len(p))
	copy(dj, sp)
	AddInto(dj, di)
	return di, dj
}

// VerifyQ reports whether q equals the Q redundancy of the given data
// blocks in index order.
func VerifyQ(q []byte, blocks ...[]byte) bool {
	acc := make([]byte, len(q))
	for i, b := range blocks {
		if b != nil {
			MulAddInto(acc, b, Exp(i))
		}
	}
	for i := range acc {
		if acc[i] != q[i] {
			return false
		}
	}
	return true
}
