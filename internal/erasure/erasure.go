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
// is XOR, the P equation here is plain XOR parity — the single-parity
// array is exactly the m = 1 special case of this code.
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
// Every Q computation is built from one step, dst ^= c·src (MulAddInto),
// which has two implementations that agree byte for byte: a loop with one
// product-row lookup per byte, and on amd64 CPUs with AVX2 a kernel that
// looks 32 bytes up at once in two sixteen-entry tables (kernel_amd64.s).
// The reconstructions run in the redundancy pages handed to them and
// allocate nothing.
//
// All functions operate on equal-length byte slices; length mismatches
// panic, because they indicate a storage-layer bug.
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

// MaxMembers is the widest group the Q equation can protect: member i's
// coefficient is g^i and g has order 255, so a 256th member would share
// member 0's coefficient and the two could not be told apart.
const MaxMembers = 255

// exp and log are the generator power tables: exp[i] = g^i (doubled so
// products of logs index without a mod), log[exp[i]] = i for i in
// [0, 255).  mulTable[c] is the product row of coefficient c
// (mulTable[c][s] = c·s), so the byte loop indexes once per byte and
// never branches on a zero operand.  nibTable[c] is the same row split by
// nibble for the vector kernel, which looks sixteen-entry tables up 32
// bytes at a time: bytes 0–15 are c·v for v = 0…15, bytes 16–31 are
// c·(v<<4), and c·v = c·(v&15) ⊕ c·(v&240) because multiplication
// distributes over XOR.  8 KiB for all 256 coefficients.
var (
	expTable [510]byte
	logTable [256]int
	mulTable [256][256]byte
	nibTable [256][32]byte
)

// useVector selects the vector kernel (mulAddVec) for the whole 32-byte
// blocks of a slice.  Set once, from the CPU; the tests clear it to run the
// byte loop on the same machine.
var useVector = vectorAvailable()

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
		for v := 0; v < 16; v++ {
			nibTable[c][v] = mulTable[c][v]
			nibTable[c][16+v] = mulTable[c][v<<4]
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

// check panics on a block-length mismatch.
func check(a, b []byte) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("erasure: length mismatch %d != %d", len(a), len(b)))
	}
}

// AddInto computes dst ^= src in place — field addition, which is XOR.
func AddInto(dst, src []byte) {
	check(dst, src)
	subtle.XORBytes(dst, dst, src)
}

// MulAddInto computes dst ^= c·src in place, the fused step every Q
// computation is built from.  c = 1 degenerates to AddInto; c = 0 is a
// no-op.  dst and src may be the same slice (a ^= c·a) but must not
// otherwise overlap.
//
// Where the CPU has AVX2 the whole 32-byte blocks go through the vector
// kernel (two 16-entry lookups per 32 bytes) and the byte loop — one
// product-row lookup per byte — takes the tail; everywhere else the byte
// loop takes it all.  The two agree byte for byte.
func MulAddInto(dst, src []byte, c byte) {
	check(dst, src)
	switch c {
	case 0:
	case 1:
		subtle.XORBytes(dst, dst, src)
	default:
		if n := len(src) &^ 31; useVector && n > 0 {
			mulAddVec(&nibTable[c], &dst[0], &src[0], n)
			dst, src = dst[n:], src[n:]
		}
		row := &mulTable[c]
		dst = dst[:len(src)]
		for i, v := range src {
			dst[i] ^= row[v]
		}
	}
}

// MulInto scales dst by c in place.  It is MulAddInto of dst onto itself
// with the coefficient c ⊕ 1 — d ⊕ (c ⊕ 1)·d = c·d — so both run on the
// same kernel.
func MulInto(dst []byte, c byte) {
	MulAddInto(dst, dst, c^1)
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
// the Q-side counterpart of the P small write, needing no other group
// member and no scratch page.
func QSmallWrite(q, dataOld, dataNew []byte, idx int) {
	MulAddInto(q, dataOld, Exp(idx))
	MulAddInto(q, dataNew, Exp(idx))
}

// ReconstructOneQ recovers the single missing data block at group index
// `missing` from Q and the surviving data blocks — the path taken when
// both a data block and the P parity are unavailable.  blocks holds the
// group's data pages in index order with nil at (at least) the missing
// slot; non-missing entries must all be present.  The solve runs in q,
// which holds the recovered block on return: no page is allocated.
func ReconstructOneQ(q []byte, blocks [][]byte, missing int) {
	for i, b := range blocks {
		if i == missing {
			continue
		}
		if b == nil {
			panic("erasure: ReconstructOneQ needs every non-missing block")
		}
		MulAddInto(q, b, Exp(i))
	}
	MulInto(q, Inv(Exp(missing)))
}

// ReconstructTwo recovers the two missing data blocks at group indexes i
// and j (i ≠ j) from P, Q and the surviving data blocks.  blocks holds
// the group's data pages in index order with nil at the missing slots.
// The solve runs in the two pages handed in: on return q holds D_i and p
// holds D_j, and no page is allocated.
func ReconstructTwo(p, q []byte, blocks [][]byte, i, j int) {
	check(p, q)
	if i == j {
		panic("erasure: ReconstructTwo needs two distinct indexes")
	}
	// p and q become the partial sums S_p and S_q.
	for k, b := range blocks {
		if k == i || k == j {
			continue
		}
		if b == nil {
			panic("erasure: ReconstructTwo needs every non-missing block")
		}
		AddInto(p, b)
		MulAddInto(q, b, Exp(k))
	}
	// g^j·S_p ⊕ S_q = (g^i ⊕ g^j)·D_i, then D_j = S_p ⊕ D_i.
	MulAddInto(q, p, Exp(j))
	MulInto(q, Inv(Exp(i)^Exp(j)))
	AddInto(p, q)
}
