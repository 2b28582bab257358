package erasure_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/diskarray"
	"repro/internal/erasure"
)

// TestFieldAxioms spot-checks the ring structure the reconstruction
// algebra relies on: commutativity, associativity and distributivity
// over XOR addition.
func TestFieldAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 10000; n++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if erasure.Mul(a, b) != erasure.Mul(b, a) {
			t.Fatalf("ab != ba for %#x %#x", a, b)
		}
		if erasure.Mul(erasure.Mul(a, b), c) != erasure.Mul(a, erasure.Mul(b, c)) {
			t.Fatalf("(ab)c != a(bc) for %#x %#x %#x", a, b, c)
		}
		if erasure.Mul(a, b^c) != erasure.Mul(a, b)^erasure.Mul(a, c) {
			t.Fatalf("a(b+c) != ab+ac for %#x %#x %#x", a, b, c)
		}
	}
}

// randStripe builds k random data blocks of the given size.
func randStripe(rng *rand.Rand, k, size int) [][]byte {
	blocks := make([][]byte, k)
	for i := range blocks {
		blocks[i] = make([]byte, size)
		rng.Read(blocks[i])
	}
	return blocks
}

// TestXorPathByteIdentical pins the P equation (diskarray.P) to plain XOR
// parity through every entry point, with the algebra the engine runs on
// it: any one block, data or parity, is the parity of the others; the
// small write folded in place matches a recompute and allocates nothing;
// Figure 6's D_old = (P ⊕ P′) ⊕ D_new takes it back; and the parity of no
// blocks is a zero page.
func TestXorPathByteIdentical(t *testing.T) {
	p := diskarray.P
	if got := p.Compute(16); !bytes.Equal(got, make([]byte, 16)) {
		t.Fatalf("the parity of no blocks is not a zero page")
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(12)
		size := 16 + rng.Intn(64)
		blocks := randStripe(rng, k, size)
		plain := make([]byte, size)
		for _, b := range blocks {
			for i := range plain {
				plain[i] ^= b[i]
			}
		}
		if got := erasure.ComputeP(size, blocks...); !bytes.Equal(got, plain) {
			t.Fatalf("ComputeP diverges from plain XOR")
		}
		if got := p.Compute(size, blocks...); !bytes.Equal(got, plain) {
			t.Fatalf("P.Compute diverges from plain XOR")
		}
		if !p.Holds(make([]byte, size), plain, blocks...) {
			t.Fatalf("the P equation rejects its own parity")
		}
		for lost := 0; lost <= k; lost++ {
			want, rest := plain, blocks
			if lost < k {
				want, rest = blocks[lost], append([][]byte{plain}, blocks...)
				rest[1+lost] = nil
			}
			if got := p.Compute(size, rest...); !bytes.Equal(got, want) {
				t.Fatalf("block %d of %d is not the parity of the others", lost, k)
			}
		}
		i, dNew := rng.Intn(k), make([]byte, size)
		rng.Read(dNew)
		dOld, working := blocks[i], bytes.Clone(plain)
		p.SmallWrite(working, dOld, dNew, i)
		blocks[i] = dNew
		if !bytes.Equal(working, p.Compute(size, blocks...)) {
			t.Fatalf("P.SmallWrite diverges from a recompute")
		}
		if got := p.Compute(size, plain, working, dNew); !bytes.Equal(got, dOld) {
			t.Fatalf("(P ⊕ P′) ⊕ D_new is not the before-image")
		}
	}
	img, dOld, dNew := make([]byte, 2048), make([]byte, 2048), make([]byte, 2048)
	rng.Read(dNew)
	if n := testing.AllocsPerRun(100, func() { p.SmallWrite(img, dOld, dNew, 0) }); n != 0 {
		t.Errorf("P.SmallWrite allocates %.1f times per call, want 0", n)
	}
}

// TestQSmallWriteMatchesRecompute checks the incremental Q update against
// a full recomputation for every group index.
func TestQSmallWriteMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		k := 2 + rng.Intn(10)
		size := 32
		blocks := randStripe(rng, k, size)
		q := erasure.ComputeQ(size, blocks...)
		idx := rng.Intn(k)
		dNew := make([]byte, size)
		rng.Read(dNew)
		got := append([]byte(nil), q...)
		erasure.QSmallWrite(got, blocks[idx], dNew, idx)
		blocks[idx] = dNew
		want := erasure.ComputeQ(size, blocks...)
		if !bytes.Equal(got, want) {
			t.Fatalf("erasure.QSmallWrite(idx=%d, k=%d) diverges from recompute", idx, k)
		}
	}
}

// TestAnyTwoErasures fuzzes the central claim: for random stripes, ANY
// two missing data blocks are recovered exactly from P and Q, and any
// single missing block is recovered from Q alone.
func TestAnyTwoErasures(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		k := 2 + rng.Intn(14)
		size := 16 + rng.Intn(48)
		blocks := randStripe(rng, k, size)
		p := erasure.ComputeP(size, blocks...)
		q := erasure.ComputeQ(size, blocks...)
		i := rng.Intn(k)
		j := rng.Intn(k)
		for j == i {
			j = rng.Intn(k)
		}
		holed := make([][]byte, k)
		copy(holed, blocks)
		holed[i], holed[j] = nil, nil
		// The solves run in the pages handed in: q becomes D_i, p D_j.
		di, dj := bytes.Clone(q), bytes.Clone(p)
		erasure.ReconstructTwo(dj, di, holed, i, j)
		if !bytes.Equal(di, blocks[i]) || !bytes.Equal(dj, blocks[j]) {
			t.Fatalf("two-erasure recovery wrong for (i=%d, j=%d, k=%d)", i, j, k)
		}
		holed[j] = blocks[j]
		if erasure.ReconstructOneQ(q, holed, i); !bytes.Equal(q, blocks[i]) {
			t.Fatalf("one-erasure-from-Q recovery wrong for (i=%d, k=%d)", i, k)
		}
	}
}

// TestAllErasurePairsExhaustive walks every (i, j) pair of one stripe so
// no coefficient pair is left to sampling luck.
func TestAllErasurePairsExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const k, size = 12, 32
	blocks := randStripe(rng, k, size)
	p := erasure.ComputeP(size, blocks...)
	q := erasure.ComputeQ(size, blocks...)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			holed := make([][]byte, k)
			copy(holed, blocks)
			holed[i], holed[j] = nil, nil
			di, dj := bytes.Clone(q), bytes.Clone(p)
			erasure.ReconstructTwo(dj, di, holed, i, j)
			if !bytes.Equal(di, blocks[i]) || !bytes.Equal(dj, blocks[j]) {
				t.Fatalf("pair (%d,%d) not recovered", i, j)
			}
		}
	}
}

// TestWidestGroupEveryPairSolvable solves every pair of erasures of a group
// of MaxMembers blocks: 255 distinct coefficients, so every g^i ⊕ g^j has
// an inverse.  One member more and the first and last would share g^0.
func TestWidestGroupEveryPairSolvable(t *testing.T) {
	const k, size = erasure.MaxMembers, 3
	if erasure.Exp(0) != erasure.Exp(k) {
		t.Fatalf("g^%d = %#x: the generator's order is not %d", k, erasure.Exp(k), k)
	}
	blocks := randStripe(rand.New(rand.NewSource(10)), k, size)
	p := erasure.ComputeP(size, blocks...)
	q := erasure.ComputeQ(size, blocks...)
	holed := make([][]byte, k)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			copy(holed, blocks)
			holed[i], holed[j] = nil, nil
			di, dj := bytes.Clone(q), bytes.Clone(p)
			erasure.ReconstructTwo(dj, di, holed, i, j)
			if !bytes.Equal(di, blocks[i]) || !bytes.Equal(dj, blocks[j]) {
				t.Fatalf("pair (%d,%d) of a %d-member group not recovered", i, j, k)
			}
		}
	}
}

// FuzzTwoErasure is the CI smoke fuzz target: derive a stripe from the
// fuzzed bytes, knock out two blocks, demand exact recovery.
func FuzzTwoErasure(f *testing.F) {
	f.Add([]byte("seed corpus stripe material, long enough to slice"), uint8(0), uint8(1))
	// The table kernels no longer branch on a zero operand: seed stripes
	// that are all zeros, all ones and mixed, at the widest group (k = 15,
	// every coefficient g^0…g^14 in play) and with the last two blocks lost.
	wide := make([]byte, 15*8)
	f.Add(append([]byte(nil), wide...), uint8(13), uint8(14))
	for i := range wide {
		wide[i] = 0xFF
	}
	f.Add(append([]byte(nil), wide...), uint8(13), uint8(0))
	for i := range wide {
		wide[i] = byte(i%3) * byte(i)
	}
	f.Add(wide, uint8(27), uint8(12))
	f.Fuzz(func(t *testing.T, raw []byte, a, b uint8) {
		const size = 8
		k := 2 + int(a%14)
		if len(raw) < k*size {
			return
		}
		blocks := make([][]byte, k)
		for i := range blocks {
			blocks[i] = raw[i*size : (i+1)*size]
		}
		i := int(a) % k
		j := int(b) % k
		if i == j {
			j = (j + 1) % k
		}
		p := erasure.ComputeP(size, blocks...)
		q := erasure.ComputeQ(size, blocks...)
		holed := make([][]byte, k)
		copy(holed, blocks)
		holed[i], holed[j] = nil, nil
		erasure.ReconstructTwo(p, q, holed, i, j)
		if !bytes.Equal(q, blocks[i]) || !bytes.Equal(p, blocks[j]) {
			t.Fatalf("two-erasure recovery wrong for (i=%d, j=%d, k=%d)", i, j, k)
		}
	})
}
