package erasure

import (
	"bytes"
	"math/rand"
	"testing"
)

// refMulAdd is the byte-at-a-time reference the table kernels replaced:
// two log lookups and a zero test per byte.
func refMulAdd(dst, src []byte, c byte) {
	for i := range dst {
		if c != 0 && src[i] != 0 {
			dst[i] ^= expTable[logTable[c]+logTable[src[i]]]
		}
	}
}

// bothPaths runs fn with the vector kernel off and, where the CPU has it,
// on, and restores the package's choice.
func bothPaths(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	detected := useVector
	defer func() { useVector = detected }()
	for _, on := range []bool{false, true} {
		if on && !detected {
			t.Log("no vector kernel on this CPU: byte loop only")
			continue
		}
		useVector = on
		t.Run(map[bool]string{false: "byteloop", true: "vector"}[on], fn)
	}
}

// TestKernelsMatchByteLoop pins AddInto, MulAddInto and MulInto to the
// byte-at-a-time reference on both paths.  Every length 0…127 (three whole
// vectors and every tail) meets all 256 coefficients at one misaligned pair
// of offsets, and meets every pair of source and destination offsets 0…31
// with a coefficient that steps through all 256 four times per length; the
// kernel has no alignment-dependent branch for an offset pair to select per
// coefficient, which is what keeps the full cross product (33 million
// calls a path) out of the suite.
func TestKernelsMatchByteLoop(t *testing.T) {
	const maxLen = 3*32 + 31
	rng := rand.New(rand.NewSource(6))
	srcBacking, dstBacking := make([]byte, 32+maxLen), make([]byte, 32+maxLen)
	rng.Read(srcBacking)
	rng.Read(dstBacking)
	want, got := make([]byte, maxLen), make([]byte, maxLen)
	one := func(t *testing.T, n, srcOff, dstOff int, c byte) {
		src, dst := srcBacking[srcOff:srcOff+n], dstBacking[dstOff:dstOff+n]
		want, got := want[:n], got[:n]
		copy(want, dst)
		refMulAdd(want, src, c)
		copy(got, dst)
		MulAddInto(got, src, c)
		if !bytes.Equal(got, want) {
			t.Fatalf("MulAddInto(n=%d src+%d dst+%d c=%#x) diverges from the byte loop", n, srcOff, dstOff, c)
		}
		// MulInto of the source's bytes, at the destination's alignment.
		clear(want)
		refMulAdd(want, src, c)
		copy(dst, src)
		MulInto(dst, c)
		if !bytes.Equal(dst, want) {
			t.Fatalf("MulInto(n=%d +%d c=%#x) diverges from the byte loop", n, dstOff, c)
		}
		rng.Read(dst) // the next product is added to random bytes again
	}
	bothPaths(t, func(t *testing.T) {
		for n := 0; n <= maxLen; n++ {
			for c := 0; c < 256; c++ {
				one(t, n, 5, 18, byte(c))
			}
			c := byte(n)
			for srcOff := 0; srcOff < 32; srcOff++ {
				for dstOff := 0; dstOff < 32; dstOff++ {
					one(t, n, srcOff, dstOff, c)
					c++
				}
			}
			src, dst := srcBacking[n%32:n%32+n], got[:n]
			copy(dst, dstBacking)
			copy(want, dst)
			for i := range src {
				want[i] ^= src[i]
			}
			AddInto(dst, src)
			if !bytes.Equal(dst, want[:n]) {
				t.Fatalf("AddInto(n=%d) diverges from the byte loop", n)
			}
		}
	})
}

// TestKernelsAliasAndStayInBounds covers the two layouts of operands the
// engine's in-place solves rely on: dst and src the same slice, defined as
// a ^= c·a, and dst directly beside src in one buffer, where no byte outside
// dst[:len(src)] — the source and the canaries either side included — may
// change.
func TestKernelsAliasAndStayInBounds(t *testing.T) {
	const maxLen = 3*32 + 31
	rng := rand.New(rand.NewSource(9))
	bothPaths(t, func(t *testing.T) {
		for n := 0; n <= maxLen; n++ {
			for _, c := range []byte{0, 1, 2, 0x53, 0xff} {
				a := make([]byte, n)
				rng.Read(a)
				want := append([]byte(nil), a...)
				refMulAdd(want, append([]byte(nil), a...), c)
				MulAddInto(a, a, c)
				if !bytes.Equal(a, want) {
					t.Fatalf("MulAddInto(a, a, %#x) at n=%d is not a ^= c·a", c, n)
				}

				// canary | src | dst | canary, then canary | dst | src | canary.
				for _, dstFirst := range []bool{false, true} {
					buf := make([]byte, 7+2*n+9)
					rng.Read(buf)
					srcAt, dstAt := 7, 7+n
					if dstFirst {
						srcAt, dstAt = dstAt, srcAt
					}
					want := append([]byte(nil), buf...)
					refMulAdd(want[dstAt:dstAt+n], buf[srcAt:srcAt+n], c)
					MulAddInto(buf[dstAt:dstAt+n], buf[srcAt:srcAt+n], c)
					if !bytes.Equal(buf, want) {
						t.Fatalf("MulAddInto beside its source (n=%d c=%#x dstFirst=%v): wrong product, or a write outside dst[:len(src)]", n, c, dstFirst)
					}
				}
			}
		}
	})
}

// TestNibbleTablesMatchProductRows checks the vector kernel's tables
// against the byte loop's for all 256 × 256 products, and both against the
// log/exp definition.
func TestNibbleTablesMatchProductRows(t *testing.T) {
	for c := 0; c < 256; c++ {
		for v := 0; v < 256; v++ {
			var ref [1]byte
			refMulAdd(ref[:], []byte{byte(v)}, byte(c))
			split := nibTable[c][v&15] ^ nibTable[c][16+v>>4]
			if row := mulTable[c][v]; row != ref[0] || split != ref[0] {
				t.Fatalf("%#x·%#x: log/exp %#x, product row %#x, nibble tables %#x", c, v, ref[0], row, split)
			}
		}
	}
}

// FuzzMulAddInto is the differential of MulAddInto against refMulAdd on
// both paths: the fuzzer picks the bytes, the coefficient and where in the
// input the two operands start.
func FuzzMulAddInto(f *testing.F) {
	f.Add([]byte("a parity group wider than one vector, with a tail: 0123456789abcdef0123456789abcdef0123456789"), byte(0x53), uint8(3))
	f.Add([]byte{}, byte(2), uint8(0))
	f.Add(bytes.Repeat([]byte{0xff}, 64), byte(0xff), uint8(1))
	f.Add(bytes.Repeat([]byte{0x80, 0x01}, 100), byte(0x1d), uint8(31))
	f.Fuzz(func(t *testing.T, data []byte, c byte, off uint8) {
		data = data[min(int(off)%32, len(data)):]
		n := len(data) / 2
		src, dst := data[:n], data[n:2*n]
		want := append([]byte(nil), dst...)
		refMulAdd(want, src, c)
		detected := useVector
		defer func() { useVector = detected }()
		for _, on := range []bool{false, detected} {
			useVector = on
			got := append([]byte(nil), dst...)
			MulAddInto(got, src, c)
			if !bytes.Equal(got, want) {
				t.Fatalf("MulAddInto(n=%d c=%#x vector=%v) diverges from the byte loop", n, c, on)
			}
		}
	})
}

// TestKernelsDoNotAllocate guards the in-place contract of the page
// kernels: no scratch page, no escape.
func TestKernelsDoNotAllocate(t *testing.T) {
	a, b, p, q := make([]byte, 2048), make([]byte, 2048), make([]byte, 2048), make([]byte, 2048)
	rand.New(rand.NewSource(7)).Read(a)
	one, two := [][]byte{a, nil, b}, [][]byte{nil, a, nil, b}
	for name, fn := range map[string]func(){
		"AddInto":         func() { AddInto(a, b) },
		"MulAddInto":      func() { MulAddInto(a, b, 0x53) },
		"MulInto":         func() { MulInto(a, 0x53) },
		"QSmallWrite":     func() { QSmallWrite(q, a, b, 7) },
		"ReconstructOneQ": func() { ReconstructOneQ(q, one, 1) },
		"ReconstructTwo":  func() { ReconstructTwo(p, q, two, 0, 2) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, n)
		}
	}
}

func benchKernel(b *testing.B, fn func(dst, src []byte, i int)) {
	dst, src := make([]byte, 2048), make([]byte, 2048)
	rand.New(rand.NewSource(8)).Read(src)
	b.SetBytes(int64(len(dst)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(dst, src, i)
	}
}

func BenchmarkAddInto(b *testing.B) {
	benchKernel(b, func(dst, src []byte, _ int) { AddInto(dst, src) })
}

func BenchmarkMulAddInto(b *testing.B) {
	benchKernel(b, func(dst, src []byte, i int) { MulAddInto(dst, src, byte(i%254)+2) })
}

// BenchmarkMulAddByteLoop is BenchmarkMulAddInto with the vector kernel
// off: what every CPU without AVX2 runs.
func BenchmarkMulAddByteLoop(b *testing.B) {
	defer func(v bool) { useVector = v }(useVector)
	useVector = false
	benchKernel(b, func(dst, src []byte, i int) { MulAddInto(dst, src, byte(i%254)+2) })
}

func BenchmarkQSmallWrite(b *testing.B) {
	old := make([]byte, 2048)
	benchKernel(b, func(q, src []byte, i int) { QSmallWrite(q, old, src, i%10) })
}
