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

// TestKernelsMatchByteLoop pins AddInto, MulAddInto and MulInto to the
// byte-loop reference for every length 0…67, at unaligned offsets into a
// larger buffer, and for all 256 coefficients.
func TestKernelsMatchByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	backing := make([]byte, 3*80)
	for n := 0; n <= 67; n++ {
		for off := 0; off < 9; off += 1 + n%3 {
			rng.Read(backing)
			src := backing[off : off+n]
			dst := backing[80+off+1 : 80+off+1+n]
			for c := 0; c < 256; c++ {
				want := append([]byte(nil), dst...)
				refMulAdd(want, src, byte(c))
				got := append([]byte(nil), dst...)
				MulAddInto(got, src, byte(c))
				if !bytes.Equal(got, want) {
					t.Fatalf("MulAddInto(n=%d off=%d c=%#x) diverges from the byte loop", n, off, c)
				}
				want = make([]byte, n)
				refMulAdd(want, src, byte(c))
				got = append([]byte(nil), src...)
				MulInto(got, byte(c))
				if !bytes.Equal(got, want) {
					t.Fatalf("MulInto(n=%d off=%d c=%#x) diverges from the byte loop", n, off, c)
				}
			}
			want := append([]byte(nil), dst...)
			for i := range want {
				want[i] ^= src[i]
			}
			AddInto(dst, src)
			if !bytes.Equal(dst, want) {
				t.Fatalf("AddInto(n=%d off=%d) diverges from the byte loop", n, off)
			}
		}
	}
}

// TestKernelsDoNotAllocate guards the in-place contract of the page
// kernels: no scratch page, no escape.
func TestKernelsDoNotAllocate(t *testing.T) {
	a, b, q := make([]byte, 2048), make([]byte, 2048), make([]byte, 2048)
	rand.New(rand.NewSource(7)).Read(a)
	for name, fn := range map[string]func(){
		"AddInto":     func() { AddInto(a, b) },
		"MulAddInto":  func() { MulAddInto(a, b, 0x53) },
		"MulInto":     func() { MulInto(a, 0x53) },
		"QSmallWrite": func() { QSmallWrite(q, a, b, 7) },
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

func BenchmarkQSmallWrite(b *testing.B) {
	old := make([]byte, 2048)
	benchKernel(b, func(q, src []byte, i int) { QSmallWrite(q, old, src, i%10) })
}
