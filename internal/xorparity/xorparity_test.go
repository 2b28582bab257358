package xorparity

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBlock(r *rand.Rand, size int) []byte {
	b := make([]byte, size)
	r.Read(b)
	return b
}

func TestSmallWriteMatchesRecompute(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const size, n = 256, 5
	group := make([][]byte, n)
	for i := range group {
		group[i] = randBlock(r, size)
	}
	parity := Compute(size, group...)
	for step := 0; step < 50; step++ {
		i := r.Intn(n)
		dataNew := randBlock(r, size)
		SmallWrite(parity, group[i], dataNew)
		group[i] = dataNew
		if !bytes.Equal(parity, Compute(size, group...)) {
			t.Fatalf("step %d: small-write parity diverged from full recompute", step)
		}
	}
}

func TestUndoTwinRecoversBeforeImage(t *testing.T) {
	// Figure 6: P is the committed parity, P' the working parity after one
	// data page changed.  UndoTwin must return the old contents of that page.
	r := rand.New(rand.NewSource(2))
	const size, n = 128, 4
	group := make([][]byte, n)
	for i := range group {
		group[i] = randBlock(r, size)
	}
	committed := Compute(size, group...)
	dOld := group[2]
	dNew := randBlock(r, size)
	working := append([]byte(nil), committed...)
	SmallWrite(working, dOld, dNew)
	got := UndoTwin(committed, working, dNew)
	if !bytes.Equal(got, dOld) {
		t.Fatalf("UndoTwin did not recover the before-image")
	}
	// The operation is symmetric in the twin order.
	got = UndoTwin(working, committed, dNew)
	if !bytes.Equal(got, dOld) {
		t.Fatalf("UndoTwin must be symmetric in its parity arguments")
	}
}

func TestReconstructLostBlock(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const size, n = 64, 7
	group := make([][]byte, n)
	for i := range group {
		group[i] = randBlock(r, size)
	}
	parity := Compute(size, group...)
	for lost := 0; lost < n; lost++ {
		survivors := [][]byte{parity}
		for i, b := range group {
			if i != lost {
				survivors = append(survivors, b)
			}
		}
		if got := Reconstruct(size, survivors...); !bytes.Equal(got, group[lost]) {
			t.Fatalf("failed to reconstruct data block %d", lost)
		}
	}
	// Reconstructing the parity block itself from all data blocks.
	if got := Reconstruct(size, group...); !bytes.Equal(got, parity) {
		t.Fatalf("failed to reconstruct the parity block")
	}
}

func TestXorProperties(t *testing.T) {
	type blocks struct{ A, B, C [32]byte }
	// Associativity/commutativity/self-inverse over fixed-size arrays.
	selfInverse := func(in blocks) bool {
		x := Xor(in.A[:], in.B[:])
		x = Xor(x, in.B[:])
		return bytes.Equal(x, in.A[:])
	}
	commutative := func(in blocks) bool {
		return bytes.Equal(Xor(in.A[:], in.B[:]), Xor(in.B[:], in.A[:]))
	}
	associative := func(in blocks) bool {
		l := Xor(Xor(in.A[:], in.B[:]), in.C[:])
		r := Xor(in.A[:], Xor(in.B[:], in.C[:]))
		return bytes.Equal(l, r)
	}
	for name, f := range map[string]func(blocks) bool{
		"selfInverse": selfInverse,
		"commutative": commutative,
		"associative": associative,
	} {
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestQuickSmallWriteUndoRoundTrip(t *testing.T) {
	// Property: for any group state and any overwrite, the twin undo
	// identity (P ⊕ P') ⊕ D_new == D_old holds.
	f := func(a, b, c, dOld, dNew [48]byte) bool {
		committed := Compute(48, a[:], b[:], c[:], dOld[:])
		working := append([]byte(nil), committed...)
		SmallWrite(working, dOld[:], dNew[:])
		return bytes.Equal(UndoTwin(committed, working, dNew[:]), dOld[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXorIntoPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on length mismatch")
		}
	}()
	XorInto(make([]byte, 4), make([]byte, 5))
}

func TestComputeEmpty(t *testing.T) {
	p := Compute(16)
	if !bytes.Equal(p, make([]byte, 16)) {
		t.Fatalf("parity of no blocks must be zero")
	}
}

// TestInPlaceKernelsDoNotAllocate guards the in-place contract: XorInto
// and the small-write update fold into the caller's page and need no
// third one.
func TestInPlaceKernelsDoNotAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	parity, dOld, dNew := randBlock(r, 2048), randBlock(r, 2048), randBlock(r, 2048)
	want := Xor(Xor(parity, dOld), dNew)
	if n := testing.AllocsPerRun(100, func() { XorInto(parity, dOld) }); n != 0 {
		t.Errorf("XorInto allocates %.1f times per call, want 0", n)
	}
	XorInto(parity, dOld) // an odd number of folds so far: undo it
	if n := testing.AllocsPerRun(100, func() { SmallWrite(parity, dOld, dNew) }); n != 0 {
		t.Errorf("SmallWrite allocates %.1f times per call, want 0", n)
	}
	// AllocsPerRun ran SmallWrite 101 times; an odd count leaves one update.
	if !bytes.Equal(parity, want) {
		t.Fatalf("in-place small write diverges from P ⊕ D_old ⊕ D_new")
	}
}

// BenchmarkSmallWrite is the parity half of the small-write protocol on a
// 2 KiB page: P ⊕= D_old ⊕ D_new, in place.
func BenchmarkSmallWrite(b *testing.B) {
	r := rand.New(rand.NewSource(10))
	parity, dOld, dNew := randBlock(r, 2048), randBlock(r, 2048), randBlock(r, 2048)
	b.SetBytes(2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SmallWrite(parity, dOld, dNew)
	}
}
