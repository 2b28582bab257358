package xorparity

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/diskarray"
)

func randBlock(r *rand.Rand, size int) []byte {
	b := make([]byte, size)
	r.Read(b)
	return b
}

// xor returns a ^ b in a fresh slice.
func xor(a, b []byte) []byte {
	out := bytes.Clone(a)
	XorInto(out, b)
	return out
}

// undoTwin is Figure 6's undo as the engine runs it: D_old = P ⊕ P′ ⊕ D_new,
// folded in place into a copy of one twin.
func undoTwin(p, pTwin, dNew []byte) []byte {
	dOld := bytes.Clone(p)
	XorInto(dOld, pTwin)
	XorInto(dOld, dNew)
	return dOld
}

// The parity algebra below is the P equation of internal/diskarray, the
// home of the small write, the twin undo and reconstruction.

func TestSmallWriteMatchesRecompute(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const size, n = 256, 5
	group := make([][]byte, n)
	for i := range group {
		group[i] = randBlock(r, size)
	}
	parity := diskarray.P.Compute(size, group...)
	for step := 0; step < 50; step++ {
		i := r.Intn(n)
		dataNew := randBlock(r, size)
		diskarray.P.SmallWrite(parity, group[i], dataNew, i)
		group[i] = dataNew
		if !bytes.Equal(parity, diskarray.P.Compute(size, group...)) {
			t.Fatalf("step %d: small-write parity diverged from full recompute", step)
		}
	}
}

func TestUndoTwinRecoversBeforeImage(t *testing.T) {
	// Figure 6: P is the committed parity, P' the working parity after one
	// data page changed.  The twin undo must return the old contents of
	// that page.
	r := rand.New(rand.NewSource(2))
	const size, n = 128, 4
	group := make([][]byte, n)
	for i := range group {
		group[i] = randBlock(r, size)
	}
	committed := diskarray.P.Compute(size, group...)
	dOld := group[2]
	dNew := randBlock(r, size)
	working := bytes.Clone(committed)
	diskarray.P.SmallWrite(working, dOld, dNew, 2)
	if got := undoTwin(committed, working, dNew); !bytes.Equal(got, dOld) {
		t.Fatalf("the twin undo did not recover the before-image")
	}
	// The operation is symmetric in the twin order.
	if got := undoTwin(working, committed, dNew); !bytes.Equal(got, dOld) {
		t.Fatalf("the twin undo must be symmetric in its parity arguments")
	}
}

func TestReconstructLostBlock(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const size, n = 64, 7
	group := make([][]byte, n)
	for i := range group {
		group[i] = randBlock(r, size)
	}
	parity := diskarray.P.Compute(size, group...)
	for lost := 0; lost < n; lost++ {
		survivors := [][]byte{parity}
		for i, b := range group {
			if i != lost {
				survivors = append(survivors, b)
			}
		}
		if got := diskarray.P.Compute(size, survivors...); !bytes.Equal(got, group[lost]) {
			t.Fatalf("failed to reconstruct data block %d", lost)
		}
	}
	// Reconstructing the parity block itself from all data blocks.
	if got := diskarray.P.Compute(size, group...); !bytes.Equal(got, parity) {
		t.Fatalf("failed to reconstruct the parity block")
	}
}

func TestQuickSmallWriteUndoRoundTrip(t *testing.T) {
	// Property: for any group state and any overwrite, the twin undo
	// identity (P ⊕ P') ⊕ D_new == D_old holds.
	f := func(a, b, c, dOld, dNew [48]byte) bool {
		committed := diskarray.P.Compute(48, a[:], b[:], c[:], dOld[:])
		working := bytes.Clone(committed)
		diskarray.P.SmallWrite(working, dOld[:], dNew[:], 3)
		return bytes.Equal(undoTwin(committed, working, dNew[:]), dOld[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComputeEmpty(t *testing.T) {
	if p := diskarray.P.Compute(16); !bytes.Equal(p, make([]byte, 16)) {
		t.Fatalf("parity of no blocks must be zero")
	}
}

func TestXorProperties(t *testing.T) {
	type blocks struct{ A, B, C [32]byte }
	// Associativity/commutativity/self-inverse over fixed-size arrays.
	selfInverse := func(in blocks) bool {
		return bytes.Equal(xor(xor(in.A[:], in.B[:]), in.B[:]), in.A[:])
	}
	commutative := func(in blocks) bool {
		return bytes.Equal(xor(in.A[:], in.B[:]), xor(in.B[:], in.A[:]))
	}
	associative := func(in blocks) bool {
		l := xor(xor(in.A[:], in.B[:]), in.C[:])
		r := xor(in.A[:], xor(in.B[:], in.C[:]))
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

func TestXorIntoPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on length mismatch")
		}
	}()
	XorInto(make([]byte, 4), make([]byte, 5))
}

// TestInPlaceKernelsDoNotAllocate guards the in-place contract: XorInto
// folds into the caller's page and needs no other one.
func TestInPlaceKernelsDoNotAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	dst, src := randBlock(r, 2048), randBlock(r, 2048)
	want := xor(dst, src)
	if n := testing.AllocsPerRun(100, func() { XorInto(dst, src) }); n != 0 {
		t.Errorf("XorInto allocates %.1f times per call, want 0", n)
	}
	// AllocsPerRun ran XorInto 101 times; an odd count leaves one fold.
	if !bytes.Equal(dst, want) {
		t.Fatalf("in-place XorInto diverges from dst ⊕ src")
	}
}
