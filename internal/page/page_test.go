package page

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestGroupMapping(t *testing.T) {
	tests := []struct {
		p     PageID
		n     int
		group GroupID
		index int
	}{
		{0, 10, 0, 0},
		{9, 10, 0, 9},
		{10, 10, 1, 0},
		{25, 10, 2, 5},
		{0, 1, 0, 0},
		{7, 1, 7, 0},
		{4999, 10, 499, 9},
	}
	for _, tt := range tests {
		if g := GroupOf(tt.p, tt.n); g != tt.group {
			t.Errorf("GroupOf(%d,%d) = %d, want %d", tt.p, tt.n, g, tt.group)
		}
		if i := IndexInGroup(tt.p, tt.n); i != tt.index {
			t.Errorf("IndexInGroup(%d,%d) = %d, want %d", tt.p, tt.n, i, tt.index)
		}
	}
}

func TestFirstInGroupRoundTrip(t *testing.T) {
	f := func(p uint32, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		pid := PageID(p % (1 << 20))
		g := GroupOf(pid, n)
		first := FirstInGroup(g, n)
		// The page must lie inside [first, first+n).
		return pid >= first && int(pid-first) < n &&
			int(pid-first) == IndexInGroup(pid, n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBufCloneIndependence(t *testing.T) {
	b := NewBuf(64)
	b[0] = 0xAA
	c := b.Clone()
	c[0] = 0x55
	if b[0] != 0xAA {
		t.Fatalf("Clone aliases the original buffer")
	}
	if b.Equal(c) {
		t.Fatalf("buffers should differ after mutation")
	}
	c[0] = 0xAA
	if !b.Equal(c) {
		t.Fatalf("buffers should be equal again")
	}
}

func TestBufZero(t *testing.T) {
	b := NewBuf(32)
	if !b.IsZero() {
		t.Fatalf("fresh buffer must be zero")
	}
	b[31] = 1
	if b.IsZero() {
		t.Fatalf("buffer with a set byte is not zero")
	}
	b.Zero()
	if !b.IsZero() {
		t.Fatalf("Zero must clear the buffer")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	b := NewBuf(128)
	for i := range b {
		b[i] = byte(i * 7)
	}
	sum := b.Checksum()
	b[100] ^= 0x01
	if b.Checksum() == sum {
		t.Fatalf("single-bit flip not detected by checksum")
	}
}

func TestChecksumStable(t *testing.T) {
	b := NewBuf(16)
	if b.Checksum() != b.Clone().Checksum() {
		t.Fatalf("checksum must be a pure function of contents")
	}
}

func TestEqualLengthMismatch(t *testing.T) {
	if NewBuf(8).Equal(NewBuf(9)) {
		t.Fatalf("buffers of different length must not compare equal")
	}
}

// BenchmarkChecksum is the CRC-32C every verified block read and every
// ledgered write pays once, on a 2 KiB page: the drive computes it and the
// array's write ledger takes the drive's value.
func BenchmarkChecksum(b *testing.B) {
	buf := NewBuf(2048)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		checksumSink += buf.Checksum()
	}
}

// checksumSink keeps the compiler from dropping the benchmarked call.
var checksumSink uint32

// TestFreeListBoundsAndReuses: a put page is the next one got, pages of
// another size and pages beyond the bound are left to the collector, and
// a warmed list hands pages out without allocating.
func TestFreeListBoundsAndReuses(t *testing.T) {
	l := NewFreeList(64, 2)
	a := l.Get()
	if len(a) != 64 {
		t.Fatalf("Get returned %d bytes, want 64", len(a))
	}
	a[0] = 0xAA
	l.Put(a, nil, NewBuf(32))
	if l.Len() != 1 {
		t.Fatalf("Len = %d after putting one good page, nil and a wrong-size page; want 1", l.Len())
	}
	if b := l.Get(); &b[0] != &a[0] {
		t.Fatal("Get did not return the page that was put")
	}
	l.Put(NewBuf(64), NewBuf(64), NewBuf(64))
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want the bound 2", l.Len())
	}
	if n := testing.AllocsPerRun(100, func() {
		x, y := l.Get(), l.Get()
		l.Put(x, y)
	}); n != 0 {
		t.Fatalf("warmed Get/Put allocates %.1f times", n)
	}
}

// TestFreeListConcurrentOwnersNeverShareAPage: goroutines that each stamp
// the page they hold never see another's stamp, whatever the
// interleaving (run under -race).
func TestFreeListConcurrentOwnersNeverShareAPage(t *testing.T) {
	l := NewFreeList(64, 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w byte) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := l.Get()
				for j := range b {
					b[j] = w
				}
				for j := range b {
					if b[j] != w {
						t.Errorf("page shared between owners: byte %d is %d, want %d", j, b[j], w)
						return
					}
				}
				l.Put(b)
			}
		}(byte(w))
	}
	wg.Wait()
}

// IndexInGroup returns the position (0..N-1) of page p within its parity
// group.
func IndexInGroup(p PageID, n int) int {
	return int(uint32(p) % uint32(n))
}
