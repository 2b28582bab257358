package buffer

import (
	"testing"

	"repro/internal/page"
)

// scratchPool builds a pool over 2 KiB pages whose fetch hands back one
// shared scratch page stamped with the page id — the engine's fetch shape
// — and whose write-back does nothing.
func scratchPool(capacity int) *Pool {
	scratch := page.NewBuf(2048)
	return New(capacity, len(scratch),
		func(p page.PageID) (page.Buf, error) {
			scratch[0], scratch[1] = byte(p), byte(p>>8)
			return scratch, nil
		},
		func(*Frame) error { return nil })
}

// TestEvictedFrameIsRecycled pins the ownership rule: a frame's buffers
// are its own for life, the fetched image is copied into them (the fetch
// scratch can be reused at once), and a miss that evicts reuses the
// victim's frame — a clean one that does not leak the victim's state.
func TestEvictedFrameIsRecycled(t *testing.T) {
	bp := scratchPool(2)
	get := func(p page.PageID) *Frame {
		t.Helper()
		f, err := bp.Get(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(p)
		if f.Page != p || f.Data[0] != byte(p) || f.DiskVersion[0] != byte(p) {
			t.Fatalf("page %d: frame holds page %d, data %d, disk version %d", p, f.Page, f.Data[0], f.DiskVersion[0])
		}
		return f
	}
	f0, f1 := get(0), get(1)
	if &f0.Data[0] == &f1.Data[0] || &f0.Data[0] == &f0.DiskVersion[0] {
		t.Fatalf("frames share a buffer with each other or with the fetch scratch")
	}
	bp.MarkDirty(0, 7)
	f0.Residue = true
	data0 := &f0.Data[0]
	get(1) // page 0 is now the LRU victim
	f2 := get(2)
	if f2 != f0 || &f2.Data[0] != data0 {
		t.Fatalf("the miss did not reuse the evicted frame and its buffer")
	}
	if f2.Dirty || f2.Residue || len(f2.Modifiers) != 0 {
		t.Fatalf("recycled frame leaks the victim's state: dirty=%v residue=%v modifiers=%v", f2.Dirty, f2.Residue, f2.Modifiers)
	}
	if f1.Data[0] != 1 {
		t.Fatalf("a bystander frame changed: %d", f1.Data[0])
	}
}

// TestGetMissRecyclingDoesNotAllocate guards the steady state: a miss on a
// full pool reuses the victim's frame and allocates nothing.
func TestGetMissRecyclingDoesNotAllocate(t *testing.T) {
	bp := scratchPool(8)
	next := page.PageID(0)
	miss := func() {
		if _, err := bp.Get(next, nil); err != nil {
			t.Fatal(err)
		}
		bp.Unpin(next)
		next++
	}
	for i := 0; i < 16; i++ {
		miss()
	}
	if n := testing.AllocsPerRun(200, miss); n >= 0.1 {
		t.Fatalf("a recycling miss allocates %.2f objects, want < 0.1", n)
	}
}

func BenchmarkPoolGetHit(b *testing.B) {
	bp := scratchPool(256)
	for p := page.PageID(0); p < 256; p++ {
		if _, err := bp.Get(p, nil); err != nil {
			b.Fatal(err)
		}
		bp.Unpin(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := page.PageID(i % 256)
		if _, err := bp.Get(p, nil); err != nil {
			b.Fatal(err)
		}
		bp.Unpin(p)
	}
}

// BenchmarkPoolGetMissEvict is a miss on a full pool: evict the clean LRU
// frame, fetch, fill.
func BenchmarkPoolGetMissEvict(b *testing.B) {
	bp := scratchPool(64)
	b.SetBytes(2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := page.PageID(i)
		if _, err := bp.Get(p, nil); err != nil {
			b.Fatal(err)
		}
		bp.Unpin(p)
	}
}
