package disk

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/page"
)

func TestReadWriteRoundTrip(t *testing.T) {
	d := New(0, 8, 32)
	data := page.NewBuf(32)
	for i := range data {
		data[i] = byte(i)
	}
	meta := Meta{State: StateWorking, Timestamp: 7, Txn: 3, ChainSet: true}
	if err := d.Write(5, data, meta); err != nil {
		t.Fatal(err)
	}
	got, gotMeta, err := d.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(data) {
		t.Fatalf("data round trip failed")
	}
	if gotMeta != meta {
		t.Fatalf("meta round trip failed: got %+v want %+v", gotMeta, meta)
	}
}

func TestWriteCopiesBuffer(t *testing.T) {
	d := New(0, 2, 16)
	data := page.NewBuf(16)
	data[0] = 1
	if err := d.Write(0, data, Meta{}); err != nil {
		t.Fatal(err)
	}
	data[0] = 99 // mutating the caller's buffer must not affect the disk
	got, _, err := d.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("disk aliased caller buffer")
	}
}

func TestTransferAccounting(t *testing.T) {
	d := New(0, 4, 16)
	buf := page.NewBuf(16)
	for i := 0; i < 3; i++ {
		if err := d.Write(i, buf, Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, _, err := d.Read(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.WriteMeta(1, Meta{State: StateCommitted}); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Reads != 5 || s.Writes != 4 {
		t.Fatalf("stats = %+v, want 5 reads / 4 writes", s)
	}
	if s.Transfers() != 9 {
		t.Fatalf("Transfers() = %d, want 9", s.Transfers())
	}
	d.ResetStats()
	if d.Stats().Transfers() != 0 {
		t.Fatalf("ResetStats did not clear counters")
	}
}

func TestFailStop(t *testing.T) {
	d := New(3, 4, 16)
	if err := d.Write(0, page.NewBuf(16), Meta{}); err != nil {
		t.Fatal(err)
	}
	d.Fail()
	if !d.Failed() {
		t.Fatalf("disk should report failed")
	}
	if _, _, err := d.Read(0); !errors.Is(err, ErrFailed) {
		t.Fatalf("read after failure: err = %v, want ErrFailed", err)
	}
	if err := d.Write(0, page.NewBuf(16), Meta{}); !errors.Is(err, ErrFailed) {
		t.Fatalf("write after failure: err = %v, want ErrFailed", err)
	}
	d.Repair()
	got, meta, err := d.Read(0)
	if err != nil {
		t.Fatalf("read after repair: %v", err)
	}
	if !got.IsZero() || meta != (Meta{}) {
		t.Fatalf("repaired disk must come back zeroed")
	}
}

func TestOutOfRange(t *testing.T) {
	d := New(0, 2, 16)
	if _, _, err := d.Read(2); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if err := d.Write(-1, page.NewBuf(16), Meta{}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
}

func TestBadSize(t *testing.T) {
	d := New(0, 2, 16)
	if err := d.Write(0, page.NewBuf(15), Meta{}); !errors.Is(err, page.ErrBadSize) {
		t.Fatalf("err = %v, want ErrBadSize", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	d := New(0, 2, 16)
	buf := page.NewBuf(16)
	buf[0] = 0x42
	if err := d.Write(0, buf, Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Corrupt(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Read(0); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
	// A rewrite heals the block.
	if err := d.Write(0, buf, Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Read(0); err != nil {
		t.Fatalf("read after rewrite: %v", err)
	}
}

func TestPeekDoesNotCharge(t *testing.T) {
	d := New(0, 2, 16)
	if _, err := d.PeekData(0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PeekMeta(0); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Transfers() != 0 {
		t.Fatalf("Peek must not charge transfers")
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := New(0, 16, 32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := page.NewBuf(32)
			buf[0] = byte(g)
			for i := 0; i < 100; i++ {
				if err := d.Write(g%16, buf, Meta{Txn: page.TxID(g)}); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := d.Read(g % 16); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := d.Stats().Transfers(); got != 8*100*2 {
		t.Fatalf("transfers = %d, want %d", got, 8*100*2)
	}
}

func TestReadMeta(t *testing.T) {
	d := New(0, 4, 16)
	meta := Meta{State: StateWorking, Timestamp: 9, Txn: 2, DirtyPage: 7}
	if err := d.Write(1, page.NewBuf(16), meta); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadMeta(1)
	if err != nil {
		t.Fatal(err)
	}
	if got != meta {
		t.Fatalf("ReadMeta = %+v, want %+v", got, meta)
	}
	// Header reads are charged like block reads.
	if d.Stats().Reads != 1 {
		t.Fatalf("reads = %d, want 1", d.Stats().Reads)
	}
	if _, err := d.ReadMeta(99); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	d.Fail()
	if _, err := d.ReadMeta(1); !errors.Is(err, ErrFailed) {
		t.Fatalf("err = %v, want ErrFailed", err)
	}
}

func TestWriteMetaAndCorruptBounds(t *testing.T) {
	d := New(0, 2, 16)
	if err := d.WriteMeta(5, Meta{}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if err := d.Corrupt(5); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	d.Fail()
	if err := d.WriteMeta(0, Meta{}); !errors.Is(err, ErrFailed) {
		t.Fatalf("err = %v, want ErrFailed", err)
	}
}

func TestParityStateString(t *testing.T) {
	for s, want := range map[ParityState]string{
		StateNone: "none", StateCommitted: "committed", StateObsolete: "obsolete",
		StateWorking: "working", StateInvalid: "invalid", ParityState(99): "ParityState(99)",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
}

// TestDoReadsIntoTheCallersPage: a read request carrying a destination
// fills and returns that page, with the sum it was verified against,
// synchronously without allocating and through the queue alike; a
// destination of the wrong size is ignored.
func TestDoReadsIntoTheCallersPage(t *testing.T) {
	d := New(0, 4, 64)
	want := page.NewBuf(64)
	for i := range want {
		want[i] = byte(3 * i)
	}
	if err := d.Write(2, want, Meta{Timestamp: 9}); err != nil {
		t.Fatal(err)
	}
	dst := page.NewBuf(64)
	read := func() {
		got, meta, sum, err := d.Do(Request{Op: OpRead, Block: 2, Data: dst})
		if err != nil || &got[0] != &dst[0] || !got.Equal(want) || meta.Timestamp != 9 || sum != want.Checksum() {
			t.Fatalf("Do(read into dst): own page %v, equal %v, meta %+v, sum %08x, err %v", &got[0] == &dst[0], got.Equal(want), meta, sum, err)
		}
	}
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Fatalf("synchronous Do allocates %.1f times per read", n)
	}
	if got, _, _, err := d.Do(Request{Op: OpRead, Block: 2, Data: page.NewBuf(8)}); err != nil || len(got) != 64 || !got.Equal(want) {
		t.Fatalf("wrong-size destination: %d bytes, err %v", len(got), err)
	}
	d.StartQueue(4, 4)
	dst.Zero()
	read()
}
