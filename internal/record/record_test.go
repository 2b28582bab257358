package record

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/page"
	"repro/internal/wal"
)

func formatted(t *testing.T, pageSize, recSize int) (*Page, page.Buf) {
	t.Helper()
	buf := page.NewBuf(pageSize)
	if err := Format(buf, recSize); err != nil {
		t.Fatal(err)
	}
	p, err := View(buf)
	if err != nil {
		t.Fatal(err)
	}
	return &p, buf
}

func TestCapacityPaperParameters(t *testing.T) {
	// The paper's record logging analysis: l_p = 2020, r = 100.
	got := Capacity(2020, 100)
	if got < 19 || got > 20 {
		t.Fatalf("Capacity(2020,100) = %d, want ~20 records per page", got)
	}
	if Capacity(64, 1000) != 0 {
		t.Fatalf("oversized records must yield zero capacity")
	}
}

func TestFormatViewRoundTrip(t *testing.T) {
	p, _ := formatted(t, 512, 100)
	if p.RecordSize() != 100 {
		t.Fatalf("record size = %d", p.RecordSize())
	}
	if p.Slots() != Capacity(512, 100) {
		t.Fatalf("slots = %d", p.Slots())
	}
	if p.Count() != 0 {
		t.Fatalf("fresh page not empty")
	}
}

func TestViewRejectsUnformatted(t *testing.T) {
	if _, err := View(page.NewBuf(128)); !errors.Is(err, ErrNotFormatted) {
		t.Fatalf("err = %v, want ErrNotFormatted", err)
	}
	if _, err := View(page.NewBuf(2)); !errors.Is(err, ErrNotFormatted) {
		t.Fatalf("short buffer: err = %v, want ErrNotFormatted", err)
	}
}

func TestWriteReadDelete(t *testing.T) {
	p, _ := formatted(t, 512, 64)
	rec := bytes.Repeat([]byte{0x5A}, 40) // shorter than slot: zero padded
	if err := p.Write(2, rec); err != nil {
		t.Fatal(err)
	}
	if !p.Used(2) || p.Count() != 1 {
		t.Fatalf("slot 2 should be used")
	}
	got, err := p.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:40], rec) || !bytes.Equal(got[40:], make([]byte, 24)) {
		t.Fatalf("read back mismatch")
	}
	if _, err := p.Read(3); !errors.Is(err, ErrEmptySlot) {
		t.Fatalf("err = %v, want ErrEmptySlot", err)
	}
	if err := p.Delete(2); err != nil {
		t.Fatal(err)
	}
	if p.Used(2) || p.Count() != 0 {
		t.Fatalf("slot 2 should be free after delete")
	}
}

func TestInsertFindsFreeSlots(t *testing.T) {
	p, _ := formatted(t, 256, 64)
	slots := p.Slots()
	for i := 0; i < slots; i++ {
		got, err := p.Insert([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if got != i {
			t.Fatalf("insert %d landed in slot %d", i, got)
		}
	}
	if _, err := p.Insert([]byte{0xFF}); !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	if err := p.Delete(1); err != nil {
		t.Fatal(err)
	}
	if got, err := p.Insert([]byte{0xAA}); err != nil || got != 1 {
		t.Fatalf("insert after delete: slot %d err %v, want slot 1", got, err)
	}
}

func TestBounds(t *testing.T) {
	p, _ := formatted(t, 256, 64)
	if err := p.Write(-1, nil); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("err = %v, want ErrBadSlot", err)
	}
	if err := p.Write(p.Slots(), nil); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("err = %v, want ErrBadSlot", err)
	}
	if err := p.Write(0, make([]byte, 65)); !errors.Is(err, ErrBadLength) {
		t.Fatalf("err = %v, want ErrBadLength", err)
	}
}

// snapshot returns slot i's logged image, decoded.
func snapshot(t *testing.T, p *Page, i int) Image {
	t.Helper()
	b, err := p.Encoded(i)
	if err != nil {
		t.Fatal(err)
	}
	img, err := DecodeImage(b)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestSnapshotApplyUndoRedo(t *testing.T) {
	p, _ := formatted(t, 512, 32)
	// UNDO of an update: snapshot before, overwrite, apply the snapshot.
	if err := p.Write(0, []byte("old-value")); err != nil {
		t.Fatal(err)
	}
	before := snapshot(t, p, 0)
	if err := p.Write(0, []byte("new-value")); err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(0, before); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Read(0)
	if !bytes.Equal(got[:9], []byte("old-value")) {
		t.Fatalf("undo did not restore the record")
	}
	// UNDO of an insert: the before-image of an empty slot deletes it.
	empty := snapshot(t, p, 5)
	if err := p.Write(5, []byte("inserted")); err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(5, empty); err != nil {
		t.Fatal(err)
	}
	if p.Used(5) {
		t.Fatalf("undo of insert must delete the record")
	}
}

func TestImageCodecRoundTrip(t *testing.T) {
	f := func(present bool, data []byte) bool {
		img := Image{Present: present}
		if present {
			img.Data = data
		}
		got, err := DecodeImage(EncodeImage(img))
		if err != nil {
			return false
		}
		if got.Present != img.Present {
			return false
		}
		return bytes.Equal(got.Data, img.Data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeImage(nil); err == nil {
		t.Fatalf("empty payload must fail to decode")
	}
}

func TestWriteThroughAliasing(t *testing.T) {
	// A Page view writes through to the underlying buffer, so buffer
	// copies (e.g. into the WAL) see record updates.
	p, buf := formatted(t, 256, 64)
	if err := p.Write(0, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	p2, err := View(buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p2.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xEE {
		t.Fatalf("view does not alias the buffer")
	}
}

// TestReplay: the last full-page image is the base, the record images
// after it patch it in order, record images alone patch base, and dst may
// be base — the three ways abort and restart call it.
func TestReplay(t *testing.T) {
	p, buf := formatted(t, 256, 16)
	if err := p.Write(0, []byte("zero")); err != nil {
		t.Fatal(err)
	}
	full := buf.Clone()
	if err := p.Write(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	one, _ := p.Encoded(1)
	if err := p.Delete(0); err != nil {
		t.Fatal(err)
	}
	gone, _ := p.Encoded(0)
	want := buf.Clone() // slot 0 free, slot 1 "one"

	// Record images alone patch the base, in place.
	base, dst := formatted(t, 256, 16)
	if err := base.Write(0, []byte("zero")); err != nil {
		t.Fatal(err)
	}
	if err := Replay(dst, dst, []wal.Record{{Slot: 1, Image: one}, {Slot: 0, Image: gone}}); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(want) {
		t.Fatalf("record images over base: got %x, want %x", dst, want)
	}
	// A full-page image supersedes the base and every image before it.
	dst = page.NewBuf(256)
	imgs := []wal.Record{{Slot: 0, Image: gone}, {Slot: wal.NoSlot, Image: full}, {Slot: 1, Image: one}}
	if err := Replay(dst, nil, imgs); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(0, []byte("zero")); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(buf) {
		t.Fatalf("full image then a record image: got %x, want %x", dst, buf)
	}
	// Without a full-page image there must be a base of the page's size.
	if err := Replay(dst, nil, imgs[2:]); err == nil {
		t.Fatal("record images with no base: want an error")
	}
}

// RecordSize returns the fixed record size.
func (p *Page) RecordSize() int { return p.recordSize }

// Count returns the number of occupied slots.
func (p *Page) Count() int {
	n := 0
	for i := 0; i < p.slots; i++ {
		if p.Used(i) {
			n++
		}
	}
	return n
}

// Insert stores rec in the first free slot and returns its index.
func (p *Page) Insert(rec []byte) (int, error) {
	for i := 0; i < p.slots; i++ {
		if !p.Used(i) {
			return i, p.Write(i, rec)
		}
	}
	return 0, ErrFull
}
