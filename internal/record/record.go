// Package record implements the fixed-slot record layout inside pages,
// used by the record-granularity algorithms of Section 5.3.
//
// The paper's record logging analysis assumes records of average length r
// (100 bytes) packed into pages of length l_p (2020 bytes), with record
// locking underneath so that concurrent transactions may update different
// records of the same page.  This package provides a deterministic page
// layout for that model: a small header followed by a presence bitmap and
// fixed-size slots.
//
// Layout (little endian):
//
//	[0:2)  uint16 record size
//	[2:4)  uint16 slot count
//	[4:4+ceil(slots/8)) presence bitmap
//	slots  slot i at base + i*recordSize
//
// Pages are self-describing, so crash recovery can reapply record images
// to a page without external schema knowledge.
package record

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/page"
	"repro/internal/wal"
)

// Errors returned by the layout.
var (
	ErrNotFormatted = errors.New("record: page is not record-formatted")
	ErrBadSlot      = errors.New("record: slot out of range")
	ErrEmptySlot    = errors.New("record: slot is empty")
	ErrFull         = errors.New("record: page is full")
	ErrBadLength    = errors.New("record: record length does not match slot size")
)

const headerSize = 4

// Capacity returns how many records of the given size fit in a page of
// the given size, accounting for the header and presence bitmap.
func Capacity(pageSize, recordSize int) int {
	if recordSize <= 0 || pageSize <= headerSize {
		return 0
	}
	// Solve slots*(recordSize) + ceil(slots/8) + headerSize <= pageSize.
	slots := (pageSize - headerSize) / recordSize
	for slots > 0 && headerSize+(slots+7)/8+slots*recordSize > pageSize {
		slots--
	}
	return slots
}

// Format initializes buf as an empty record page with fixed-size slots.
func Format(buf page.Buf, recordSize int) error {
	slots := Capacity(len(buf), recordSize)
	if slots < 1 {
		return fmt.Errorf("record: page of %d bytes cannot hold %d-byte records", len(buf), recordSize)
	}
	buf.Zero()
	binary.LittleEndian.PutUint16(buf[0:], uint16(recordSize))
	binary.LittleEndian.PutUint16(buf[2:], uint16(slots))
	return nil
}

// Page is a view over a record-formatted page image.  It aliases the
// underlying buffer: mutations write through.
type Page struct {
	buf        page.Buf
	recordSize int
	slots      int
}

// View interprets buf as a record page.
func View(buf page.Buf) (*Page, error) {
	if len(buf) < headerSize {
		return nil, ErrNotFormatted
	}
	rs := int(binary.LittleEndian.Uint16(buf[0:]))
	slots := int(binary.LittleEndian.Uint16(buf[2:]))
	if rs == 0 || slots == 0 || slots != Capacity(len(buf), rs) {
		return nil, ErrNotFormatted
	}
	return &Page{buf: buf, recordSize: rs, slots: slots}, nil
}

// Slots returns the slot count.
func (p *Page) Slots() int { return p.slots }

func (p *Page) bitmap() page.Buf { return p.buf[headerSize : headerSize+(p.slots+7)/8] }

func (p *Page) slotBase(i int) int {
	return headerSize + (p.slots+7)/8 + i*p.recordSize
}

// Used reports whether slot i holds a record.
func (p *Page) Used(i int) bool {
	if i < 0 || i >= p.slots {
		return false
	}
	return p.bitmap()[i/8]&(1<<(i%8)) != 0
}

// Read returns a copy of the record in slot i, or the bare ErrEmptySlot
// if the slot is free: a miss is an ordinary answer, not worth
// formatting an error for.
func (p *Page) Read(i int) ([]byte, error) {
	if i < 0 || i >= p.slots {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadSlot, i, p.slots)
	}
	if !p.Used(i) {
		return nil, ErrEmptySlot
	}
	base := p.slotBase(i)
	out := make([]byte, p.recordSize)
	copy(out, p.buf[base:base+p.recordSize])
	return out, nil
}

// Write stores rec into slot i (insert or overwrite).  rec must be at
// most the slot size; shorter records are zero padded.
func (p *Page) Write(i int, rec []byte) error {
	if i < 0 || i >= p.slots {
		return fmt.Errorf("%w: %d of %d", ErrBadSlot, i, p.slots)
	}
	if len(rec) > p.recordSize {
		return fmt.Errorf("%w: %d > %d", ErrBadLength, len(rec), p.recordSize)
	}
	base := p.slotBase(i)
	copy(p.buf[base:base+p.recordSize], rec)
	for j := base + len(rec); j < base+p.recordSize; j++ {
		p.buf[j] = 0
	}
	p.bitmap()[i/8] |= 1 << (i % 8)
	return nil
}

// Delete clears slot i.
func (p *Page) Delete(i int) error {
	if i < 0 || i >= p.slots {
		return fmt.Errorf("%w: %d of %d", ErrBadSlot, i, p.slots)
	}
	base := p.slotBase(i)
	for j := base; j < base+p.recordSize; j++ {
		p.buf[j] = 0
	}
	p.bitmap()[i/8] &^= 1 << (i % 8)
	return nil
}

// Image is a record-granularity image for logging: slot plus a presence
// flag so that UNDO can restore a deleted record's absence and vice
// versa.
type Image struct {
	Present bool
	Data    []byte
}

// Encoded returns slot i's image, before or after an update, in the form
// a log record carries it (EncodeImage's), in one allocation.
func (p *Page) Encoded(i int) ([]byte, error) {
	if i < 0 || i >= p.slots {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadSlot, i, p.slots)
	}
	if !p.Used(i) {
		return []byte{0}, nil
	}
	base := p.slotBase(i)
	out := make([]byte, 1+p.recordSize)
	out[0] = 1
	copy(out[1:], p.buf[base:base+p.recordSize])
	return out, nil
}

// Apply restores slot i from a logged image (the record-level UNDO/REDO
// primitive).
func (p *Page) Apply(i int, img Image) error {
	if !img.Present {
		return p.Delete(i)
	}
	return p.Write(i, img.Data)
}

// EncodeImage serializes an image for a log record payload.
func EncodeImage(img Image) []byte {
	out := make([]byte, 1+len(img.Data))
	if img.Present {
		out[0] = 1
	}
	copy(out[1:], img.Data)
	return out
}

// DecodeImage parses a payload produced by EncodeImage.  The image's Data
// aliases b: restart decodes one per replayed log record and applies it at
// once, so it is a view of the payload, not a copy.
func DecodeImage(b []byte) (Image, error) {
	if len(b) < 1 {
		return Image{}, errors.New("record: empty image payload")
	}
	img := Image{Present: b[0] == 1}
	if img.Present {
		img.Data = b[1:]
	}
	return img, nil
}

// ImageOf returns the image of pg that a log record with the given slot
// carries: pg itself for a full-page image (wal.NoSlot), the slot's
// encoded record otherwise.
func ImageOf(pg page.Buf, slot int32) ([]byte, error) {
	if slot == wal.NoSlot {
		return pg, nil
	}
	v, err := View(pg)
	if err != nil {
		return nil, err
	}
	return v.Encoded(int(slot))
}

// Replay leaves in dst the page that imgs — logged images of one page, in
// the order they take effect — make of base.  A full-page image (Slot
// wal.NoSlot) supersedes everything before it, so replay starts at the
// last one, or at base when there is none, and the record images after it
// patch it slot by slot.  dst may be base.  Restart's REDO and logged UNDO
// and a transaction's abort all replay images through it; the page's
// reads and writes stay with them.
func Replay(dst, base page.Buf, imgs []wal.Record) error {
	full := len(imgs) - 1
	for full >= 0 && imgs[full].Slot != wal.NoSlot {
		full--
	}
	if full >= 0 {
		base = imgs[full].Image
	}
	if len(base) != len(dst) {
		return fmt.Errorf("record: page image of %d bytes for %d-byte pages", len(base), len(dst))
	}
	copy(dst, base)
	rest := imgs[full+1:]
	if len(rest) == 0 {
		return nil
	}
	v, err := View(dst)
	if err != nil {
		return err
	}
	for _, r := range rest {
		img, err := DecodeImage(r.Image)
		if err != nil {
			return err
		}
		if err := v.Apply(int(r.Slot), img); err != nil {
			return err
		}
	}
	return nil
}
