// Package page defines the fundamental identifiers and fixed-size page
// buffers shared by every storage layer in the repository.
//
// The paper ("Database Recovery Using Redundant Disk Arrays", Mourad,
// Fuchs & Saab, ICDE 1992) assumes communication between main memory and
// the I/O subsystem is performed in fixed size pages.  A logical database
// page is addressed by a PageID; N consecutive logical pages form a parity
// group addressed by a GroupID; transactions are identified by a TxID and
// ordered by a monotonically increasing Timestamp (the paper stores such a
// timestamp in the header of each twin parity page, Section 4.2).
package page

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// PageID identifies a logical database page.  Logical pages are numbered
// densely from 0 to S-1 where S is the total number of data pages in the
// database (the paper's parameter S).
type PageID uint32

// GroupID identifies a parity group: the set of N data pages that share a
// parity page (Section 4.1: "we will use the term parity group to denote a
// page parity group").
type GroupID uint32

// TxID identifies a transaction.  TxIDs are allocated monotonically by the
// transaction manager and are never reused within the lifetime of a
// database, which lets them double as the paper's parity page timestamps.
type TxID uint64

// InvalidTx is a sentinel TxID meaning "no transaction".
const InvalidTx TxID = 0

// Timestamp orders parity page versions.  The paper's Current_Parity
// algorithm (Figure 7) selects the twin with the larger timestamp; we use
// a global monotonic counter drawn by the engine so that later parity
// writes always carry strictly larger timestamps.
type Timestamp uint64

// RecordID addresses a record within a page when record-granularity
// logging and locking are in use (Section 5.3).
type RecordID struct {
	Page PageID
	Slot int
}

// String implements fmt.Stringer.
func (r RecordID) String() string { return fmt.Sprintf("%d.%d", r.Page, r.Slot) }

// MinSize is the smallest page size the storage layers accept.  It leaves
// room for the slotted-record directory used by record logging.
const MinSize = 64

// ErrBadSize reports a page buffer whose length does not match the
// configured page size.
var ErrBadSize = errors.New("page: buffer size does not match page size")

// Buf is a fixed-size page image.  All storage layers copy Buf contents on
// the way in and out, so callers may reuse their buffers freely.
type Buf []byte

// NewBuf allocates a zeroed page image of the given size.
func NewBuf(size int) Buf { return make(Buf, size) }

// FreeList is a bounded stack of idle page images of one size, safe for
// concurrent use.  The owner of a short-lived image (redundancy scratch, a
// transaction's before-image) draws it from the list and hands it back at
// the one point where nothing else can reach it any more.  The list keeps
// at most max idle pages and leaves the surplus to the collector.
type FreeList struct {
	mu        sync.Mutex
	size, max int
	free      []Buf
}

// NewFreeList returns an empty list of pages of the given size.
func NewFreeList(size, max int) *FreeList { return &FreeList{size: size, max: max} }

// Get returns a page whose contents are undefined: the caller overwrites
// all of it.
func (l *FreeList) Get() Buf {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		b := l.free[n-1]
		l.free = l.free[:n-1]
		return b
	}
	return NewBuf(l.size)
}

// Put hands pages back.  The caller must hold the only reference to each;
// nil pages and pages of another size are ignored.
func (l *FreeList) Put(pages ...Buf) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, b := range pages {
		if len(b) == l.size && len(l.free) < l.max {
			l.free = append(l.free, b)
		}
	}
}

// Len returns the number of idle pages on the list.
func (l *FreeList) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}

// Clone returns an independent copy of b.
func (b Buf) Clone() Buf {
	c := make(Buf, len(b))
	copy(c, b)
	return c
}

// Equal reports whether two page images have identical contents.
func (b Buf) Equal(o Buf) bool {
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// Zero clears the page image in place.
func (b Buf) Zero() {
	for i := range b {
		b[i] = 0
	}
}

// IsZero reports whether every byte of the page image is zero.
func (b Buf) IsZero() bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// Checksum returns a CRC-32C checksum of the page image.  The simulated
// disks store checksums out of band and verify them on read, modelling the
// sector CRCs real drives maintain.
func (b Buf) Checksum() uint32 {
	return crc32.Checksum(b, castagnoli)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Stamp is a self-describing block location stamp: the array position a
// block was written for, echoed in its out-of-band header.  A drive that
// lands a sector at the wrong LBA (a misdirected write) produces a block
// whose payload checksum is valid but whose stamp names a different
// location — the stamp check turns that silent corruption into a typed
// error, the same way the sector CRC turns bit rot into one.
//
// The high bit marks a stamp as set, so the zero Stamp (a block that was
// never stamped) never matches any location.
type Stamp uint64

const stampValid Stamp = 1 << 63

// MakeStamp returns the stamp for block `block` of disk `disk`.
func MakeStamp(disk, block int) Stamp {
	return stampValid | Stamp(uint64(uint32(disk))<<32) | Stamp(uint32(block))
}

// Matches reports whether the stamp names the given array position.
func (s Stamp) Matches(disk, block int) bool { return s == MakeStamp(disk, block) }

// Disk returns the drive the stamp names.
func (s Stamp) Disk() int { return int(uint32(s >> 32 & 0x7FFFFFFF)) }

// Block returns the block number the stamp names.
func (s Stamp) Block() int { return int(uint32(s)) }

// String implements fmt.Stringer.
func (s Stamp) String() string {
	if s&stampValid == 0 {
		return "stamp(unset)"
	}
	return fmt.Sprintf("stamp(disk %d block %d)", s.Disk(), s.Block())
}

// GroupOf returns the parity group that holds page p when groups are N
// pages wide.  Both array organizations in the paper (data striping,
// Figure 4, and parity striping, Figure 5) group N consecutive logical
// pages; only the physical placement differs.
func GroupOf(p PageID, n int) GroupID {
	return GroupID(uint32(p) / uint32(n))
}

// FirstInGroup returns the first logical page of group g when groups are N
// pages wide.
func FirstInGroup(g GroupID, n int) PageID {
	return PageID(uint32(g) * uint32(n))
}

// Raw views page buffers as the plain byte slices the parity kernels
// take (a nil page stays nil).
func Raw(pages []Buf) [][]byte {
	raw := make([][]byte, len(pages))
	for i, b := range pages {
		raw[i] = b
	}
	return raw
}
