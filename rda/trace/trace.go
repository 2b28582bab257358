// Package trace defines the engine's replayable workload trace format
// and its deterministic replayer.
//
// A trace is a versioned, self-describing recording of a transactional
// workload: a header naming the workload that produced it (generator
// spec, seed, concurrency) and the database shape it was generated for
// (page count, page size, logging granularity), followed by a flat
// sequence of operations interleaved across up to 256 concurrent
// transaction streams.  The encoding is canonical — encoding a decoded
// trace reproduces the input byte for byte — and guarded by a CRC-32C
// trailer, so traces can be stored, diffed and shipped between harnesses
// as plain files.
//
// Replay executes a trace against a live engine single-threaded in
// trace order, which makes the replay itself deterministic: two replays
// of the same trace against the same configuration produce the same
// commit history, the same transfer counts and the same final database
// image.  Replay reports a digest over the commit history and the final
// on-disk state precisely so harnesses can assert that determinism.
// The same trace replays unchanged across array geometries (RAID-5
// rotated parity, parity striping, mirroring, any group width) and EOT
// disciplines, because operations address logical pages, not disks —
// that is what makes trace-driven geometry sweeps apples-to-apples.
//
// Payloads are not stored in the trace.  Each write op carries a 64-bit
// argument from which the replayer expands the full page or record
// image with a splitmix64 stream; the first 8 bytes of the image are
// the argument itself, little endian, so semantic workloads (the
// banking generator's account balances) can round-trip literal values
// while synthetic workloads get pseudorandom bytes — one rule, both
// uses, no image storage.
package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/rda"
)

// Magic identifies a trace file; Version is the current format version.
const (
	Magic   = "RDATRC"
	Version = 1
)

// Mode is the logging/locking granularity a trace was generated for.
// Page-mode traces address whole pages; record-mode traces address
// (page, slot) records.  A trace replays only on an engine opened in
// the matching mode.
type Mode uint8

// Trace modes.
const (
	ModePage Mode = iota
	ModeRecord
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeRecord {
		return "record"
	}
	return "page"
}

// LoggingMode maps the trace mode onto the engine's configuration enum.
func (m Mode) LoggingMode() rda.LoggingMode {
	if m == ModeRecord {
		return rda.RecordLogging
	}
	return rda.PageLogging
}

// Kind is an operation type.
type Kind uint8

// Operation kinds.  Begin, Commit and Abort bracket one transaction on
// one stream; the page and record ops are the transaction body.
const (
	OpBegin Kind = iota
	OpCommit
	OpAbort
	OpReadPage
	OpWritePage
	OpReadRecord
	OpWriteRecord
	kindCount // sentinel for validation
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case OpBegin:
		return "begin"
	case OpCommit:
		return "commit"
	case OpAbort:
		return "abort"
	case OpReadPage:
		return "read"
	case OpWritePage:
		return "write"
	case OpReadRecord:
		return "readrec"
	case OpWriteRecord:
		return "writerec"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IsEOT reports whether the op ends its stream's transaction.
func (k Kind) IsEOT() bool { return k == OpCommit || k == OpAbort }

// Op is one traced operation.
type Op struct {
	// Kind is the operation type.
	Kind Kind
	// Stream is the concurrent transaction stream (0 ≤ Stream < Streams)
	// the op belongs to; replay keeps one open transaction per stream.
	Stream uint8
	// Page is the logical page id (page and record ops).
	Page uint32
	// Slot is the record slot within the page (record ops).
	Slot uint16
	// Arg seeds the write payload: the replayer expands it to a full
	// page or record image (see Payload).  Unused by reads.
	Arg uint64
}

// Header describes the workload a trace records and the database shape
// it addresses.
type Header struct {
	// Version is the format version the trace was encoded with.
	Version uint16
	// Mode is the logging/locking granularity.
	Mode Mode
	// Streams is the number of concurrent transaction streams.
	Streams uint8
	// NumPages is the page count the generator addressed; the replaying
	// engine must have at least this many pages.
	NumPages uint32
	// PageSize is the page size in bytes (payload expansion depends on
	// it, so it must match the replaying engine exactly).
	PageSize uint32
	// RecordSize is the record length in bytes (record mode only).
	RecordSize uint32
	// Seed is the generator seed the trace was produced from.
	Seed int64
	// Spec is the human-readable generator spec (e.g.
	// "zipfian:theta=0.99"), carried for provenance.
	Spec string
}

// Trace is a decoded trace: header plus operation sequence.
type Trace struct {
	Header Header
	Ops    []Op
}

// Config applies the trace's database-shape fields onto a base engine
// configuration, leaving the base's geometry choices (layout, group
// width, RDA, EOT discipline, buffer size) in place.  This is the one
// place a harness derives an engine config from a trace, so every
// replayer agrees on what "compatible" means.
func (t *Trace) Config(base rda.Config) rda.Config {
	base.Logging = t.Header.Mode.LoggingMode()
	base.NumPages = int(t.Header.NumPages)
	base.PageSize = int(t.Header.PageSize)
	if t.Header.Mode == ModeRecord {
		base.RecordSize = int(t.Header.RecordSize)
	}
	return base
}

// Errors returned by Decode.
var (
	ErrBadMagic   = errors.New("trace: not a trace file")
	ErrBadVersion = errors.New("trace: unsupported format version")
	ErrCorrupt    = errors.New("trace: corrupt trace")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes the trace into its canonical byte form: magic,
// header, op count, varint-packed ops, CRC-32C trailer.  Encoding is a
// pure function of the trace value, so Encode(Decode(b)) == b.
func (t *Trace) Encode() []byte {
	var buf []byte
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	buf = append(buf, byte(t.Header.Mode), t.Header.Streams)
	buf = binary.LittleEndian.AppendUint32(buf, t.Header.NumPages)
	buf = binary.LittleEndian.AppendUint32(buf, t.Header.PageSize)
	buf = binary.LittleEndian.AppendUint32(buf, t.Header.RecordSize)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Header.Seed))
	buf = binary.AppendUvarint(buf, uint64(len(t.Header.Spec)))
	buf = append(buf, t.Header.Spec...)
	buf = binary.AppendUvarint(buf, uint64(len(t.Ops)))
	for _, op := range t.Ops {
		buf = append(buf, byte(op.Kind), op.Stream)
		switch op.Kind {
		case OpReadPage:
			buf = binary.AppendUvarint(buf, uint64(op.Page))
		case OpWritePage:
			buf = binary.AppendUvarint(buf, uint64(op.Page))
			buf = binary.AppendUvarint(buf, op.Arg)
		case OpReadRecord:
			buf = binary.AppendUvarint(buf, uint64(op.Page))
			buf = binary.AppendUvarint(buf, uint64(op.Slot))
		case OpWriteRecord:
			buf = binary.AppendUvarint(buf, uint64(op.Page))
			buf = binary.AppendUvarint(buf, uint64(op.Slot))
			buf = binary.AppendUvarint(buf, op.Arg)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return buf
}

// decoder walks the encoded bytes with bounds checking.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.err = fmt.Errorf("%w: truncated at offset %d", ErrCorrupt, d.off)
		return nil
	}
	out := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return out
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("%w: bad varint at offset %d", ErrCorrupt, d.off)
		return 0
	}
	d.off += n
	return v
}

// Decode parses an encoded trace, validating magic, version, structure
// and checksum, and accepts only the canonical form: Encode of the result
// is b.
func Decode(b []byte) (*Trace, error) {
	if len(b) < len(Magic)+4 {
		return nil, ErrBadMagic
	}
	if string(b[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	d := &decoder{b: body, off: len(Magic)}
	var t Trace
	if v := d.take(2); v != nil {
		t.Header.Version = binary.LittleEndian.Uint16(v)
	}
	if d.err == nil && t.Header.Version != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, t.Header.Version, Version)
	}
	if mb := d.take(2); mb != nil {
		t.Header.Mode, t.Header.Streams = Mode(mb[0]), mb[1]
	}
	if t.Header.Mode > ModeRecord {
		return nil, fmt.Errorf("%w: unknown mode %d", ErrCorrupt, t.Header.Mode)
	}
	if v := d.take(4); v != nil {
		t.Header.NumPages = binary.LittleEndian.Uint32(v)
	}
	if v := d.take(4); v != nil {
		t.Header.PageSize = binary.LittleEndian.Uint32(v)
	}
	if v := d.take(4); v != nil {
		t.Header.RecordSize = binary.LittleEndian.Uint32(v)
	}
	if v := d.take(8); v != nil {
		t.Header.Seed = int64(binary.LittleEndian.Uint64(v))
	}
	if n := d.uvarint(); d.err == nil {
		t.Header.Spec = string(d.take(n))
	}
	n := d.uvarint()
	if d.err == nil && n > uint64(len(body)) { // each op is ≥ 2 bytes
		return nil, fmt.Errorf("%w: impossible op count %d", ErrCorrupt, n)
	}
	t.Ops = make([]Op, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		var op Op
		if kb := d.take(2); kb != nil {
			op.Kind, op.Stream = Kind(kb[0]), kb[1]
		}
		if op.Kind >= kindCount {
			return nil, fmt.Errorf("%w: unknown op kind %d at op %d", ErrCorrupt, op.Kind, i)
		}
		switch op.Kind {
		case OpReadPage:
			op.Page = uint32(d.uvarint())
		case OpWritePage:
			op.Page = uint32(d.uvarint())
			op.Arg = d.uvarint()
		case OpReadRecord:
			op.Page = uint32(d.uvarint())
			op.Slot = uint16(d.uvarint())
		case OpWriteRecord:
			op.Page = uint32(d.uvarint())
			op.Slot = uint16(d.uvarint())
			op.Arg = d.uvarint()
		}
		t.Ops = append(t.Ops, op)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body)-d.off)
	}
	// A varint that is not minimal, or a page or slot wider than its
	// field, decodes to a trace that encodes to other bytes.
	if !bytes.Equal(t.Encode(), b) {
		return nil, fmt.Errorf("%w: not in canonical form", ErrCorrupt)
	}
	return &t, nil
}

// Payload expands a write op's 64-bit argument into an n-byte image:
// the argument itself occupies the first 8 bytes little endian (fewer
// when n < 8) and a splitmix64 stream seeded by it fills the rest.
// Deterministic, so every replay writes identical bytes.
func Payload(arg uint64, n int) []byte {
	buf := make([]byte, n)
	var le [8]byte
	binary.LittleEndian.PutUint64(le[:], arg)
	copy(buf, le[:])
	state := arg
	for i := 8; i < n; i += 8 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		binary.LittleEndian.PutUint64(le[:], z)
		copy(buf[i:], le[:])
	}
	return buf
}
