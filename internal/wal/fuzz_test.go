package wal

import (
	"bytes"
	"testing"

	"repro/internal/page"
)

// FuzzDecode throws arbitrary bytes at the record frame decoder: it must
// either fail cleanly or return a record that re-encodes into the same
// frame (no panics, no silent corruption).
func FuzzDecode(f *testing.F) {
	// Seed with real frames.
	seed := encode(nil, &Record{Type: TypeEOT, Txn: 7, Slot: NoSlot})
	f.Add(seed)
	seed2 := encode(nil, &Record{
		Type: TypeBeforeImage, Txn: 1, Page: 42, Slot: 3, Image: []byte{1, 2, 3},
	})
	f.Add(seed2)
	seed3 := encode(nil, &Record{Type: TypeCheckpoint, Slot: NoSlot, Active: []page.TxID{1, 2}})
	f.Add(seed3)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, next, err := decode(data, 0)
		if err != nil {
			return // clean rejection is fine
		}
		if next <= 0 || next > len(data) {
			t.Fatalf("decode returned bad next offset %d for %d bytes", next, len(data))
		}
		re := encode(nil, &r)
		if !bytes.Equal(re, data[:next]) {
			t.Fatalf("decode/encode not a round trip:\n in %x\nout %x", data[:next], re)
		}
	})
}
