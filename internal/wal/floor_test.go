package wal

import (
	"math"
	"testing"

	"repro/internal/page"
)

// TestBracketCarriesTheFloor: an EOT or abort carries its floor in Page,
// through the frame encoding, within 2^31 − 1 of its transaction either
// way; a floor further above is lowered to that distance, one further
// below is not carried, and a bracket built without one carries none.
func TestBracketCarriesTheFloor(t *testing.T) {
	const far = page.TxID(math.MaxInt32)
	for _, tc := range []struct {
		txn, f, want page.TxID
		ok           bool
	}{
		{txn: 10, f: 11, want: 11, ok: true},
		{txn: 10, f: 10, want: 10, ok: true},
		{txn: 10, f: 3, want: 3, ok: true},
		{txn: 10, f: 0, want: 0, ok: true},
		{txn: 10, f: 10 + far, want: 10 + far, ok: true},
		{txn: 10, f: 10 + far + 5, want: 10 + far, ok: true},
		{txn: far + 20, f: 20, want: 20, ok: true},
		{txn: far + 20, f: 19},
	} {
		for _, typ := range []Type{TypeEOT, TypeAbort} {
			l := New(DefaultConfig())
			r, err := l.Read(l.Append(Bracket(typ, tc.txn, tc.f)))
			if err != nil {
				t.Fatal(err)
			}
			if f, ok := r.Floor(); f != tc.want || ok != tc.ok || r.Txn != tc.txn {
				t.Errorf("%v of %d with floor %d: txn %d, floor %d, %v; want %d, %v", typ, tc.txn, tc.f, r.Txn, f, ok, tc.want, tc.ok)
			}
		}
	}
	if _, ok := (Record{Type: TypeEOT, Txn: 4}).Floor(); ok {
		t.Error("a bracket built without a floor carries one")
	}
	if f, ok := Checkpoint(7, nil).Floor(); f != 7 || !ok {
		t.Errorf("checkpoint floor %d, %v; want 7", f, ok)
	}
	if _, ok := (Record{Type: TypeBeforeImage, Txn: 4, Page: 9}).Floor(); ok {
		t.Error("a before-image carries a floor")
	}
}

// TestFloorSurvivesTruncation: the anchored floor only rises, and outlives
// the records truncation drops.
func TestFloorSurvivesTruncation(t *testing.T) {
	l := New(DefaultConfig())
	l.Append(Bracket(TypeEOT, 1, 2))
	l.SetFloor(2)
	l.SetFloor(1)
	l.Truncate(LSN(l.Len()) + 1)
	if l.FirstLSN() != 2 || l.Floor() != 2 {
		t.Fatalf("after truncation: first LSN %d, floor %d; want 2 and 2", l.FirstLSN(), l.Floor())
	}
	l.DropUnforced()
	if l.Floor() != 2 {
		t.Fatalf("a crash took the anchored floor: %d", l.Floor())
	}
}
