package record

import (
	"testing"

	"repro/internal/page"
)

// FuzzView interprets arbitrary bytes as a record page: View must either
// reject them or return a view whose every accessor stays in bounds.
func FuzzView(f *testing.F) {
	good := page.NewBuf(256)
	_ = Format(good, 32)
	f.Add([]byte(good))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 200, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		buf := page.Buf(data)
		v, err := View(buf)
		if err != nil {
			return
		}
		for slot := -1; slot <= v.Slots(); slot++ {
			v.Used(slot)
			_, _ = v.Read(slot)
			_, _ = v.Encoded(slot)
		}
		// A write into a valid slot must round trip.
		if v.Slots() > 0 {
			rec := make([]byte, v.RecordSize())
			rec[0] = 0x5A
			if err := v.Write(0, rec); err != nil {
				t.Fatalf("write to slot 0 of a valid view: %v", err)
			}
			got, err := v.Read(0)
			if err != nil || got[0] != 0x5A {
				t.Fatalf("read back: %v %v", got, err)
			}
		}
	})
}

// FuzzImageCodec round-trips arbitrary image payloads.
func FuzzImageCodec(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := DecodeImage(data)
		if err != nil {
			return
		}
		re := EncodeImage(img)
		img2, err := DecodeImage(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if img2.Present != img.Present || string(img2.Data) != string(img.Data) {
			t.Fatalf("image codec not stable")
		}
	})
}
