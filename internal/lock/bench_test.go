package lock

import (
	"fmt"
	"testing"

	"repro/internal/page"
)

// BenchmarkAcquireReleaseAll times one short record-locking transaction —
// four shared record locks, then ReleaseAll — while resident locks of
// other transactions sit in the table.  Release visits only the
// transaction's own locks, so ns/op should not grow with the table.
func BenchmarkAcquireReleaseAll(b *testing.B) {
	for _, resident := range []int{10, 1000} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			m := New()
			for i := 0; i < resident; i++ {
				if err := m.Acquire(page.TxID(i+1), PageResource(page.PageID(1_000_000+i)), Exclusive); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := page.TxID(resident + 1 + i)
				p := page.PageID(i % 64)
				for slot := 0; slot < 4; slot++ {
					if err := m.Acquire(tx, RecordResource(p, slot), Shared); err != nil {
						b.Fatal(err)
					}
				}
				m.ReleaseAll(tx)
			}
		})
	}
}
