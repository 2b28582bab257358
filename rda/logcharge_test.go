package rda

import (
	"fmt"
	"testing"

	"repro/internal/page"
	"repro/internal/wal"
)

// TestCommitLogChargeIsOneForce pins what a FORCE commit without group
// commit pays the log: its after-images and its EOT record reach stable
// storage as one sequential log write, so the commit is charged exactly
// the log pages that span covers — not the tail page again for every
// image.  Each of the k pages sits in its own parity group and the pool
// holds them all, so the EOT flush logs no before-image and the commit
// appends nothing but the k images and the EOT.
func TestCommitLogChargeIsOneForce(t *testing.T) {
	for _, layout := range []Layout{DataStriping, ParityStriping} {
		for _, packed := range []bool{false, true} {
			for k := 1; k <= 4; k++ {
				t.Run(fmt.Sprintf("%v/packed=%v/k=%d", layout, packed, k), func(t *testing.T) {
					cfg := smallConfig(PageLogging, Force, true, layout)
					cfg.BufferFrames = 64
					cfg.PackedLog = packed
					db, err := Open(cfg)
					if err != nil {
						t.Fatal(err)
					}
					tx := mustBegin(t, db)
					for g := 0; g < k; g++ {
						p := db.arr.GroupPages(page.GroupID(g))[0]
						if err := tx.WritePage(PageID(p), fillPage(db, byte(g+1))); err != nil {
							t.Fatal(err)
						}
					}
					before := db.log.Stats()
					if db.log.ForcedLSN() != wal.LSN(before.Records) {
						t.Fatalf("log holds unforced records before EOT")
					}
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					after := db.log.Stats()
					if n := after.Records - before.Records; n != int64(k+1) {
						t.Fatalf("commit appended %d log records, want %d after-images and the EOT", n, k)
					}
					start, end := int(before.Bytes), int(after.Bytes)
					lp := cfg.LogPageSize
					pages := (end-1)/lp - start/lp + 1
					if packed {
						pages = (end-1)/lp - (start-1)/lp
					}
					if got, want := after.Transfers-before.Transfers, int64(pages*cfg.LogWriteCost); got != want {
						t.Fatalf("commit charged %d log transfers, one force over bytes [%d, %d) charges %d", got, start, end, want)
					}
				})
			}
		}
	}
}
